"""The Blockumulus cell: the unit of the cloud consortium.

A cell (Section III-B2/III-C) authenticates incoming client transactions,
admits them to its mutex-protected ledger, forwards them to every other
consortium cell, executes them against its local bContract instances,
collects the other cells' signed confirmations, and returns an aggregated
multi-signature receipt to the client (Fig. 7 of the paper).  At every
report-cycle boundary it fingerprints all contract data into a snapshot and
anchors the fingerprint in the Ethereum :class:`SnapshotRegistry` contract,
then executes any contingency transactions users submitted directly
on-chain (the censorship escape hatch of Section V-B).

:class:`BlockumulusCell` is the *ingress* stage of that pipeline and the
owner of the state its stages share; every step behind ingress is a stage
object of :mod:`repro.core.stages` (``execute``, ``service``, ``peer``,
``cycle``, ``read``) or :mod:`repro.core.recovery` (``recovery``), reached
by the route table's handler paths.  The cell
runs inside the discrete-event simulation, which it and its stages see
only through a :class:`~repro.sim.environment.Clock`; all service times
come from the deployment's :class:`CellServiceModel`.
"""

from __future__ import annotations

from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Generator, Mapping, Optional

if TYPE_CHECKING:
    import random

from ..contracts.registry import ContractRegistry
from ..contracts.system import install_system_contracts
from ..crypto.keys import Address, PrivateKey
from ..ethchain.contracts.snapshot_registry import SnapshotRegistry
from ..ethchain.provider import Web3Provider
from ..messages.endpoint import Endpoint
from ..messages.envelope import Envelope
from ..messages.opcodes import Opcode
from ..messages.signer import Signer
from ..sim.environment import Clock
from ..sim.events import Event
from ..sim.metrics import MetricsRegistry
from ..sim.network import Network
from .batching import BatchDispatcher
from .config import DeploymentConfig, SystemInvariants
from .consensus import OverlayConsensus
from .executor import TransactionExecutor
from .faults import FaultPlan
from .gateway import CrossShardGateway
from .ledger import TransactionLedger
from .recovery import MembershipManager, RecoveryStage
from .replies import ErrorReply
from .routes import ROUTES, Admission, Route, Sender, travels_signed
from .snapshot import SnapshotEngine
from .stages import CycleStage, ExecuteStage, PeerStage, ReadStage, ServiceStage
from .subscription import SubscriptionManager

#: Error string of a transaction shed by the admission controller.  The
#: prefix is the client-visible contract (``TransactionResult.shed``
#: matches on it); the reply reuses the existing ``TX_ERROR`` opcode so
#: shedding needs no new protocol message.
OVERLOADED_ERROR = "OVERLOADED: the cell's admission queue is full"


class BlockumulusCell:
    """One consortium member, attached to the simulated network."""

    def __init__(
        self,
        env: Clock,
        index: int,
        node_name: str,
        signer: Signer,
        eth_key: PrivateKey,
        invariants: SystemInvariants,
        network: Network,
        rng: random.Random,
        metrics: MetricsRegistry,
        eth_provider: Web3Provider,
        registry_contract: SnapshotRegistry,
        config: DeploymentConfig,
    ) -> None:
        self.env = env
        self.index = index
        self.node_name = node_name
        self.signer = signer
        self.invariants = invariants
        self.network = network
        self.rng = rng
        self.service_model = config.service_model
        self.metrics = metrics

        # Protocol state, shared by the stages.
        self.contracts = ContractRegistry()
        self.ledger = TransactionLedger(env, node_name)
        self.consensus = OverlayConsensus(invariants)
        self.snapshots = SnapshotEngine(node_name, self.contracts)
        self.executor = TransactionExecutor(node_name, self.contracts)
        self.subscriptions = SubscriptionManager(enforce=config.enforce_subscriptions)
        self.fault = FaultPlan()
        # Everything this cell says leaves through its endpoint, which a
        # crash silences: replies, forwards, membership traffic and the
        # batches queued before the crash alike.
        self.endpoint = Endpoint(env, network, node_name, signer, lambda: self.fault.crashed)
        self.nonces = self.endpoint.nonces
        self.membership = MembershipManager(self, env)
        self.recovery = RecoveryStage(self, env)
        # Outgoing forwards/confirmations for the same destination coalesce
        # into at most one envelope per scheduling quantum (none: each alone).
        self.batcher = BatchDispatcher(
            self.endpoint, config.batch_quantum if config.message_batching else None, metrics
        )

        # The stages behind ingress (repro.core.stages).
        self.execute = ExecuteStage(self, env, config.execution_lanes)
        self.service = ServiceStage(self, env, self.execute)
        self.peer = PeerStage(self, env, self.execute)
        self.cycle = CycleStage(
            self, env, self.execute, eth_provider, eth_key, registry_contract, config.auto_report
        )
        self.read = ReadStage(self, env)
        #: The execute stage's lane gate, for introspection.
        self.lanes = self.execute.lanes

        # Admission control (backpressure).  The counter tracks client
        # transactions currently being serviced end to end (ingress to
        # reply); with a bound, arrivals beyond it are shed *before* any
        # signature verification or ledger admission, so a shed
        # transaction leaves no protocol trace anywhere — which is what
        # keeps the conservation and differential oracles oblivious to
        # shedding by construction.  Forwarded transactions from peer
        # cells are never shed: they were already admitted by their
        # service cell, and dropping them here would diverge the ledgers.
        self.max_inflight = config.max_inflight
        self._inflight = 0
        self._inflight_peak = 0
        self._shed_count = 0

        #: Peer routing: consortium address -> network node name (read-only view).
        self.peers: Mapping[Address, str] = MappingProxyType({})
        # Client routing: client address -> network node name (learned from traffic).
        self._client_nodes: dict[Address, str] = {}

        # Contract-state sharding (repro.core.sharding): every cell knows
        # its group, and exactly one cell per group also holds the gateway
        # role object; all others refuse XSHARD traffic (repro.core.gateway).
        self.shard_group: Optional[int] = None
        self.gateway: Optional[CrossShardGateway] = None

        install_system_contracts(self.contracts)
        network.register(node_name, handler=self._on_message)

    # ------------------------------------------------------------------
    # Identity and wiring
    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        """The cell's Blockumulus identity (message-layer address)."""
        return self.signer.address

    def set_peers(self, peers: Mapping[Address, str]) -> None:
        """Install the address -> node-name map of the other consortium cells."""
        self.peers = MappingProxyType({
            address: node for address, node in peers.items() if address != self.address
        })

    def active_peer_nodes(self) -> dict[Address, str]:
        """Peers currently part of the confirmation quorum (this cell's view)."""
        return {
            address: node
            for address, node in self.peers.items()
            if self.consensus.is_active(address)
        }

    def deploy_contract(self, contract: Any) -> None:
        """Deploy a pre-built bContract instance (deployment orchestration)."""
        self.contracts.register(contract)

    def install_shard_directory(
        self, group: int, directory: dict[int, frozenset[Address]], gateway: bool = False
    ) -> None:
        """Install this cell's sharding identity.

        ``group`` is the cell group this cell belongs to; ``directory``
        lists every group's designated *gateway* addresses, which is what
        lets a gateway verify that a decision certificate's prepare votes
        really come from the other groups' gateways.  Only the cell
        installed with ``gateway=True`` gets the
        :class:`~repro.core.gateway.CrossShardGateway` role (and with it
        the directory) and serves ``XSHARD_*`` traffic: the 2PC state
        machine must have one authoritative owner per group.
        Installed by :class:`~repro.core.sharding.ShardedDeployment`;
        unsharded deployments never call this and reject all ``XSHARD_*``
        traffic.
        """
        self.shard_group = group
        self.gateway = CrossShardGateway(self, group, directory) if gateway else None

    def start(self) -> None:
        """Start the cell's background processes (report cycle lifecycle)."""
        self.cycle.start()

    def crash(self) -> None:
        """Go down: answer nothing, drop in-flight work, leave the network."""
        self.fault.crashed = True
        self.network.set_online(self.node_name, False)

    # ------------------------------------------------------------------
    # Ingress: every message passes here before a handler sees it
    # ------------------------------------------------------------------
    def _on_message(self, src_node: str, payload: Any, size: int) -> None:
        if self.fault.crashed:
            return
        if not isinstance(payload, Envelope):
            self.metrics.increment(f"{self.node_name}/malformed_messages")
            return
        route = ROUTES.get(payload.operation)
        if route is None:
            # A reply-only opcode: cells emit it, nobody may send them one.
            self.metrics.increment(f"{self.node_name}/unhandled_{payload.operation.value}")
            return
        if route.sender is Sender.CLIENT:
            self._client_nodes[payload.sender] = src_node
            if route.admission is not None:
                # Requests that cost a confirmation round are metered on arrival.
                self.subscriptions.record_traffic(payload.sender, size)
        if route.delayed:
            self.env.process(self._serve_delayed(route, src_node, payload))
        else:
            self._serve_message(route, src_node, payload)

    def reply(
        self, dst_node: str, request: Envelope, operation: Opcode, data: dict[str, Any]
    ) -> None:
        """Sign and send a reply to ``request`` (crashed cells stay silent).

        A reply the route table sends unsigned (``travels_signed``) is stamped instead.
        """
        if self.fault.crashed:
            return
        endpoint = self.endpoint
        reply = (endpoint.sign if travels_signed(operation) else endpoint.stamp)(
            request.sender, operation, data, reply_to=request.nonce
        )
        if request.sender in self._client_nodes:
            self.subscriptions.record_traffic(request.sender, reply.byte_size())
        endpoint.post(dst_node, reply)

    def refuse(self, dst_node: str, request: Envelope, error: str, **details: Any) -> None:
        """Answer ``request`` with a plain ``TX_ERROR`` (never a signed statement)."""
        self.reply(dst_node, request, Opcode.TX_ERROR, ErrorReply(error, **details).to_data())

    def _admit_ingress(self) -> bool:
        """Admission gate: take an inflight slot or shed the arrival.

        Runs *before* signature verification and ledger admission — the
        point of load shedding is to refuse work before paying for it,
        and a shed transaction must leave no protocol trace (no ledger
        entry, no forwards, no state), so the oracles never see it.
        Returns ``False`` when the arrival must be shed.
        """
        if self.recovery.sheds_client():
            return False
        if self.max_inflight is not None and self._inflight >= self.max_inflight:
            self._shed_count += 1
            return False
        self._inflight += 1
        self._inflight_peak = max(self._inflight_peak, self._inflight)
        return True

    def _serve_delayed(
        self, route: Route, src_node: str, envelope: Envelope
    ) -> Generator[Event, Any, None]:
        """Ingress of a delayed route: slot, auth delay, :meth:`_serve_message`, release.

        Authentication is the first step of serving (Section III-D3) and
        costs the sampled delay; however the request exits, the admission
        slot it took is released exactly once.
        """
        sheddable = route.admission is Admission.SHEDDABLE
        if sheddable and not self._admit_ingress():
            self.refuse(src_node, envelope, OVERLOADED_ERROR, shed=True)
            return
        try:
            yield self.env.timeout(self.service_model.auth_overhead.sample(self.rng))
            service = self._serve_message(route, src_node, envelope)
            if service is not None:
                yield from service
        finally:
            if sheddable:
                self._inflight -= 1

    def _serve_message(self, route: Route, src_node: str, envelope: Envelope) -> Any:
        """Authenticate ``envelope``, parse its body, call the route's handler.

        The one place an arriving envelope is verified and its data field
        read untyped.  On every route the envelope must be addressed to
        this cell: a message travels without its recipient and is read
        under the receiver's own address (``Envelope.from_link``), so one
        signed for another cell — a peer's forward relayed here, a
        client's submission replayed onto a sibling — does not verify.
        The simulator delivers the envelope itself, where that is this one
        comparison.  A message that travels unsigned travels without its
        sender too: the link it arrives on names it, so a cell-to-cell one
        is taken only from the node of the peer it names — the simulator's
        form of reading it under the peer at the other end of the link —
        and its handler checks the statements of the body instead of the
        envelope.  Returns what the handler returned (for a delayed route,
        the generator that keeps serving), None after a refusal.
        """
        signed, sender = travels_signed(envelope.operation), envelope.sender
        entitled = envelope.recipient == self.address and (
            route.sender is not Sender.CELL
            or (self.invariants.is_cell(sender) if signed else self.peers.get(sender) == src_node)
        )
        if (signed and not envelope.verify()) or not entitled:
            self.refuse_unauthenticated(src_node, envelope)
            return None
        try:
            body = None if route.body is None else route.body.from_data(envelope.data)
        except ValueError as exc:
            # Every body parser raises its family's ValueError subclass.
            self.metrics.increment(f"{self.node_name}/{route.refusal.malformed_counter}")
            if route.refusal.answered:
                self.refuse(src_node, envelope, str(exc))
            return None
        return attrgetter(route.handler)(self)(src_node, envelope, body)

    def refuse_unauthenticated(self, src_node: str, envelope: Envelope) -> None:
        """Count (and on answered routes report) a message of unproven origin.

        A bad envelope signature, a sender of the wrong class or an
        unsigned message from another link than its sender's, found by
        ingress — or a signed statement in the body that is not the
        envelope sender's own, found by its handler.
        """
        refusal = ROUTES[envelope.operation].refusal
        self.metrics.increment(f"{self.node_name}/{refusal.auth_counter}")
        if refusal.answered:
            self.refuse(src_node, envelope, "authentication failed")

    def _serve_xshard(
        self, src_node: str, envelope: Envelope, body: Any
    ) -> Optional[Generator[Event, Any, None]]:
        """Hand a cross-shard request to the gateway role, if this cell holds it."""
        if self.gateway is None:
            # One authoritative 2PC state machine per group: a sibling
            # cell serving the same xtx could be tricked into signing a
            # verdict that contradicts the gateway's.
            self.refuse(
                src_node, envelope,
                "this deployment is not sharded" if self.shard_group is None
                else f"{self.node_name} is not the cross-shard gateway of its group",
            )
            return None
        return self.gateway.handle_request(src_node, envelope, body)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Client requests currently holding an admission slot."""
        return self._inflight

    @property
    def reports_submitted(self) -> list[dict[str, Any]]:
        """Snapshot reports this cell has anchored on Ethereum."""
        return self.cycle.reports_submitted

    def statistics(self) -> dict[str, Any]:
        """Operational counters for this cell."""
        return {
            "cell": self.node_name,
            "address": self.address.hex(),
            "ledger": self.ledger.statistics(),
            "contracts": self.contracts.names(),
            "excluded_contracts": self.contracts.excluded(),
            "excluded_cells": [address.hex() for address in self.consensus.excluded_cells()],
            "snapshots": self.snapshots.retained_cycles(),
            "reports_submitted": len(self.cycle.reports_submitted),
            "contingencies_executed": self.cycle.contingencies_executed,
            "cpu_utilization": self.execute.cpu.utilization(),
            "subscriber_count": len(self.subscriptions.subscribers()),
            "batching": self.batcher.statistics(),
            "lanes": self.lanes.statistics(),
            "admission": {
                "max_inflight": self.max_inflight,
                "inflight": self._inflight,
                "peak_inflight": self._inflight_peak,
                "shed": self._shed_count,
                "shed_recovering": self.recovery.shed,
            },
            "shard_group": self.shard_group,
            "xshard_transactions": (
                self.gateway.transaction_count if self.gateway is not None else 0
            ),
            "recovering": self.recovery.recovering,
            "last_recovery": (
                {
                    "ok": self.recovery.last_result.ok,
                    "duration": self.recovery.last_result.duration,
                    "replayed": self.recovery.last_result.replayed,
                    "backfilled": self.recovery.last_result.backfilled,
                }
                if self.recovery.last_result is not None
                else None
            ),
        }
