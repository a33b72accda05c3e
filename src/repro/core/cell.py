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

The cell runs entirely inside the discrete-event simulation: message
handling is event-driven, protocol steps are generator processes, and all
service times come from the deployment's :class:`CellServiceModel`.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Generator, Optional

if TYPE_CHECKING:
    import random

from ..contracts.registry import ContractRegistry
from ..contracts.system import install_system_contracts
from ..crypto.keys import Address, PrivateKey
from ..ethchain.contracts.snapshot_registry import SnapshotRegistry
from ..ethchain.provider import Web3Provider
from ..messages import requests
from ..messages.batch import ForwardedTransactions
from ..messages.endpoint import Endpoint
from ..messages.envelope import Envelope
from ..messages.membership import SyncRequest, SyncState
from ..messages.opcodes import Opcode
from ..messages.signer import Signer
from ..sim.environment import Environment
from ..sim.events import Event
from ..sim.latency import CellServiceModel
from ..sim.metrics import MetricsRegistry
from ..sim.network import Network
from ..sim.resources import Resource
from .batching import BatchDispatcher
from .config import SystemInvariants
from .consensus import OverlayConsensus
from .executor import ExecutionOutcome, TransactionExecutor
from .faults import FaultPlan
from .gateway import CrossShardGateway
from .lanes import LaneScheduler
from .ledger import LedgerEntry, LedgerError, TransactionLedger
from .receipts import AggregatedReceipt, Confirmation, ConfirmationBatch
from .recovery import MembershipManager, RecoveryCoordinator
from .replies import (
    ErrorReply,
    LedgerResponse,
    QueryResult,
    ReceiptReply,
    SnapshotResponse,
    SubscriptionAck,
)
from .routes import ROUTES, Admission, Route, Sender
from .snapshot import SnapshotEngine
from .subscription import PricingPolicy, SubscriptionManager, SubscriptionError

#: Error string of a transaction shed by the admission controller.  The
#: prefix is the client-visible contract (``TransactionResult.shed``
#: matches on it); the reply reuses the existing ``TX_ERROR`` opcode so
#: shedding needs no new protocol message.
OVERLOADED_ERROR = "OVERLOADED: the cell's admission queue is full"


def _flip_fingerprint(fingerprint_hex: str) -> str:
    """The bitwise complement of a ``0x``-hex fingerprint.

    What an *equivocating* cell signs on one of its two channels: a
    well-formed fingerprint of the right width that deterministically
    differs from the honest one (unlike the zeroed fingerprint of
    ``tamper_fingerprint``, which is self-consistently wrong everywhere).
    """
    honest = bytes.fromhex(fingerprint_hex[2:])
    return "0x" + bytes(byte ^ 0xFF for byte in honest).hex()


@dataclasses.dataclass
class _ServiceResult:
    """What the shared service pipeline learned about one transaction.

    Produced by :meth:`BlockumulusCell._service_pipeline` for both the
    client-facing ``TX_SUBMIT`` path and the cross-shard gateway path,
    which differ only in how they report this result back.
    """

    entry: Optional[LedgerEntry] = None
    outcome: Optional[ExecutionOutcome] = None
    receipt: Optional[AggregatedReceipt] = None
    missing: list[Address] = dataclasses.field(default_factory=list)
    mismatched: list[Address] = dataclasses.field(default_factory=list)
    rejected: list[Confirmation] = dataclasses.field(default_factory=list)
    admit_error: Optional[str] = None
    aborted: bool = False

    @property
    def confirmed(self) -> bool:
        """True when the transaction earned a full aggregated receipt."""
        return self.receipt is not None

    def failure_reason(self) -> str:
        """Human-readable reason the transaction reverted."""
        if self.admit_error is not None:
            return self.admit_error
        if self.outcome is not None and not self.outcome.ok:
            return self.outcome.error or "execution rejected"
        if self.rejected:
            return self.rejected[0].error or "execution rejected by a consortium cell"
        if self.missing:
            return "forwarding deadline missed by one or more cells"
        if self.mismatched:
            return "fingerprint mismatch across consortium cells"
        return "transaction reverted"


class _PendingTransaction:
    """Book-keeping for a transaction this cell is servicing."""

    def __init__(self, env: Environment, tx_id: str, expected_cells: set[Address]) -> None:
        self.tx_id = tx_id
        self.expected_cells = set(expected_cells)
        self.confirmations: dict[Address, Confirmation] = {}
        self.all_received: Event = env.event()

    def add(self, confirmation: Confirmation) -> None:
        """Record one confirmation, firing the completion event if done."""
        if confirmation.cell not in self.expected_cells:
            return
        self.confirmations[confirmation.cell] = confirmation
        if len(self.confirmations) >= len(self.expected_cells) and not self.all_received.triggered:
            self.all_received.succeed(self.confirmations)


class BlockumulusCell:
    """One consortium member, attached to the simulated network."""

    def __init__(
        self,
        env: Environment,
        index: int,
        node_name: str,
        signer: Signer,
        eth_key: PrivateKey,
        invariants: SystemInvariants,
        network: Network,
        rng: random.Random,
        service_model: CellServiceModel,
        metrics: MetricsRegistry,
        eth_provider: Optional[Web3Provider] = None,
        registry_contract: Optional[SnapshotRegistry] = None,
        pricing: Optional[PricingPolicy] = None,
        enforce_subscriptions: bool = False,
        auto_report: bool = True,
        snapshots_retained: int = 3,
        message_batching: bool = True,
        batch_quantum: float = 0.02,
        execution_lanes: int = 1,
        max_inflight: Optional[int] = None,
    ) -> None:
        self.env = env
        self.index = index
        self.node_name = node_name
        self.signer = signer
        self.eth_key = eth_key
        self.invariants = invariants
        self.network = network
        self.rng = rng
        self.service_model = service_model
        self.metrics = metrics
        self.eth = eth_provider
        self.registry_contract = registry_contract
        self.auto_report = auto_report

        # Protocol state.
        self.contracts = ContractRegistry()
        self.ledger = TransactionLedger(env, node_name)
        self.consensus = OverlayConsensus(invariants)
        self.snapshots = SnapshotEngine(node_name, self.contracts, retain=snapshots_retained)
        self.executor = TransactionExecutor(node_name, self.contracts)
        self.subscriptions = SubscriptionManager(
            policy=pricing or PricingPolicy(), enforce=enforce_subscriptions
        )
        self.fault = FaultPlan()
        # Everything this cell says leaves through its endpoint, which a
        # crash silences: replies, forwards, membership traffic and the
        # batches queued before the crash alike.
        self.endpoint = Endpoint(env, network, node_name, signer, lambda: self.fault.crashed)
        self.nonces = self.endpoint.nonces
        self.membership = MembershipManager(self)
        self.recovery = RecoveryCoordinator(self)
        # Batched overlay pipeline: outgoing forwards/confirmations for the
        # same destination coalesce into at most one envelope per scheduling
        # quantum, and leave at once when the destination has been idle.
        self.batcher: Optional[BatchDispatcher] = (
            BatchDispatcher(self.endpoint, batch_quantum, metrics) if message_batching else None
        )

        # Simulated hardware.
        self.cpu = Resource(env, capacity=service_model.cpu_workers, name=f"{node_name}-cpu")
        # The execution stage's one gate (repro.core.lanes): with lanes>1 at
        # most ``execution_lanes`` transactions run concurrently, never two
        # with conflicting access footprints; with one lane it plans nothing
        # and admits up to ``max_parallel_invocations`` at once.  Either way
        # waiters are granted by (cycle, signed timestamp, tx id), a rank
        # every replica computes alike for the same transaction.
        self.lanes = LaneScheduler(
            env, execution_lanes, self.contracts, name=f"{node_name}-lanes",
            invocations=service_model.max_parallel_invocations,
        )

        # Admission control (backpressure).  The counter tracks client
        # transactions currently being serviced end to end (ingress to
        # reply); with a bound, arrivals beyond it are shed *before* any
        # signature verification or ledger admission, so a shed
        # transaction leaves no protocol trace anywhere — which is what
        # keeps the conservation and differential oracles oblivious to
        # shedding by construction.  Forwarded transactions from peer
        # cells are never shed: they were already admitted by their
        # service cell, and dropping them here would diverge the ledgers.
        self.max_inflight = max_inflight
        self._inflight = 0
        self._inflight_peak = 0
        self._shed_count = 0

        # Peer routing: consortium address -> network node name.
        self._peers: dict[Address, str] = {}
        # Client routing: client address -> network node name (learned from traffic).
        self._client_nodes: dict[Address, str] = {}
        self._pending: dict[str, _PendingTransaction] = {}

        # Contract-state sharding (repro.core.sharding): every cell knows
        # its group, and exactly one cell per group also holds the gateway
        # role object; all others refuse XSHARD traffic (repro.core.gateway).
        self.shard_group: Optional[int] = None
        self.gateway: Optional[CrossShardGateway] = None

        # While a resync is in flight the cell must not take snapshots: it
        # would anchor fingerprints of half-restored state.  For the same
        # reason it sheds client ingress (half-restored state must never
        # service transactions) and buffers forwarded transactions from
        # peers instead of admitting them — the replay path needs the
        # ledger to stay donor-aligned until the resync settles, and the
        # buffered forwards drain immediately afterwards.
        self.recovering = False
        self._shed_recovering = 0
        self._recovery_forward_buffer: list[tuple[str, Address, Envelope, str]] = []
        # Report-stage state: when True, incoming executions queue on the event.
        self.in_report_stage = False
        self._stage_resume: Event = env.event()
        self._contingencies_executed = 0
        self._reports_submitted: list[dict[str, Any]] = []

        install_system_contracts(self.contracts)
        network.register(node_name, handler=self._on_message)

    # ------------------------------------------------------------------
    # Identity and wiring
    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        """The cell's Blockumulus identity (message-layer address)."""
        return self.signer.address

    def set_peers(self, peers: dict[Address, str]) -> None:
        """Install the address -> node-name map of the other consortium cells."""
        self._peers = {
            address: node for address, node in peers.items() if address != self.address
        }

    def peer_node(self, address: Address) -> Optional[str]:
        """Network node name of the peer cell at ``address`` (None if unknown)."""
        return self._peers.get(address)

    def active_peer_nodes(self) -> dict[Address, str]:
        """Peers currently part of the confirmation quorum (this cell's view)."""
        return {
            address: node
            for address, node in self._peers.items()
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
        self.env.process(self._lifecycle())

    def crash(self) -> None:
        """Go down: answer nothing, drop in-flight work, leave the network."""
        self.fault.crashed = True
        self.network.set_online(self.node_name, False)

    # ------------------------------------------------------------------
    # Message dispatch
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

    def _reply(
        self, dst_node: str, request: Envelope, operation: Opcode, data: dict[str, Any]
    ) -> None:
        """Sign and send a reply to ``request`` (crashed cells stay silent)."""
        if self.fault.crashed:
            return
        reply = self.endpoint.sign(request.sender, operation, data, reply_to=request.nonce)
        if request.sender in self._client_nodes:
            self.subscriptions.record_traffic(request.sender, reply.byte_size())
        self.endpoint.post(dst_node, reply)

    def _refuse(self, dst_node: str, request: Envelope, error: str, **details: Any) -> None:
        """Answer ``request`` with a plain ``TX_ERROR`` (never a signed statement)."""
        self._reply(dst_node, request, Opcode.TX_ERROR, ErrorReply(error, **details).to_data())

    # ------------------------------------------------------------------
    # Client transaction servicing (Fig. 7 steps 1-4)
    # ------------------------------------------------------------------
    def _admit_ingress(self) -> bool:
        """Admission gate: take an inflight slot or shed the arrival.

        Runs *before* signature verification and ledger admission — the
        point of load shedding is to refuse work before paying for it,
        and a shed transaction must leave no protocol trace (no ledger
        entry, no forwards, no state), so the oracles never see it.
        Returns ``False`` when the arrival must be shed.
        """
        if self.recovering:
            # Mid-resync the cell holds half-restored state: servicing a
            # transaction from it could admit on top of a ledger that is
            # about to be truncated or replayed.  Shed with the same
            # OVERLOADED outcome as backpressure — clients retry
            # elsewhere, and no protocol trace is left.
            self._shed_recovering += 1
            self.metrics.increment(f"{self.node_name}/transactions_shed_recovering")
            return False
        if self.max_inflight is not None and self._inflight >= self.max_inflight:
            self._shed_count += 1
            self.metrics.increment(f"{self.node_name}/transactions_shed")
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
        started = self.env.now
        sheddable = route.admission is Admission.SHEDDABLE
        if sheddable and not self._admit_ingress():
            self._refuse(src_node, envelope, OVERLOADED_ERROR, shed=True)
            return
        try:
            yield self.env.timeout(self.service_model.auth_overhead.sample(self.rng))
            service = self._serve_message(route, src_node, envelope)
            if service is not None and (yield from service):
                # The handler serviced its request end to end.
                self.metrics.record_latency(
                    f"{self.node_name}/service_latency", started, self.env.now
                )
        finally:
            if sheddable:
                self._inflight -= 1

    def _serve_message(self, route: Route, src_node: str, envelope: Envelope) -> Any:
        """Authenticate ``envelope``, parse its body, call the route's handler.

        The one place an arriving envelope is verified and its data field
        read untyped.  Returns what the handler returned (for a delayed
        route, the generator that keeps serving), None after a refusal.
        """
        if route.sender is Sender.CLIENT:
            entitled = envelope.recipient == self.address
        elif route.sender is Sender.CELL:
            entitled = self.invariants.is_cell(envelope.sender)
        else:
            entitled = True
        if not envelope.verify() or not entitled:
            self._refuse_unauthenticated(src_node, envelope)
            return None
        try:
            body = None if route.body is None else route.body.from_data(envelope.data)
        except ValueError as exc:
            # Every body parser raises its family's ValueError subclass.
            self.metrics.increment(f"{self.node_name}/{route.refusal.malformed_counter}")
            if route.refusal.answered:
                self._refuse(src_node, envelope, str(exc))
            return None
        return attrgetter(route.handler)(self)(src_node, envelope, body)

    def _refuse_unauthenticated(self, src_node: str, envelope: Envelope) -> None:
        """Count (and on answered routes report) a message of unproven origin.

        A bad envelope signature or a sender of the wrong class, found by
        the stage — or a signed statement in the body that is not the
        envelope sender's own, found by its handler.
        """
        refusal = ROUTES[envelope.operation].refusal
        self.metrics.increment(f"{self.node_name}/{refusal.auth_counter}")
        if refusal.answered:
            self._refuse(src_node, envelope, "authentication failed")

    def _serve_xshard(
        self, src_node: str, envelope: Envelope, body: Any
    ) -> Optional[Generator[Event, Any, None]]:
        """Hand a cross-shard request to the gateway role, if this cell holds it."""
        if self.gateway is None:
            # One authoritative 2PC state machine per group: a sibling
            # cell serving the same xtx could be tricked into signing a
            # verdict that contradicts the gateway's.
            self._refuse(
                src_node, envelope,
                "this deployment is not sharded" if self.shard_group is None
                else f"{self.node_name} is not the cross-shard gateway of its group",
            )
            return None
        return self.gateway.handle_request(src_node, envelope, body)

    def _serve_submission(
        self, src_node: str, envelope: Envelope, call: requests.TransactionCall
    ) -> Generator[Event, Any, bool]:
        """Service an authenticated ``TX_SUBMIT``; True once its receipt went out."""
        if self.fault.is_censored(envelope):
            # A censoring cell silently drops the transaction (Section V-B).
            self.metrics.increment(f"{self.node_name}/censored")
            return False
        try:
            self.subscriptions.check_access(envelope.sender)
        except SubscriptionError as exc:
            self._refuse(src_node, envelope, str(exc))
            return False

        result = yield from self._service_pipeline(envelope)
        if result.aborted:
            # The cell crashed mid-service; it stays silent.
            return False
        if result.admit_error is not None:
            self._refuse(src_node, envelope, result.admit_error)
            return False

        self.subscriptions.record_transaction(envelope.sender)

        if result.confirmed:
            self.metrics.increment(f"{self.node_name}/transactions_confirmed")
            self._reply(
                src_node, envelope, Opcode.TX_RECEIPT, ReceiptReply(result.receipt).to_data()
            )
            return True

        # Failure path: the transaction reverts from the client's viewpoint.
        if result.mismatched:
            self.metrics.increment(f"{self.node_name}/fingerprint_mismatches")
        self.metrics.increment(f"{self.node_name}/transactions_failed")
        self._refuse(
            src_node,
            envelope,
            result.failure_reason(),
            tx_id=result.entry.tx_id,
            missing_cells=tuple(address.hex() for address in result.missing),
            mismatched_cells=tuple(address.hex() for address in result.mismatched),
        )
        return False

    def _service_pipeline(self, envelope: Envelope) -> Generator[Event, Any, _ServiceResult]:
        """Admit, replicate, and aggregate one transaction (Fig. 7 steps 2-4).

        The shared core of transaction servicing: admission under the
        ledger mutex, forwarding to every active peer, local execution,
        confirmation collection against the forwarding deadline, and
        fingerprint aggregation into a multi-signature receipt.  Used by
        the client-facing ``TX_SUBMIT`` path and by the cross-shard
        gateway (which services the inner transactions of 2PC phases and
        voucher legs); only the reply that reports the returned
        :class:`_ServiceResult` differs.
        """
        try:
            entry = yield from self._admit_to_ledger(envelope)
        except LedgerError as exc:
            return _ServiceResult(admit_error=str(exc))
        active_peers = self.active_peer_nodes()
        pending = _PendingTransaction(self.env, entry.tx_id, set(active_peers))
        self._pending[entry.tx_id] = pending
        forwarded = yield from self._forward_to_peers(envelope, active_peers)
        if not forwarded:
            return _ServiceResult(entry=entry, aborted=True)

        # Execute locally while peers work in parallel.
        outcome = yield from self._execute_entry(entry)

        # Wait for all confirmations or the forwarding deadline.  A peer runs
        # this transaction only after everything ranked before it, so its
        # deadline starts once nothing ranked before it is queued here.
        if active_peers:
            queue_ahead = self.lanes.queue_ahead(entry)
            if queue_ahead is not None:
                yield self.env.any_of([pending.all_received, queue_ahead])
            if queue_ahead is None or not pending.all_received.triggered:
                deadline = self.env.timeout(self.invariants.forwarding_deadline)
                yield self.env.any_of([pending.all_received, deadline])
        self._pending.pop(entry.tx_id, None)

        # The service cell checks every returned fingerprint (Fig. 7 step 4);
        # the paper attributes most of this step's cost to re-running the
        # external fingerprinting tool per confirmation.
        if active_peers:
            yield self.env.timeout(
                self.service_model.aggregate_overhead_per_cell * len(active_peers)
            )
        return self._aggregate(entry, outcome, pending, active_peers)

    def _admit_to_ledger(self, envelope: Envelope) -> Generator[Event, Any, LedgerEntry]:
        """Admission: the ordering point, under the ledger mutex.

        Waits out a report stage in progress, so the entry lands in the
        cycle that follows the snapshot.  Raises :class:`LedgerError`
        (mutex released) when the transaction is already in the ledger.
        """
        yield self.ledger.mutex.request()
        try:
            if self.in_report_stage:
                yield self._stage_resume
            return self.ledger.admit(envelope, self.consensus.cycle_of(self.env.now))
        finally:
            self.ledger.mutex.release()

    def _forward_to_peers(
        self, envelope: Envelope, active_peers: dict[Address, str]
    ) -> Generator[Event, Any, bool]:
        """Forward an admitted transaction; False if the cell crashed midway.

        Targets are every active consortium peer — plus any rejoiner this
        cell agreed to readmit whose commit is still in flight.  Without
        the provisional targets, everything admitted between the rejoin
        ack and the readmit commit would silently never reach the
        rejoiner (it is not in the active view yet).  Provisional
        targets buffer the forward mid-resync and are *not* part of the
        confirmation quorum, so they never gate the receipt.
        """
        forward_targets = dict(active_peers)
        for address, node in self.membership.provisional_forward_targets().items():
            forward_targets.setdefault(address, node)
        for peer_address, peer_node in forward_targets.items():
            yield from self.cpu.use(self.service_model.forward_cpu_per_cell)
            if self.fault.crashed:
                return False
            if self.batcher is not None:
                # Batched pipeline: the client envelope joins this peer's next
                # batch flush instead of costing a dedicated network message.
                self.batcher.queue_forward(peer_node, peer_address, envelope)
                continue
            self.endpoint.send(
                peer_node, peer_address, Opcode.TX_FORWARD,
                {"client_envelope": envelope.to_wire()},
            )
        return True

    def _aggregate(
        self,
        entry: LedgerEntry,
        outcome: ExecutionOutcome,
        pending: _PendingTransaction,
        active_peers: dict[Address, str],
    ) -> _ServiceResult:
        """Judge the collected confirmations; sign the receipt if all agree."""
        missing = [address for address in active_peers if address not in pending.confirmations]
        mismatched: list[Address] = []
        rejected: list[Confirmation] = []
        expected_fingerprint = outcome.execution_fingerprint_hex()
        for address, confirmation in pending.confirmations.items():
            self.consensus.record_success(address)
            if confirmation.status != "executed":
                rejected.append(confirmation)
            elif (
                confirmation.fingerprint_hex != expected_fingerprint
                or confirmation.contract != outcome.contract
                or confirmation.error is not None
            ):
                # Not the statement this cell signs: a receipt cannot carry it.
                mismatched.append(address)
        for address in missing:
            newly_excluded = self.consensus.record_miss(address, entry.cycle)
            if newly_excluded:
                self.metrics.increment(f"{self.node_name}/cells_excluded")
                # Spread the observation: open a consortium-wide vote so the
                # other cells stop forwarding to the dead peer as well.
                self.membership.propose_exclusion(
                    address, entry.cycle, reason="forwarding deadline missed"
                )

        receipt: Optional[AggregatedReceipt] = None
        if outcome.ok and not missing and not mismatched and not rejected:
            own_confirmation = Confirmation.create(
                self.signer,
                tx_id=entry.tx_id,
                contract=outcome.contract,
                fingerprint_hex=expected_fingerprint,
                status="executed",
                timestamp=self.env.now,
            )
            receipt = AggregatedReceipt.of(
                (own_confirmation, *pending.confirmations.values()),
                tx_id=entry.tx_id,
                contract=outcome.contract,
                fingerprint_hex=expected_fingerprint,
                method=outcome.method,
                result=outcome.result,
                service_cell=self.address,
                cycle=entry.cycle,
                submitted_at=entry.envelope.payload.timestamp,
                completed_at=self.env.now,
            )
        return _ServiceResult(
            entry=entry,
            outcome=outcome,
            receipt=receipt,
            missing=missing,
            mismatched=mismatched,
            rejected=rejected,
        )

    # ------------------------------------------------------------------
    # Forwarded transactions from other cells (Fig. 7 step 3)
    # ------------------------------------------------------------------
    def _serve_forward(
        self, src_node: str, forward: Envelope, body: ForwardedTransactions
    ) -> Generator[Event, Any, None]:
        """Handle the one client transaction of a per-transaction ``TX_FORWARD``."""
        (client_envelope,) = body.client_envelopes
        yield from self._handle_forwarded(src_node, forward.sender, client_envelope, forward.nonce)

    def _serve_forward_batch(
        self, src_node: str, batch_envelope: Envelope, body: ForwardedTransactions
    ) -> None:
        """Fan out the transactions of one authenticated batch envelope.

        The authentication overhead was paid once for the batch — this is
        where the batched pipeline saves cell time on top of network messages.
        Each inner transaction still runs in its own process (parallel up to
        the service model's invocation limit), exactly like singletons.
        """
        for client_envelope in body.client_envelopes:
            self.env.process(
                self._handle_forwarded(
                    src_node, batch_envelope.sender, client_envelope, batch_envelope.nonce
                )
            )

    def _handle_forwarded(
        self,
        src_node: str,
        origin: Address,
        client_envelope: Envelope,
        reply_nonce: str,
    ) -> Generator[Event, Any, None]:
        """Admit, execute, and confirm one forwarded client transaction."""
        if self.fault.crashed:
            # The cell crashed after the forward (or its batch) was already
            # delivered: drop the work exactly as per-transaction traffic
            # arriving after the crash would have been dropped.
            return
        if self.recovering:
            # Mid-resync the ledger must stay aligned with the donor's
            # stream (the replay path hard-fails on interleaved local
            # admissions), so park the forward and re-handle it once the
            # resync settles.  Recovery completes well inside the
            # forwarding deadline, so the confirmation still reaches the
            # origin in time; if the recovery fails, the re-crashed cell
            # drops the buffer exactly like in-flight traffic at a crash.
            self._recovery_forward_buffer.append(
                (src_node, origin, client_envelope, reply_nonce)
            )
            return
        if not client_envelope.verify():
            self._confirm(src_node, origin, reply_nonce, client_envelope.payload.hash_hex(),
                          contract="", fingerprint_hex="0x" + "00" * 32,
                          status="rejected", error="client signature invalid")
            return
        if self.fault.extra_confirm_delay:
            self.fault.record("delay", seconds=self.fault.extra_confirm_delay)
            yield self.env.timeout(self.fault.extra_confirm_delay)
        if self.fault.crashed:
            # Crashed while the transaction was waiting in this cell: it is
            # never admitted, exactly as if the envelope had been dropped.
            return

        try:
            entry = yield from self._admit_to_ledger(client_envelope)
        except LedgerError:
            # Already admitted: a duplicate submission through another
            # cell, or a forward drained from the recovery buffer whose
            # entry the post-readmit backfill admitted first.
            duplicate = self.ledger.get(client_envelope.payload.hash_hex())
            yield from self._confirm_duplicate(src_node, origin, reply_nonce, duplicate)
            return

        outcome = yield from self._execute_entry(entry)
        self._confirm(
            src_node,
            origin,
            reply_nonce,
            outcome.tx_id,
            outcome.contract,
            outcome.execution_fingerprint_hex(),
            status=outcome.status,
            error=outcome.error,
        )

    def _confirm_duplicate(
        self, src_node: str, origin: Address, reply_nonce: str, duplicate: LedgerEntry
    ) -> Generator[Event, Any, None]:
        """Confirm a forward whose transaction this cell had already admitted.

        Reports the recorded outcome instead of re-executing — but an
        entry that is merely *admitted* has an execution still in flight
        (or about to be replayed); calling it rejected would manufacture
        a spurious failed confirmation.  Wait it out, bounded by the
        forwarding deadline the origin is under anyway.
        """
        wait_deadline = self.env.now + self.invariants.forwarding_deadline
        while duplicate.status == "admitted" and self.env.now < wait_deadline:
            yield self.env.timeout(0.01)
        if duplicate.status == "executed":
            # The origin compares the order-independent *execution*
            # fingerprint, not the stored post-execution state
            # fingerprint — recompute it from the recorded outcome.
            recorded = ExecutionOutcome(
                tx_id=duplicate.tx_id,
                contract=duplicate.contract or "",
                method=duplicate.envelope.data.get("method", ""),
                status="executed",
                result=duplicate.result,
                error=duplicate.error,
                fingerprint=duplicate.fingerprint or b"",
            )
            fingerprint_hex, status, error = (
                recorded.execution_fingerprint_hex(), "executed", duplicate.error
            )
        else:
            fingerprint_hex, status, error = (
                "0x" + "00" * 32, "rejected", duplicate.error or "duplicate transaction"
            )
        self._confirm(
            src_node, origin, reply_nonce, duplicate.tx_id, duplicate.contract or "",
            fingerprint_hex, status=status, error=error,
        )

    def drain_recovery_forwards(self) -> None:
        """Re-handle the forwards that arrived mid-resync.

        Called by the recovery coordinator once ``recovering`` clears.
        After a *failed* recovery the cell is crashed again and the
        buffered work is dropped, exactly like in-flight traffic at a
        crash; after a successful one each forward runs through the
        normal handler — entries the backfill already admitted take the
        duplicate path and confirm from the recorded outcome.
        """
        buffered, self._recovery_forward_buffer = self._recovery_forward_buffer, []
        if self.fault.crashed:
            return
        for src_node, origin, client_envelope, reply_nonce in buffered:
            self.env.process(
                self._handle_forwarded(src_node, origin, client_envelope, reply_nonce)
            )

    def _confirm(
        self,
        dst_node: str,
        origin: Address,
        reply_nonce: str,
        tx_id: str,
        contract: str,
        fingerprint_hex: str,
        status: str,
        error: Optional[str] = None,
    ) -> None:
        """Send a signed confirmation back to the service cell at ``origin``.

        A cell that crashed between executing the transaction and this point
        sends nothing — matching what its peers observe in either pipeline
        mode (the batch dispatcher applies the same gate at flush time).
        """
        if self.fault.crashed:
            return
        if self.fault.equivocate and status == "executed":
            # Equivocation: sign a *different* execution fingerprint for
            # roughly half the service cells (split deterministically by
            # the origin address), so two honest peers end up holding
            # contradictory signed confirmations for the same execution.
            if int(origin.hex()[-1], 16) % 2 == 0:
                fingerprint_hex = _flip_fingerprint(fingerprint_hex)
                self.fault.record(
                    "equivocate", channel="confirmation", tx_id=tx_id, to=origin.hex()
                )
        confirmation = Confirmation.create(
            self.signer,
            tx_id=tx_id,
            contract=contract,
            fingerprint_hex=fingerprint_hex,
            status=status,
            timestamp=self.env.now,
            error=error,
        )
        if self.batcher is not None:
            # The confirmation joins the next batch owed to the service cell;
            # routing at the receiver is by tx_id, so no reply_to is needed.
            self.batcher.queue_confirmation(dst_node, origin, confirmation)
            return
        opcode = Opcode.TX_CONFIRM if status == "executed" else Opcode.TX_REJECT
        self.endpoint.send(
            dst_node, origin, opcode, {"confirmation": confirmation.to_wire()}, reply_nonce
        )

    def _accept_confirmations(
        self, src_node: str, envelope: Envelope, batch: ConfirmationBatch
    ) -> None:
        """Route the confirmations of a ``TX_CONFIRM`` / ``TX_REJECT`` / ``TX_CONFIRM_BATCH``.

        Every confirmation is a statement its cell signed on its own (it
        must later be embeddable in an aggregated receipt), so each is
        verified and must come from the cell that sent the envelope.
        """
        for confirmation in batch.confirmations:
            if confirmation.cell != envelope.sender or not confirmation.verify():
                self._refuse_unauthenticated(src_node, envelope)
                continue
            pending = self._pending.get(confirmation.tx_id)
            if pending is not None:
                pending.add(confirmation)

    # ------------------------------------------------------------------
    # Local execution (shared by service and forwarded paths)
    # ------------------------------------------------------------------
    def _execute_entry(self, entry: LedgerEntry) -> Generator[Event, Any, ExecutionOutcome]:
        # The transaction holds an execution lane for its whole invocation;
        # the gate guarantees no conflicting transaction is in flight with it.
        yield self.lanes.acquire(entry)
        journal = None
        try:
            yield self.env.timeout(self.service_model.invoke_overhead.sample(self.rng))
            yield from self.cpu.use(self.service_model.invoke_cpu)
            outcome = self.executor.execute_safely(entry)
            journal = outcome.journal
        finally:
            self.lanes.release(entry, journal)
        if self.fault.tamper_state and outcome.ok:
            # A compromised cell silently corrupts its contract data; its
            # fingerprints now diverge from the honest cells.
            contract = self.contracts.get(outcome.contract)
            contract.store.put("__tampered__", self.env.now)
            self.fault.record("tamper_state", contract=outcome.contract)
            outcome = dataclasses.replace(outcome, fingerprint=contract.fingerprint())
        if outcome.ok:
            self.ledger.mark_executed(
                outcome.tx_id, outcome.contract, outcome.result, outcome.fingerprint
            )
            self.metrics.increment(f"{self.node_name}/transactions_executed")
        else:
            self.ledger.mark_rejected(outcome.tx_id, outcome.contract, outcome.error or "")
            self.metrics.increment(f"{self.node_name}/transactions_rejected")
        return outcome

    # ------------------------------------------------------------------
    # Subscriptions, queries, liveness
    # ------------------------------------------------------------------
    def _serve_subscription(
        self, src_node: str, envelope: Envelope, request: requests.SubscriptionRequest
    ) -> None:
        subscription = self.subscriptions.subscribe(envelope.sender, self.env.now)
        ack = SubscriptionAck(
            self.address, subscription.opened_at, subscription.policy.price_per_mbyte
        )
        self._reply(src_node, envelope, Opcode.SUBSCRIBE_ACK, ack.to_data())

    def _serve_query(self, src_node: str, envelope: Envelope, query: requests.StateQuery) -> None:
        try:
            result = self.executor.query(query.contract, query.view, query.args)
            self._reply(src_node, envelope, Opcode.QUERY_RESULT, QueryResult(result).to_data())
        except Exception as exc:  # noqa: BLE001 - report query errors to the client
            self._refuse(src_node, envelope, str(exc))

    def _serve_ping(self, src_node: str, envelope: Envelope, body: None) -> None:
        self._reply(src_node, envelope, Opcode.PONG, requests.Pong(self.node_name).to_data())

    # ------------------------------------------------------------------
    # Auditor interface
    # ------------------------------------------------------------------
    def _serve_snapshot_request(
        self, src_node: str, envelope: Envelope, request: requests.SnapshotRequest
    ) -> None:
        cycle = request.cycle if request.cycle is not None else self.snapshots.latest_cycle
        if cycle is None or not self.snapshots.has(cycle):
            self._refuse(src_node, envelope, f"no snapshot for cycle {cycle}")
            return
        response = SnapshotResponse(self.snapshots.get(cycle))
        self._reply(src_node, envelope, Opcode.SNAPSHOT_RESPONSE, response.to_data())

    def _serve_ledger_request(
        self, src_node: str, envelope: Envelope, request: requests.LedgerRequest
    ) -> None:
        first, last = request.first_cycle, request.last_cycle
        response = LedgerResponse(first, last, tuple(self.ledger.segment(first, last)))
        self._reply(src_node, envelope, Opcode.LEDGER_RESPONSE, response.to_data())

    # ------------------------------------------------------------------
    # Resync donor interface (crash recovery, Section V)
    # ------------------------------------------------------------------
    def _serve_sync(self, src_node: str, envelope: Envelope, request: SyncRequest) -> None:
        """Serve a recovering peer the snapshot + ledger tail it is missing.

        Any consortium cell may ask — including one this cell currently
        holds excluded, since the whole point of the request is to get back
        into the quorum.
        """
        snapshot_wire = None
        start = request.since_sequence
        if request.delta_only:
            # Rejoin retries and the post-readmit backfill already carry
            # the snapshot from their first sync: ship only the entries
            # past the requester's head, so repeated catch-up rounds cost
            # bytes proportional to the gap, not to the state size.
            pass
        elif self.snapshots.latest_cycle is not None:
            latest = self.snapshots.latest()
            snapshot_wire = latest.to_wire(include_state=True)
            # If the snapshot predates what the requester already has, the
            # requester will roll back to the snapshot boundary — ship the
            # whole post-snapshot tail so it can re-execute forward again.
            start = min(start, latest.last_sequence + 1)
        bundle = SyncState(
            donor=self.address,
            snapshot=snapshot_wire,
            entries=tuple(self.ledger.sync_segment(start)),
            excluded=tuple(
                address.hex() for address in self.consensus.excluded_cells()
            ),
            head=len(self.ledger),
        )
        self.metrics.increment(f"{self.node_name}/syncs_served")
        self._reply(src_node, envelope, Opcode.CELL_SYNC_STATE, bundle.to_data())

    # ------------------------------------------------------------------
    # Report-cycle lifecycle (Fig. 6)
    # ------------------------------------------------------------------
    def _lifecycle(self) -> Generator[Event, Any, None]:
        while True:
            next_deadline = self.consensus.next_deadline(self.env.now)
            yield self.env.timeout(max(0.0, next_deadline - self.env.now))
            if self.fault.crashed or self.recovering:
                continue
            completed_cycle = self.consensus.cycle_of(self.env.now) - 1
            if completed_cycle < 0:
                continue
            yield from self._report_stage(completed_cycle)

    def _report_stage(self, completed_cycle: int) -> Generator[Event, Any, None]:
        # Enter the report stage: new executions queue until the snapshot
        # fingerprint is taken (Section III-D2).
        self.in_report_stage = True
        yield self.env.timeout(self.service_model.auth_overhead.sample(self.rng))
        entries = [entry for entry in self.ledger if entry.cycle <= completed_cycle]
        first_sequence = min((entry.sequence for entry in entries), default=0)
        last_sequence = max((entry.sequence for entry in entries), default=-1)
        snapshot = self.snapshots.take_snapshot(
            cycle=completed_cycle,
            timestamp=self.env.now,
            first_sequence=first_sequence,
            last_sequence=last_sequence,
        )
        # Execution resumes as soon as the fingerprint exists; the on-chain
        # submission continues in the background.
        self.in_report_stage = False
        resume, self._stage_resume = self._stage_resume, self.env.event()
        if not resume.triggered:
            resume.succeed()
        self.metrics.increment(f"{self.node_name}/snapshots_taken")

        if self.auto_report and self.eth is not None and self.registry_contract is not None:
            fingerprint_hex = snapshot.fingerprint_hex()
            if self.fault.tamper_fingerprint:
                fingerprint_hex = "0x" + bytes(32).hex()
                self.fault.record("tamper_fingerprint", cycle=completed_cycle)
            elif self.fault.equivocate:
                # The cell *anchors* one signed fingerprint while serving
                # auditors the honest snapshot behind another — the same
                # logical report, two payloads, both apparently valid.
                fingerprint_hex = _flip_fingerprint(fingerprint_hex)
                self.fault.record("equivocate", channel="anchor", cycle=completed_cycle)
            # The on-chain submission runs in the background: execution has
            # already resumed, and waiting for block inclusion here would
            # make the cell miss the next report deadline on slow chains.
            self.env.process(self._submit_report(completed_cycle, fingerprint_hex))

        # Execute contingency transactions submitted directly on-chain.
        yield from self._execute_contingencies()

    def _submit_report(self, cycle: int, fingerprint_hex: str) -> Generator[Event, Any, None]:
        receipt_event = self.eth.transact_and_wait(
            self.eth_key,
            self.registry_contract.address,
            "report",
            {"cycle": cycle, "fingerprint": fingerprint_hex},
        )
        receipt = yield receipt_event
        self._reports_submitted.append(
            {
                "cycle": cycle,
                "fingerprint": fingerprint_hex,
                "tx_hash": receipt.tx_hash,
                "gas_used": receipt.gas_used,
                "success": receipt.success,
                "reported_at": self.env.now,
            }
        )
        self.metrics.increment(f"{self.node_name}/reports_submitted")
        self.metrics.series(f"{self.node_name}/report_gas").add(receipt.gas_used)

    def _execute_contingencies(self) -> Generator[Event, Any, None]:
        if self.eth is None or self.registry_contract is None:
            return
        contingencies = self.eth.call(self.registry_contract.address, "all_contingencies")
        for wire in contingencies[self._contingencies_executed:]:
            try:
                envelope = Envelope.from_wire(wire)
            except Exception:  # noqa: BLE001 - a malformed contingency is skipped
                self._contingencies_executed += 1
                continue
            self._contingencies_executed += 1
            if not envelope.verify():
                continue
            tx_id = envelope.payload.hash_hex()
            if self.ledger.contains(tx_id):
                continue
            yield self.ledger.mutex.request()
            try:
                cycle = self.consensus.cycle_of(self.env.now)
                entry = self.ledger.admit(envelope, cycle, contingency=True)
            except LedgerError:
                continue
            finally:
                self.ledger.mutex.release()
            yield from self._execute_entry(entry)
            self.metrics.increment(f"{self.node_name}/contingencies_executed")

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
        return list(self._reports_submitted)

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
            "reports_submitted": len(self._reports_submitted),
            "contingencies_executed": self._contingencies_executed,
            "cpu_utilization": self.cpu.utilization(),
            "subscriber_count": len(self.subscriptions.subscribers()),
            "batching": self.batcher.statistics() if self.batcher is not None else None,
            "lanes": self.lanes.statistics(),
            "admission": {
                "max_inflight": self.max_inflight,
                "inflight": self._inflight,
                "peak_inflight": self._inflight_peak,
                "shed": self._shed_count,
                "shed_recovering": self._shed_recovering,
            },
            "shard_group": self.shard_group,
            "xshard_transactions": (
                self.gateway.transaction_count if self.gateway is not None else 0
            ),
            "recovering": self.recovering,
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
