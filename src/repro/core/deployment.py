"""Deployment orchestration: build a whole Blockumulus system in one call.

A :class:`BlockumulusDeployment` wires together everything the evaluation
needs — the simulation environment, the network fabric, the simulated
Ethereum node with the :class:`SnapshotRegistry` anchor contract, M cells
with their system bContracts and the default community bContracts, and the
metrics registry — mirroring the paper's test setup of Section VI-B.

A deployment normally owns all of that infrastructure.  It can also be
built *inside* shared infrastructure by passing pre-existing ``env`` /
``network`` / ``metrics`` / ``eth_node`` objects: this is how
:class:`~repro.core.sharding.ShardedDeployment` places several independent
cell groups (one deployment each, namespaced through
:attr:`DeploymentConfig.node_namespace`) on one simulation clock, one
network fabric, and one anchor chain, so cross-group protocols and global
throughput measurements are meaningful.  When nothing is passed, behaviour
is exactly the historical single-group deployment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..contracts.community import default_community_contracts
from ..crypto.keys import Address, PrivateKey
from ..ethchain.chain import Blockchain, ChainConfig
from ..ethchain.contracts.snapshot_registry import SnapshotRegistry
from ..ethchain.gas import FeeSchedule
from ..ethchain.node import EthereumNode
from ..ethchain.provider import Web3Provider
from ..messages.signer import EcdsaSigner, Signer, SimulatedSigner, register_consortium_keys
from ..sim.environment import Environment
from ..sim.events import Process
from ..sim.metrics import MetricsRegistry
from ..sim.network import Network
from ..sim.rng import SeedSequence
from .cell import BlockumulusCell
from .config import DeploymentConfig, SystemInvariants
from .subscription import PricingPolicy

if TYPE_CHECKING:
    from .sharding import ShardedDeployment

#: Funding given to each cell's Ethereum account (wei) to pay report fees.
CELL_ETH_FUNDING_WEI = 1_000 * 10 ** 18


class BlockumulusDeployment:
    """A fully wired Blockumulus system inside one simulation environment.

    Construction is eager and synchronous: when ``__init__`` returns, the
    cells exist, are registered on the network, hold their system and
    (optionally) default community bContracts, and the non-standby cells'
    report-cycle lifecycles are started.  Nothing has *executed* yet —
    drive the simulation with :meth:`run` / :meth:`run_cycles`.

    Parameters
    ----------
    config:
        Operational knobs (consortium size, latency and service models,
        batching/lanes, standby provisioning, …).  Defaults to
        ``DeploymentConfig()``.
    env, network, metrics, eth_node:
        Optional shared infrastructure.  Any of them may be passed
        individually; whatever is omitted is created privately, exactly
        as before these parameters existed.  Callers that share a network
        across deployments must give each deployment a distinct
        ``config.node_namespace`` so cell node names cannot collide, and
        a distinct ``config.deployment_id`` so cell identities and the
        anchor-registry address differ.
    """

    def __init__(
        self,
        config: Optional[DeploymentConfig] = None,
        *,
        env: Optional[Environment] = None,
        network: Optional[Network] = None,
        metrics: Optional[MetricsRegistry] = None,
        eth_node: Optional[EthereumNode] = None,
    ) -> None:
        self.config = config or DeploymentConfig()
        self.seeds = SeedSequence(self.config.seed)
        self.env = env if env is not None else Environment()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.network = network if network is not None else self.build_network(
            self.env, self.seeds, self.config
        )

        # --- Simulated public Ethereum chain with the anchor contract -----
        # A shared chain hosts one SnapshotRegistry per deployment: the
        # registry address is derived from the deployment id, so groups of
        # a sharded deployment anchor into disjoint contracts.
        self.eth_node = eth_node if eth_node is not None else self.build_eth_node(
            self.env, self.seeds, self.config
        )
        self.eth = Web3Provider(self.eth_node)

        # --- Cell identities ----------------------------------------------
        # Standby cells are full consortium members in the (immutable)
        # system invariants, but boot excluded and offline; they join the
        # quorum later through the recovery bootstrap (dynamic membership).
        total_cells = self.config.consortium_size + self.config.standby_cells
        self.cell_signers: list[Signer] = [
            self._make_signer(f"{self.config.deployment_id}/cell-{index}")
            for index in range(total_cells)
        ]
        # Peers are known in advance: their signatures are checked against
        # their keys, which deriving the addresses below has just computed.
        register_consortium_keys(self.cell_signers)
        self.cell_eth_keys: list[PrivateKey] = [
            PrivateKey.from_seed(f"{self.config.deployment_id}/cell-eth-{index}")
            for index in range(total_cells)
        ]
        for key in self.cell_eth_keys:
            self.eth_node.chain.fund(key.address, CELL_ETH_FUNDING_WEI)

        self.invariants: SystemInvariants = self.config.make_invariants(
            [signer.address for signer in self.cell_signers], t0=self.env.now
        )

        registry_address = Blockchain.contract_address_for(
            self.cell_eth_keys[0].address, self.config.deployment_id
        )
        self.registry_contract = SnapshotRegistry(
            address=registry_address,
            deployment_id=self.config.deployment_id,
            cells=[key.address for key in self.cell_eth_keys],
            report_period=int(self.config.report_period),
            initial_timestamp=int(self.invariants.initial_timestamp),
        )
        self.eth_node.chain.deploy_contract(self.registry_contract)

        # --- Cells ----------------------------------------------------------
        self.cells: list[BlockumulusCell] = []
        self.standby_indices: list[int] = list(range(self.config.consortium_size, total_cells))
        for index in range(total_cells):
            cell = BlockumulusCell(
                env=self.env,
                index=index,
                node_name=self.config.cell_name(index),
                signer=self.cell_signers[index],
                eth_key=self.cell_eth_keys[index],
                invariants=self.invariants,
                network=self.network,
                rng=self.seeds.stream(f"cell-{index}"),
                service_model=self.config.service_model,
                metrics=self.metrics,
                eth_provider=self.eth,
                registry_contract=self.registry_contract,
                pricing=PricingPolicy(price_per_mbyte=self.config.price_per_mbyte),
                enforce_subscriptions=self.config.enforce_subscriptions,
                auto_report=self.config.auto_report,
                snapshots_retained=self.config.snapshots_retained,
                batch_quantum=(
                    self.config.batch_quantum if self.config.message_batching else None
                ),
                execution_lanes=self.config.execution_lanes,
                max_inflight=self.config.max_inflight,
            )
            self.cells.append(cell)

        # Cell-to-cell links use the intra-consortium latency model.
        peer_map = {cell.address: cell.node_name for cell in self.cells}
        for cell in self.cells:
            cell.set_peers(peer_map)
            for other in self.cells:
                if other is not cell:
                    self.network.set_link(
                        cell.node_name, other.node_name, self.config.cell_cell_latency
                    )

        if self.config.deploy_default_contracts:
            self.deploy_community_contract_instances(default_community_contracts())

        # Standby cells boot excluded in every cell's membership view (their
        # own view of other standbys included) and stay offline — they are
        # indistinguishable from crashed-and-excluded members until
        # :meth:`activate_standby` bootstraps them.
        standby_addresses = {self.cells[i].address for i in self.standby_indices}
        for cell in self.cells:
            for address in standby_addresses:
                if address != cell.address:
                    cell.consensus.exclude(address, cycle=0)
        self._started: set[int] = set()
        for index in self.standby_indices:
            self.cells[index].crash()
        for index, cell in enumerate(self.cells):
            if index not in self.standby_indices:
                cell.start()
                self._started.add(index)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def build_network(env: Environment, seeds: SeedSequence, config: DeploymentConfig) -> Network:
        """The canonical network fabric for one configuration.

        Shared single point of truth between a private deployment and a
        :class:`~repro.core.sharding.ShardedDeployment` building the
        fabric its groups will share — the wiring cannot drift apart.
        """
        return Network(
            env, seeds.stream("network"), default_latency=config.client_cell_latency
        )

    @staticmethod
    def build_eth_node(
        env: Environment, seeds: SeedSequence, config: DeploymentConfig
    ) -> EthereumNode:
        """The canonical simulated Ethereum node for one configuration."""
        chain_config = ChainConfig(
            target_block_interval=config.eth_block_interval,
            fee_schedule=FeeSchedule(),
        )
        return EthereumNode(env, seeds.stream("ethereum"), config=chain_config)

    def _make_signer(self, seed: str) -> Signer:
        if self.config.signature_scheme == "sim":
            return SimulatedSigner(seed)
        return EcdsaSigner.from_seed(seed)

    def make_client_signer(self, seed: str) -> Signer:
        """Create a client signer using the deployment's signature scheme."""
        return self._make_signer(seed)

    def deploy_community_contract_instances(self, prototype_list: list[Any]) -> None:
        """Deploy identical bContract instances on every cell.

        One independent instance per cell is created from each prototype's
        class and constructor arguments, so cells never share mutable state
        (they only stay in sync by executing the same transactions).
        """
        for prototype in prototype_list:
            for cell in self.cells:
                clone = type(prototype)(
                    name=prototype.name, owner=prototype.owner, params=dict(prototype.params)
                )
                cell.deploy_contract(clone)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def consortium_size(self) -> int:
        """Number of cells M."""
        return len(self.cells)

    def cell(self, index: int) -> BlockumulusCell:
        """Cell by index."""
        return self.cells[index]

    def as_sharded(self) -> "ShardedDeployment":
        """This consortium as a one-group :class:`ShardedDeployment` view.

        Workloads, pools and oracles are written once, against the sharded
        front door; they call this on whatever deployment they are given
        (a ``ShardedDeployment`` answers with itself).  A fresh view is
        taken each time — see :meth:`ShardedDeployment.over`.
        """
        from .sharding import ShardedDeployment  # sharding builds on this module

        return ShardedDeployment.over(self)

    def cell_by_address(self, address: Address) -> BlockumulusCell:
        """Cell by consortium address."""
        for cell in self.cells:
            if cell.address == address:
                return cell
        raise KeyError(f"no cell with address {address.hex()}")

    # ------------------------------------------------------------------
    # Dynamic membership (crash, exclusion, recovery, standby activation)
    # ------------------------------------------------------------------
    def crash_cell(self, index: int) -> None:
        """Crash a cell: it stops answering and drops all in-flight work."""
        self.cells[index].crash()

    def exclude_cell(self, index: int, cycle: int | None = None) -> None:
        """Exclude a cell from every peer's quorum view administratively.

        This is the scripted "mutual agreement" exclusion of the paper's
        Section V (as opposed to the organic path, where missed deadlines
        trigger a consortium-wide probe-and-vote).  Traffic keeps flowing:
        service cells simply stop forwarding to the excluded member.
        """
        subject = self.cells[index]
        for cell in self.cells:
            if cell is subject:
                continue
            at_cycle = cycle if cycle is not None else cell.consensus.cycle_of(self.env.now)
            cell.consensus.exclude(subject.address, at_cycle)

    def restore_cell(self, index: int) -> None:
        """Bring a crashed cell's process and network endpoint back up."""
        cell = self.cells[index]
        cell.fault.crashed = False
        self.network.set_online(cell.node_name, True)

    def _pick_donor(self, index: int) -> BlockumulusCell:
        """First live cell other than ``index`` (the resync donor)."""
        for donor_index, donor in enumerate(self.cells):
            if donor_index == index or donor.fault.crashed:
                continue
            if not self.network.is_online(donor.node_name):
                continue
            return donor
        raise ValueError("no live donor cell available for recovery")

    def recover_cell(self, index: int, donor_index: int | None = None) -> Process:
        """Restart a crashed cell and run the full resync + rejoin flow.

        Returns the recovery :class:`~repro.sim.events.Process`; run the
        environment until it completes and read its ``value`` for the
        :class:`~repro.core.recovery.RecoveryResult`.
        """
        cell = self.cells[index]
        self.restore_cell(index)
        donor = self.cells[donor_index] if donor_index is not None else self._pick_donor(index)
        return self.env.process(cell.recovery.resync(donor.address, donor.node_name))

    def activate_standby(self, index: int, donor_index: int | None = None) -> Process:
        """Boot a standby cell into the quorum by bootstrapping from a donor.

        The standby downloads the donor's latest snapshot and full ledger,
        replays it, and goes through the same rejoin handshake as a
        recovered crashed cell.  Returns the recovery process.
        """
        if index not in self.standby_indices:
            raise ValueError(f"cell {index} is not a standby cell")
        if index not in self._started:
            self.cells[index].start()
            self._started.add(index)
        return self.recover_cell(index, donor_index=donor_index)

    def run(self, until: float | None = None) -> None:
        """Advance the simulation (wrapper around ``Environment.run``)."""
        self.env.run(until=until)

    def run_cycles(self, cycles: int) -> None:
        """Run the simulation for an integer number of report cycles."""
        target = self.env.now + cycles * self.config.report_period + 1.0
        self.env.run(until=target)

    def anchored_report(self, cycle: int, cell_index: int) -> Optional[bytes]:
        """The fingerprint cell ``cell_index`` anchored for ``cycle`` (or None)."""
        return self.registry_contract.get_report(
            self.eth_node.chain.state, cycle, self.cell_eth_keys[cell_index].address
        )

    def statistics(self) -> dict[str, Any]:
        """Aggregated deployment statistics."""
        return {
            "consortium_size": self.consortium_size,
            "invariants": {
                "deployment_id": self.invariants.deployment_id,
                "report_period": self.invariants.report_period,
                "forwarding_deadline": self.invariants.forwarding_deadline,
            },
            "eth_height": self.eth_node.chain.height,
            "network_bytes": self.network.total_bytes(),
            "network_messages": self.network.total_messages(),
            "cells": [cell.statistics() for cell in self.cells],
        }
