"""Deployment orchestration: build a whole Blockumulus system in one call.

A :class:`BlockumulusDeployment` wires together everything the evaluation
needs — the simulation environment, the network fabric, the simulated
Ethereum node with the :class:`SnapshotRegistry` anchor contract, M cells
with their system bContracts and the default community bContracts, and the
metrics registry — mirroring the paper's test setup of Section VI-B.

A deployment is one cell group.  The clock, network, metrics and Ethereum
node it runs on are one :class:`Infrastructure` value, built by
:func:`build_infrastructure`: a plain deployment builds its own, and a
:class:`~repro.core.sharding.ShardedDeployment` builds one and places each
of its groups on it, so cross-group protocols and global throughput
measurements share one clock, one fabric and one anchor chain.  Both go
through the one group builder, :meth:`BlockumulusDeployment._build`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from ..contracts.community import default_community_contracts
from ..crypto.keys import Address, PrivateKey
from ..ethchain.chain import Blockchain, ChainConfig
from ..ethchain.contracts.snapshot_registry import SnapshotRegistry
from ..ethchain.gas import FeeSchedule
from ..ethchain.node import EthereumNode
from ..ethchain.provider import Web3Provider
from ..messages.signer import (
    EcdsaSigner,
    Signer,
    SimulatedSigner,
    consortium_keys,
    register_consortium_keys,
)
from ..sim.environment import Environment
from ..sim.events import Process
from ..sim.metrics import MetricsRegistry
from ..sim.network import Network
from ..sim.rng import SeedSequence
from .cell import BlockumulusCell
from .config import ConfigError, DeploymentConfig, SystemInvariants

if TYPE_CHECKING:
    from .sharding import ShardedDeployment

#: Funding given to each cell's Ethereum account (wei) to pay report fees.
CELL_ETH_FUNDING_WEI = 1_000 * 10 ** 18


class Infrastructure(NamedTuple):
    """What every cell group of one simulation shares."""

    env: Environment
    network: Network
    metrics: MetricsRegistry
    eth_node: EthereumNode


def build_infrastructure(config: DeploymentConfig, seeds: SeedSequence) -> Infrastructure:
    """The clock, network fabric, metrics and Ethereum node of ``config``."""
    env = Environment()
    chain_config = ChainConfig(
        target_block_interval=config.eth_block_interval, fee_schedule=FeeSchedule()
    )
    return Infrastructure(
        env=env,
        network=Network(env, seeds.stream("network"), default_latency=config.client_cell_latency),
        metrics=MetricsRegistry(),
        eth_node=EthereumNode(env, seeds.stream("ethereum"), config=chain_config),
    )


class BlockumulusDeployment:
    """A fully wired Blockumulus consortium: one cell group.

    Construction is eager and synchronous: when ``__init__`` returns, the
    cells exist, are registered on the network, hold their system and
    default community bContracts, and the non-standby cells' report-cycle
    lifecycles are started.  Nothing has *executed* yet — drive the
    simulation with :meth:`run` / :meth:`run_cycles`.

    ``config`` holds the operational knobs (consortium size, latency and
    service models, batching/lanes, standby provisioning, …) and defaults to
    ``DeploymentConfig()``.  A plain deployment is one group, so a
    ``shard_count`` other than 1 is refused: several groups are a
    :class:`~repro.core.sharding.ShardedDeployment`.
    """

    def __init__(self, config: Optional[DeploymentConfig] = None) -> None:
        config = config or DeploymentConfig()
        if config.shard_count != 1:
            raise ConfigError(
                f"a BlockumulusDeployment is one cell group, not shard_count="
                f"{config.shard_count}; build several with ShardedDeployment"
            )
        self._build(config, build_infrastructure(config, SeedSequence(config.seed)))

    @classmethod
    def _group(
        cls, config: DeploymentConfig, infrastructure: Infrastructure, index: int
    ) -> "BlockumulusDeployment":
        """Group ``index`` of a :class:`~repro.core.sharding.ShardedDeployment`."""
        deployment = cls.__new__(cls)
        deployment._build(config, infrastructure, group=index)
        return deployment

    def _build(
        self, config: DeploymentConfig, infrastructure: Infrastructure, group: Optional[int] = None
    ) -> None:
        """Build one cell group on ``infrastructure`` (the one group builder).

        A deployment built alone (``group`` None) is group 0 and deploys the
        default community contracts itself.  Group ``g`` of a sharded
        deployment leaves them to the shard map and runs on ``seed + g``;
        when there are several groups it is told apart by a ``/g<g>``
        deployment-id suffix and a ``g<g>/`` node-name prefix, while a
        single group keeps the configured id and the historical
        ``cell-<i>`` names — it is the plain deployment, bit for bit.
        """
        node_prefix = ""
        if group is not None:
            deployment_id = config.deployment_id
            if config.shard_count > 1:
                deployment_id, node_prefix = f"{deployment_id}/g{group}", f"g{group}/"
            config = replace(config, deployment_id=deployment_id, seed=config.seed + group)
        self.index = group or 0
        self.config = config
        self.seeds = SeedSequence(config.seed)
        self.infrastructure = infrastructure
        self.env, self.network, self.metrics, self.eth_node = infrastructure

        # --- Simulated public Ethereum chain with the anchor contract -----
        # A shared chain hosts one SnapshotRegistry per deployment: the
        # registry address is derived from the deployment id, so groups of
        # a sharded deployment anchor into disjoint contracts.
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
        #: What a client holds of each cell besides its address: its
        #: public key (ECDSA cells), to check a receipt's co-signatures by.
        self.cell_keys = consortium_keys(self.cell_signers)
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
                node_name=f"{node_prefix}cell-{index}",
                signer=self.cell_signers[index],
                eth_key=self.cell_eth_keys[index],
                invariants=self.invariants,
                network=self.network,
                rng=self.seeds.stream(f"cell-{index}"),
                metrics=self.metrics,
                eth_provider=self.eth,
                registry_contract=self.registry_contract,
                config=self.config,
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

        if group is None:
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
