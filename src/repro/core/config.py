"""System invariants and deployment configuration.

Section III-C4: some parameters of a Blockumulus deployment are fixed for
its whole lifetime — the *system invariants*: the deployment id, the
identities (addresses) of the consortium cells, the report period λ, and
the initial timestamp t0.  Everything else (latency models, service-time
profiles, fault injection, subscription policy) is an operational knob of
this reproduction and lives in :class:`DeploymentConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto.keys import Address
from ..sim.latency import (
    CellServiceModel,
    LatencyModel,
    azure_b1ms_service_model,
    wan_cell_to_cell,
    wan_client_to_cell,
)


class ConfigError(ValueError):
    """Raised for inconsistent deployment parameters."""


@dataclass(frozen=True)
class SystemInvariants:
    """Parameters fixed at deployment time (Section III-C4)."""

    deployment_id: str
    cell_addresses: tuple[Address, ...]
    report_period: float            # λ, seconds
    initial_timestamp: float        # t0, seconds
    #: Maximum forwarding+response delay δ before a transaction reverts.
    forwarding_deadline: float = 10.0
    #: Consecutive missed deadlines before a cell is temporarily excluded.
    miss_threshold: int = 5
    #: How long an exclusion-vote liveness probe (PING) waits for a PONG.
    probe_deadline: float = 2.0

    def __post_init__(self) -> None:
        if not self.deployment_id:
            raise ConfigError("deployment_id must be non-empty")
        if len(self.cell_addresses) < 1:
            raise ConfigError("a deployment needs at least one cell")
        if len(set(self.cell_addresses)) != len(self.cell_addresses):
            raise ConfigError("cell addresses must be unique")
        if self.report_period <= 0:
            raise ConfigError("the report period λ must be positive")
        if self.initial_timestamp < 0:
            raise ConfigError("the initial timestamp t0 cannot be negative")
        if self.forwarding_deadline <= 0:
            raise ConfigError("the forwarding deadline δ must be positive")
        if self.miss_threshold < 1:
            raise ConfigError("the miss threshold must be at least 1")
        if self.probe_deadline <= 0:
            raise ConfigError("the probe deadline must be positive")

    @property
    def consortium_size(self) -> int:
        """Number of cells M in the consortium."""
        return len(self.cell_addresses)

    def is_cell(self, address: Address) -> bool:
        """Whether ``address`` belongs to the consortium."""
        return address in self.cell_addresses


@dataclass
class DeploymentConfig:
    """Operational configuration of a simulated Blockumulus deployment."""

    #: Number of cells M (2, 4, and 8 in the paper's evaluation).
    consortium_size: int = 2
    #: Report period λ in seconds (paper's Table III sweeps 10 min – 24 h).
    report_period: float = 600.0
    #: Forwarding deadline δ.
    forwarding_deadline: float = 10.0
    #: Missed-deadline threshold for temporary cell exclusion.
    miss_threshold: int = 5
    #: Exclusion-vote liveness-probe timeout (seconds).
    probe_deadline: float = 2.0
    #: Standby cells provisioned in the system invariants but booted into
    #: the excluded state: they hold no data and receive no traffic until
    #: :meth:`BlockumulusDeployment.activate_standby` bootstraps them from
    #: a live donor and they pass the rejoin quorum (dynamic membership).
    standby_cells: int = 0
    #: Deployment identifier.
    deployment_id: str = "blockumulus-sim"
    #: Random seed for the whole experiment.
    seed: int = 2021
    #: Latency model between clients and cells (one way).
    client_cell_latency: LatencyModel = field(default_factory=wan_client_to_cell)
    #: Latency model between cells (one way).
    cell_cell_latency: LatencyModel = field(default_factory=wan_cell_to_cell)
    #: Cell processing profile.
    service_model: CellServiceModel = field(default_factory=azure_b1ms_service_model)
    #: Signature scheme for protocol messages: "ecdsa" (real) or "sim" (fast).
    signature_scheme: str = "ecdsa"
    #: Whether cells require an access subscription before serving a client.
    enforce_subscriptions: bool = False
    #: Price (arbitrary currency units) per megabyte of client traffic.
    price_per_mbyte: float = 0.05
    #: How many past snapshots each cell keeps for auditors (paper: 3 total).
    snapshots_retained: int = 3
    #: Whether cells automatically submit snapshot reports to Ethereum.
    auto_report: bool = True
    #: Ethereum target block interval in seconds (Ropsten-like).
    eth_block_interval: float = 13.0
    #: Deploy the standard community contracts (FastMoney etc.) at boot.
    deploy_default_contracts: bool = True
    #: Coalesce inter-cell forwards/confirmations into per-destination batch
    #: envelopes, flushed at most once per scheduling quantum.  Disable for
    #: the per-transaction ablation that reproduces the paper's Table II counts.
    message_batching: bool = True
    #: Scheduling quantum (seconds): the least time between two batch
    #: flushes to one destination, and the longest an item waits for one.
    #: A rate bound, not a delay: an item queued at a destination idle for
    #: a quantum is flushed in the instant it was queued.
    batch_quantum: float = 0.02
    #: Conflict-aware parallel execution lanes per cell.  ``1`` (default)
    #: keeps today's serial schedule; ``N > 1`` lets up to N transactions
    #: with non-conflicting access footprints execute concurrently; ledgers,
    #: receipts, and fingerprints are identical to the serial run, and at
    #: every lane count queued transactions start in one replica-independent
    #: rank order (``repro.core.lanes``).
    execution_lanes: int = 1
    #: Number of independent cell groups (shards) the contract-state
    #: namespace is partitioned across (``repro.core.sharding``).  ``1``
    #: (default) is today's unsharded pipeline, bit-for-bit; ``N > 1``
    #: makes :class:`~repro.core.sharding.ShardedDeployment` build N
    #: consortium groups of ``consortium_size`` cells each, sharing one
    #: simulation environment, network fabric, and anchor chain.  A plain
    #: :class:`~repro.core.deployment.BlockumulusDeployment` ignores the
    #: knob (it always builds exactly one group).
    shard_count: int = 1
    #: Prefix for this deployment's network node names (e.g. ``"g1/"``).
    #: A sharded deployment gives each cell group its own namespace so the
    #: groups can share one network fabric without name collisions; the
    #: empty default keeps the historical ``cell-<i>`` names.
    node_namespace: str = ""
    #: Per-cell admission limit: the maximum number of client transactions
    #: a cell services concurrently (``TX_SUBMIT`` / ``DEPLOY_CONTRACT``
    #: plus new cross-shard prepares).  ``None`` (default) keeps today's
    #: unbounded behaviour bit-for-bit; with a bound, arrivals above it
    #: are *shed* deterministically — rejected before ledger admission
    #: with a client-visible ``OVERLOADED`` error — so sustained overload
    #: degrades gracefully instead of growing queues without bound.
    max_inflight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.consortium_size < 1:
            raise ConfigError("consortium_size must be at least 1")
        if self.signature_scheme not in ("ecdsa", "sim"):
            raise ConfigError("signature_scheme must be 'ecdsa' or 'sim'")
        if self.report_period <= 0:
            raise ConfigError("report_period must be positive")
        if self.snapshots_retained < 2:
            raise ConfigError("at least two snapshots must be retained for auditing")
        if self.batch_quantum < 0:
            raise ConfigError("batch_quantum cannot be negative")
        if self.standby_cells < 0:
            raise ConfigError("standby_cells cannot be negative")
        if self.probe_deadline <= 0:
            raise ConfigError("probe_deadline must be positive")
        if self.execution_lanes < 1:
            raise ConfigError("execution_lanes must be at least 1")
        if self.shard_count < 1:
            raise ConfigError("shard_count must be at least 1")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigError("max_inflight must be at least 1 (or None for unbounded)")

    def cell_name(self, index: int) -> str:
        """Canonical node name of cell ``index`` (namespaced per group)."""
        return f"{self.node_namespace}cell-{index}"

    def make_invariants(self, cell_addresses: list[Address], t0: float) -> SystemInvariants:
        """Freeze the system invariants once cell identities are known."""
        return SystemInvariants(
            deployment_id=self.deployment_id,
            cell_addresses=tuple(cell_addresses),
            report_period=self.report_period,
            initial_timestamp=t0,
            forwarding_deadline=self.forwarding_deadline,
            miss_threshold=self.miss_threshold,
            probe_deadline=self.probe_deadline,
        )
