"""Blockumulus core: cells, overlay consensus, snapshots, receipts, deployment."""

from .batching import BatchDispatcher
from .cell import BlockumulusCell
from .config import ConfigError, DeploymentConfig, SystemInvariants
from .consensus import CellStanding, ConsensusError, OverlayConsensus
from .deployment import BlockumulusDeployment
from .executor import ExecutionOutcome, TransactionExecutor
from .faults import (
    FAULT_KINDS,
    FaultError,
    FaultPlan,
    FaultSchedule,
    ScheduledFault,
    censor_method,
    censor_sender,
)
from .lanes import (
    AccessFootprint,
    LaneError,
    LaneScheduler,
    lane_token,
)
from .ledger import LedgerEntry, LedgerError, TransactionLedger
from .receipts import AggregatedReceipt, Confirmation, ConfirmationBatch, ReceiptError
from .sharding import (
    ShardMap,
    ShardedDeployment,
    ShardingError,
    chain_shard_digest,
)
from .recovery import (
    MembershipManager,
    RecoveryResult,
    RecoveryStage,
)
from .snapshot import DataSnapshot, LazySnapshotExport, SnapshotEngine, SnapshotError
from .subscription import PricingPolicy, Subscription, SubscriptionError, SubscriptionManager

__all__ = [
    "AccessFootprint",
    "AggregatedReceipt",
    "BatchDispatcher",
    "BlockumulusCell",
    "BlockumulusDeployment",
    "CellStanding",
    "Confirmation",
    "ConfirmationBatch",
    "ConfigError",
    "ConsensusError",
    "DataSnapshot",
    "DeploymentConfig",
    "ExecutionOutcome",
    "FAULT_KINDS",
    "FaultError",
    "FaultPlan",
    "FaultSchedule",
    "ScheduledFault",
    "LaneError",
    "LaneScheduler",
    "LazySnapshotExport",
    "LedgerEntry",
    "LedgerError",
    "MembershipManager",
    "OverlayConsensus",
    "PricingPolicy",
    "ReceiptError",
    "RecoveryResult",
    "RecoveryStage",
    "ShardMap",
    "ShardedDeployment",
    "ShardingError",
    "SnapshotEngine",
    "SnapshotError",
    "Subscription",
    "SubscriptionError",
    "SubscriptionManager",
    "SystemInvariants",
    "TransactionExecutor",
    "TransactionLedger",
    "censor_method",
    "censor_sender",
    "chain_shard_digest",
    "lane_token",
]
