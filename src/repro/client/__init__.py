"""Client APIs, application wrappers, and workload generators."""

from .apps import BallotClient, CasClient, FastMoneyClient, deploy_contract_source
from .client import BlockumulusClient, ClientError, TransactionResult
from .sharded import (
    CrossShardResult,
    ParticipantPlan,
    ShardRoutingError,
    ShardedClient,
    ShardedFastMoneyClient,
)
from .workload import (
    CONTENDED_CONTRACT,
    DEFAULT_CLIENT_POOLS,
    MIXED_OP_KINDS,
    MixedOperation,
    MixedWorkloadReport,
    WorkloadError,
    WorkloadReport,
    build_client_pools,
    instance_names,
    plan_mixed_genesis,
    run_burst_cas_uploads,
    run_burst_transfers,
    run_contended_transfers,
    run_mixed_operations,
    run_sequential_transfers,
    run_sharded_burst_transfers,  # alias for the frozen bench/workloads.py
)

__all__ = [
    "CONTENDED_CONTRACT",
    "BallotClient",
    "BlockumulusClient",
    "CasClient",
    "ClientError",
    "CrossShardResult",
    "DEFAULT_CLIENT_POOLS",
    "FastMoneyClient",
    "MIXED_OP_KINDS",
    "MixedOperation",
    "MixedWorkloadReport",
    "ParticipantPlan",
    "ShardRoutingError",
    "ShardedClient",
    "ShardedFastMoneyClient",
    "TransactionResult",
    "WorkloadError",
    "WorkloadReport",
    "build_client_pools",
    "deploy_contract_source",
    "instance_names",
    "plan_mixed_genesis",
    "run_mixed_operations",
    "run_burst_cas_uploads",
    "run_burst_transfers",
    "run_contended_transfers",
    "run_sequential_transfers",
]
