"""The four benchmark workloads: build, drive, check, observe.

Each workload is measured from outside, through the program's public
functions.  ``build`` constructs a fresh deployment (timed as set-up),
``drive`` is the one call whose CPU time is the host-clock metric, and
``observe`` runs after the timer stopped: it applies the correctness
gate (raising :class:`BenchFailure`), reads the simulated-clock numbers
and hashes the run's artifacts into a ``sim_digest``.

Why these four, and how they are sized, is in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Optional

from repro.audit.oracles import run_conservation_oracle
from repro.client import (
    CrossShardResult,
    ShardedFastMoneyClient,
    run_burst_transfers,
    run_sharded_burst_transfers,
)
from repro.contracts.community import FastMoney
from repro.core import BlockumulusDeployment, DeploymentConfig
from repro.core.sharding import ShardedDeployment
from repro.loadgen import (
    EndurancePlan,
    collect_endurance_artifacts,
    run_endurance,
    run_endurance_conservation,
)
from repro.sim import CellServiceModel, ConstantLatency
from repro.sim.metrics import SampleSeries

#: Bump when a workload's inputs or a metric's definition change: results
#: of different schema versions are not comparable.
SCHEMA_VERSION = 1

#: Distance between the deployment seeds of one run's sub-seeds.
SUB_SEED_STRIDE = 1_000_003

#: Client pools of a ``--smoke`` burst: each is funded by one transaction
#: more, which with real signatures is most of a smoke run's cost.
SMOKE_POOLS = 2


class BenchFailure(Exception):
    """The correctness or determinism gate was violated."""


def serial_execution_service_model() -> CellServiceModel:
    """Constant service times with contract execution the serial bottleneck.

    A frozen copy of ``benchmarks/_harness.py::serial_execution_service_model``
    (~20 tx/s per group), so editing that harness cannot move this
    benchmark.
    """
    return CellServiceModel(
        invoke_overhead=ConstantLatency(0.05),
        auth_overhead=ConstantLatency(0.002),
        aggregate_overhead_per_cell=0.001,
        invoke_cpu=0.0005,
        forward_cpu_per_cell=0.0002,
        cpu_workers=8,
        max_parallel_invocations=1,
    )


CLIENT_LINK = ConstantLatency(0.01)
CELL_LINK = ConstantLatency(0.005)


def digest_of(material: Any) -> str:
    """Process-independent digest of JSON-like material."""
    encoded = json.dumps(material, sort_keys=True, default=str).encode()
    return hashlib.blake2b(encoded, digest_size=16).hexdigest()


@dataclass
class Observation:
    """What one repeat showed on the simulated clock."""

    attempted: int
    committed: int
    latencies: list[float]           # sim-s, committed transactions only
    sim_seconds: float               # first submission -> last reply
    wire_bytes: int
    sim_digest: str
    #: Per-layer values read from the program's public statistics.
    layer_stats: dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared checks and statistics
# ----------------------------------------------------------------------
def _state_fingerprints(cell: Any) -> list[tuple[str, str]]:
    return sorted(
        (name, cell.contracts.get(name).fingerprint_hex())
        for name in cell.contracts.names()
    )


def check_group_agreement(label: str, cells: Iterable[Any]) -> None:
    """Every given cell holds the same outcomes and the same final state.

    Admission *order* is left out on purpose: with more than one service
    cell, racing forwards are admitted in per-cell arrival order, so the
    order-sensitive ``sync_digest()`` differs between healthy cells.  It
    still goes into the ``sim_digest``, where it must repeat exactly.
    """
    views = {
        digest_of(
            [sorted((entry.tx_id, entry.status) for entry in cell.ledger),
             _state_fingerprints(cell)]
        )
        for cell in cells
    }
    if len(views) > 1:
        raise BenchFailure(f"{label}: cells disagree on ledger outcomes or contract state")


def _ledger_material(cells: Iterable[Any]) -> dict[str, Any]:
    return {
        cell.node_name: [cell.ledger.sync_digest(), _state_fingerprints(cell)]
        for cell in cells
    }


def _result_essence(result: Any) -> Any:
    """A client observation without its timing."""
    if result is None:
        return None
    if isinstance(result, CrossShardResult):
        return ["cross", result.xtx, result.decision, result.ok, result.in_transit, result.error]
    receipt = result.receipt
    return [
        "tx", result.tx_id, result.ok, result.error,
        None if receipt is None else [
            receipt.contract, receipt.method, receipt.fingerprint_hex,
            receipt.result, sorted(receipt.cells()),
        ],
    ]


def cell_statistics(cells: list[Any], network: Any, attempted: int) -> dict[str, float]:
    """Per-layer values every workload reads off ``cell.statistics()``."""
    nodes = [cell.node_name for cell in cells]
    stats = [cell.statistics() for cell in cells]
    batching = [block["batching"] for block in stats if block["batching"] is not None]
    lanes = [block["lanes"] for block in stats if block["lanes"] is not None]
    admission = [block["admission"] for block in stats]
    batches = sum(block["batches_sent"] for block in batching)
    coalesced = sum(block["items_coalesced"] for block in batching)
    intercell_bytes = sum(
        network.bytes_between(src, dst) for src in nodes for dst in nodes if src != dst
    )
    return {
        "sim.net_msgs_per_tx": network.total_messages() / attempted,
        "sim.intercell_msgs_per_tx": network.messages_among(nodes) / attempted,
        "sim.intercell_bytes_per_tx": intercell_bytes / attempted,
        "core.ledger.admits_per_tx": sum(block["ledger"]["total"] for block in stats) / attempted,
        "core.lanes.conflict_deferrals_per_tx":
            sum(block["conflict_deferrals"] for block in lanes) / attempted,
        "core.lanes.capacity_deferrals_per_tx":
            sum(block["capacity_deferrals"] for block in lanes) / attempted,
        "core.lanes.peak_parallel": max((block["peak_parallel"] for block in lanes), default=0),
        "core.batching.mean_batch_size": coalesced / batches if batches else 0.0,
        "core.batching.batches_per_tx": batches / attempted,
        "core.cell.peak_inflight": max(block["peak_inflight"] for block in admission),
        "core.cell.shed_per_tx":
            sum(block["shed"] + block["shed_recovering"] for block in admission) / attempted,
        "ethchain.reports_anchored": sum(block["reports_submitted"] for block in stats),
        # Filled in by the workloads that have more than one group, a
        # fault, or a load generator.
        "core.sharding.cross_tx_share": 0.0,
        "core.sharding.cross_p50_s": 0.0,
        "core.sharding.cross_over_local_p50": 0.0,
        "core.recovery.outage_sim_s": 0.0,
        "core.recovery.rounds": 0,
        "core.recovery.readmitted": 0,
        "core.recovery.replayed_entries": 0,
        "core.recovery.wire_bytes": 0,
        "loadgen.prefault_p99_s": 0.0,
        "loadgen.peak_queue_depth": 0,
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``sub_seeds`` fresh deployments make one run."""

    name: str
    #: Transactions per repeat at full size and at ``--smoke`` size.
    transactions: int
    smoke_transactions: int
    #: Deployment seeds pooled into one run's simulated-clock metrics.
    sub_seeds: int

    def size(self, smoke: bool) -> int:
        return self.smoke_transactions if smoke else self.transactions

    def config(self, smoke: bool) -> dict[str, Any]:
        """Everything that shapes the run besides the seed (run-id input).

        Constants written into ``build`` and ``drive`` are covered by
        :data:`SCHEMA_VERSION` instead.
        """
        return {"kind": type(self).__name__, "smoke": smoke, **asdict(self)}

    def build(self, seed: int, smoke: bool) -> Any:
        raise NotImplementedError

    def drive(self, deployment: Any, smoke: bool) -> Any:
        raise NotImplementedError

    def observe(self, deployment: Any, driven: Any) -> Observation:
        """Gate and read one repeat; ``driven`` is what ``drive`` returned."""
        raise NotImplementedError


@dataclass(frozen=True)
class Burst(Workload):
    """Fig. 10: N FastMoney transfers submitted at one instant, 2 cells."""

    signature_scheme: str = "sim"
    #: The default Azure model draws log-normal service times.  A burst
    #: too small to average them out (real signatures cost ~0.1 s of CPU
    #: per transfer) swings its tps and p99 by 16-18 % from seed to seed,
    #: so it runs on the constant serial-execution model instead.
    azure_service_model: bool = True
    pools: int = 8
    submit_at: float = 60.0
    cells: int = 2

    def build(self, seed: int, smoke: bool) -> BlockumulusDeployment:
        config = DeploymentConfig(
            consortium_size=self.cells,
            signature_scheme=self.signature_scheme,
            report_period=3_600.0,
            forwarding_deadline=900.0,
            message_batching=True,
            execution_lanes=1,
            seed=seed,
        )
        if not self.azure_service_model:
            config.service_model = serial_execution_service_model()
        return BlockumulusDeployment(config)

    def drive(self, deployment: BlockumulusDeployment, smoke: bool) -> Any:
        return run_burst_transfers(
            deployment,
            count=self.size(smoke),
            pools=SMOKE_POOLS if smoke else self.pools,
            submit_at=self.submit_at,
        )

    def observe(self, deployment: BlockumulusDeployment, report: Any) -> Observation:
        attempted = len(report.results)
        if report.failure_count:
            raise BenchFailure(
                f"{self.name}: {report.failure_count} of {attempted} transfers failed: "
                f"{report.failures[0].error}"
            )
        check_group_agreement(self.name, deployment.cells)
        return Observation(
            attempted=attempted,
            committed=len(report.successes),
            latencies=[result.latency for result in report.successes],
            sim_seconds=report.throughput().makespan,
            wire_bytes=deployment.network.total_bytes(),
            sim_digest=digest_of([
                _ledger_material(deployment.cells),
                sorted(map(_result_essence, report.results), key=str),
            ]),
            layer_stats=cell_statistics(deployment.cells, deployment.network, attempted),
        )


@dataclass(frozen=True)
class ShardedBurst(Workload):
    """The burst over 4 groups x 2 cells, a fifth of it cross-shard."""

    groups: int = 4
    cells: int = 2
    lanes: int = 4
    cross_shard_rate: float = 0.2
    pools: int = 8

    def build(self, seed: int, smoke: bool) -> ShardedDeployment:
        return ShardedDeployment(DeploymentConfig(
            consortium_size=self.cells,
            shard_count=self.groups,
            execution_lanes=self.lanes,
            signature_scheme="sim",
            report_period=3_600.0,
            forwarding_deadline=900.0,
            service_model=serial_execution_service_model(),
            client_cell_latency=CLIENT_LINK,
            cell_cell_latency=CELL_LINK,
            seed=seed,
        ))

    def drive(self, deployment: ShardedDeployment, smoke: bool) -> Any:
        return run_sharded_burst_transfers(
            deployment,
            count=self.size(smoke),
            cross_shard_rate=self.cross_shard_rate,
            pools=self.pools,
            fast_path=True,
        )

    def observe(self, deployment: ShardedDeployment, report: Any) -> Observation:
        attempted = len(report.results) + len(report.cross_results)
        if report.failure_count or report.cross_in_transit:
            raise BenchFailure(
                f"{self.name}: {report.failure_count} failed, "
                f"{len(report.cross_in_transit)} cross-shard in transit, of {attempted}"
            )
        for group in deployment.groups:
            check_group_agreement(f"{self.name}/g{group.index}", group.cells)
        # Every pool fauceted 2 x count units on every group's instance.
        minted = {
            ShardedFastMoneyClient.instance_name(FastMoney.DEFAULT_NAME, index, self.groups):
                self.pools * 2 * attempted
            for index in range(self.groups)
        }
        conservation = run_conservation_oracle(deployment, minted)
        if not conservation.passed:
            raise BenchFailure(f"{self.name}: conservation: {conservation.findings[:3]}")

        cells = [cell for group in deployment.groups for cell in group.cells]
        local = [result.latency for result in report.successes]
        cross = [result.latency for result in report.cross_successes]
        stats = cell_statistics(cells, deployment.network, attempted)
        stats["core.sharding.cross_tx_share"] = len(report.cross_results) / attempted
        if cross and local:
            cross_p50 = report.cross_latencies().p50()
            stats["core.sharding.cross_p50_s"] = cross_p50
            stats["core.sharding.cross_over_local_p50"] = cross_p50 / report.latencies().p50()
        return Observation(
            attempted=attempted,
            committed=len(local) + len(cross),
            latencies=local + cross,
            sim_seconds=report.throughput().makespan,
            wire_bytes=deployment.network.total_bytes(),
            sim_digest=digest_of([
                _ledger_material(cells),
                sorted(map(_result_essence, report.results + report.cross_results), key=str),
            ]),
            layer_stats=stats,
        )


@dataclass
class _OperatorLog:
    """What the operator process of ``openloop_crash`` did and saw."""

    crashed_at: Optional[float] = None
    readmitted_at: Optional[float] = None
    results: list[Any] = field(default_factory=list)  # one RecoveryResult per round


@dataclass(frozen=True)
class OpenLoopCrash(Workload):
    """Poisson arrivals on 3 cells; one cell is excluded, crashes, rejoins."""

    #: ``transactions`` is the expected arrival count: rate x horizon.
    horizon: float = 300.0
    drain: float = 60.0
    cells: int = 3
    #: Clients attach to cells 0 and 1 only, so no request is addressed
    #: to the cell that dies and no operation has to fail.
    pools: int = 2
    victim: int = 2
    #: The fault comes late in the run: how much of the traffic the victim
    #: sits out (a third of the execution work while it does) then depends
    #: little on whether its first rejoin round succeeds.
    exclude_at: float = 195.0
    #: The consortium excludes the victim first; it crashes once nothing
    #: admitted before the exclusion still waits for its confirmation.
    crash_at: float = 197.0
    recover_from: float = 225.0
    #: A failed rejoin is retried this long after the next report-cycle
    #: boundary: in sizing runs, once one round had failed, every round
    #: kept failing until the donor had taken its next snapshot.
    retry_after_boundary: float = 5.0
    report_period: float = 60.0

    def build(self, seed: int, smoke: bool) -> ShardedDeployment:
        return ShardedDeployment(DeploymentConfig(
            consortium_size=self.cells,
            signature_scheme="sim",
            report_period=self.report_period,
            forwarding_deadline=900.0,
            max_inflight=64,
            eth_block_interval=3.0,
            message_batching=True,
            service_model=serial_execution_service_model(),
            client_cell_latency=CLIENT_LINK,
            cell_cell_latency=CELL_LINK,
            seed=seed,
        ))

    def _operator(self, deployment: ShardedDeployment, log: _OperatorLog) -> Any:
        env = deployment.env
        yield env.timeout(self.exclude_at - env.now)
        deployment.exclude_cell(0, self.victim)
        yield env.timeout(self.crash_at - env.now)
        deployment.crash_cell(0, self.victim)
        log.crashed_at = env.now
        yield env.timeout(self.recover_from - env.now)
        while True:
            result = yield deployment.recover_cell(0, self.victim)
            log.results.append(result)
            if result.ok:
                log.readmitted_at = env.now
                return
            boundary = (env.now // self.report_period + 1) * self.report_period
            yield env.timeout(boundary + self.retry_after_boundary - env.now)

    def drive(self, deployment: ShardedDeployment, smoke: bool) -> Any:
        log = _OperatorLog()
        deployment.env.process(self._operator(deployment, log))
        plan = EndurancePlan(
            users=10_000,
            process="poisson",
            rate=self.size(smoke) / self.horizon,
            horizon=self.horizon,
            drain=self.drain,
            pools=self.pools,
        )
        return run_endurance(deployment, plan, label=self.name), log

    def observe(self, deployment: ShardedDeployment, driven: Any) -> Observation:
        report, log = driven
        conservation = run_endurance_conservation(deployment, report)
        if not conservation.passed:
            raise BenchFailure(f"{self.name}: conservation: {conservation.findings[:3]}")
        cells = deployment.group(0).cells
        # The rejoin is measured, not asserted: a victim that was not
        # readmitted by the horizon is left out of the agreement check.
        agreeing = [
            cell for index, cell in enumerate(cells)
            if index != self.victim or log.readmitted_at is not None
        ]
        check_group_agreement(self.name, agreeing)

        attempted = len(report.results)
        committed = [r for r in report.results if r is not None and r.ok]
        if not committed:
            raise BenchFailure(f"{self.name}: no transaction committed")
        end = report.started_at + self.horizon + self.drain
        stats = cell_statistics(cells, deployment.network, attempted)
        prefault = SampleSeries("prefault")
        prefault.extend(
            result.latency
            for arrival, result in zip(report.schedule, report.results)
            if result is not None and result.ok and arrival.at < self.exclude_at
        )
        stats.update({
            "core.recovery.outage_sim_s":
                (log.readmitted_at if log.readmitted_at is not None else end) - log.crashed_at,
            "core.recovery.rounds": len(log.results),
            "core.recovery.readmitted": int(log.readmitted_at is not None),
            "core.recovery.replayed_entries":
                sum(r.replayed + r.live_backfilled for r in log.results),
            "core.recovery.wire_bytes": sum(r.bytes_used for r in log.results),
            "loadgen.prefault_p99_s": prefault.p99() if len(prefault) else 0.0,
            "loadgen.peak_queue_depth": report.peak_queue_depth(),
        })
        return Observation(
            attempted=attempted,
            committed=len(committed),
            latencies=[result.latency for result in committed],
            sim_seconds=max(r.completed_at for r in committed)
            - min(r.submitted_at for r in committed),
            wire_bytes=deployment.network.total_bytes(),
            sim_digest=digest_of([
                collect_endurance_artifacts(deployment, report),
                [log.crashed_at, log.readmitted_at, [r.reason for r in log.results]],
            ]),
            layer_stats=stats,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Burst("burst_sim", transactions=2_000, smoke_transactions=60, sub_seeds=6),
        Burst("burst_ecdsa", transactions=16, smoke_transactions=2, sub_seeds=4,
              signature_scheme="ecdsa", azure_service_model=False, pools=4),
        ShardedBurst("xshard_burst", transactions=2_400, smoke_transactions=96, sub_seeds=2),
        OpenLoopCrash("openloop_crash", transactions=1_800, smoke_transactions=180, sub_seeds=3),
    )
}
