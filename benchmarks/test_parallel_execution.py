"""Conflict-aware execution lanes vs. the serial intra-cycle schedule.

The tunable-contention workload (``run_contended_transfers``) runs on a
two-cell consortium whose service model has a *serial* execution stage
(``max_parallel_invocations=1`` — the paper's mutex-protected executor),
swept over ``execution_lanes`` × conflict rate.  For every conflict rate
the runs under different lane counts must be observably identical — same
ledgers, same receipts (modulo timing), same per-cycle execution
fingerprints, same contract state — while at low conflict the 8-lane
engine must beat the serial schedule by at least 2x simulated makespan.

Results are written both as rendered text and as the machine-readable
``BENCH_parallel.json`` baseline at the repository root.
"""

import time

from repro.client import run_contended_transfers
from repro.client.workload import MixedOperation, run_mixed_operations
from repro.core.config import DeploymentConfig
from repro.core.sharding import ShardedDeployment
from repro.crypto.fingerprint import snapshot_fingerprint
from repro.encoding import canonical_json
from repro.sim import ConstantLatency

from _harness import (azure_deployment, bench_scale, serial_execution_service_model,
                      write_bench_json, write_output)

CELLS = 2
LANE_COUNTS = (1, 2, 4, 8)
CONFLICT_RATES = (0.0, 0.3, 0.9)
HOT_ACCOUNTS = 4
#: Transactions per run (scaled like the paper bursts).
BURST = max(160, int(1_600 * bench_scale()))


def run_config(conflict_rate: float, lanes: int):
    deployment = azure_deployment(
        CELLS,
        seed=9_000,
        execution_lanes=lanes,
        service_model=serial_execution_service_model(),
        client_cell_latency=ConstantLatency(0.01),
        cell_cell_latency=ConstantLatency(0.005),
    )
    started = time.perf_counter()
    report = run_contended_transfers(
        deployment,
        count=BURST,
        conflict_rate=conflict_rate,
        hot_accounts=HOT_ACCOUNTS,
    )
    # Host time goes to stdout, never into the committed baseline.
    print(
        f"[parallel conflict={conflict_rate} lanes={lanes}: "
        f"{time.perf_counter() - started:.3f} s wall clock]"
    )
    return deployment, report


def equivalence_digest(deployment, report) -> str:
    """One hash over everything that must match across lane counts."""
    material = {
        "ledgers": {
            cell.node_name: sorted(
                (
                    entry.tx_id,
                    entry.status,
                    str(entry.contract),
                    canonical_json.dumps(entry.result),
                    str(entry.error),
                )
                for entry in cell.ledger
            )
            for cell in deployment.cells
        },
        "cycle_fingerprints": {
            cell.node_name: cell.ledger.cycle_execution_fingerprint(0)
            for cell in deployment.cells
        },
        "receipts": sorted(
            (
                result.receipt.tx_id,
                result.receipt.contract,
                result.receipt.fingerprint_hex,
                canonical_json.dumps(result.receipt.result),
                tuple(sorted(result.receipt.cells())),
            )
            for result in report.successes
        ),
        "state": {
            cell.node_name: "0x" + snapshot_fingerprint(cell.contracts.fingerprints()).hex()
            for cell in deployment.cells
        },
    }
    from repro.crypto.hashing import fast_hash

    return "0x" + fast_hash(canonical_json.dump_bytes(material)).hex()


def config_metrics(deployment, report):
    throughput = report.throughput()
    # One lane plans nothing, so its cells report no lane statistics.
    lane_stats = [
        stats
        for cell in deployment.cells
        if (stats := cell.statistics()["lanes"]) is not None
    ]
    metrics = {
        "transactions": len(report.results),
        "failures": report.failure_count,
        "sim_makespan_s": round(throughput.makespan, 3),
        "throughput_tps": round(throughput.throughput, 1),
        "latency_p50_s": round(report.latencies().p50(), 4),
        "latency_p99_s": round(report.latencies().p99(), 4),
    }
    if lane_stats:
        metrics["conflict_deferrals"] = sum(s["conflict_deferrals"] for s in lane_stats)
        metrics["capacity_deferrals"] = sum(s["capacity_deferrals"] for s in lane_stats)
        metrics["exclusive_fallbacks"] = sum(s["exclusive_fallbacks"] for s in lane_stats)
        metrics["peak_parallel"] = max(s["peak_parallel"] for s in lane_stats)
    return metrics


def test_parallel_execution_lanes(benchmark):
    def run_sweep():
        return {
            (conflict, lanes): run_config(conflict, lanes)
            for conflict in CONFLICT_RATES
            for lanes in LANE_COUNTS
        }

    runs = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    sweep = []
    digests: dict[float, dict[int, str]] = {}
    makespans: dict[float, dict[int, float]] = {}
    for (conflict, lanes), (deployment, report) in runs.items():
        metrics = config_metrics(deployment, report)
        digest = equivalence_digest(deployment, report)
        digests.setdefault(conflict, {})[lanes] = digest
        makespans.setdefault(conflict, {})[lanes] = metrics["sim_makespan_s"]
        sweep.append(
            {"conflict_rate": conflict, "lanes": lanes, "digest": digest, **metrics}
        )

    equivalence = {
        str(conflict): len(set(by_lanes.values())) == 1
        for conflict, by_lanes in digests.items()
    }
    speedups = {
        str(conflict): {
            str(lanes): round(by_lanes[1] / by_lanes[lanes], 2)
            for lanes in LANE_COUNTS
            if lanes != 1
        }
        for conflict, by_lanes in makespans.items()
    }
    low_conflict_speedup = speedups[str(CONFLICT_RATES[0])][str(LANE_COUNTS[-1])]

    payload = {
        "benchmark": "parallel_execution_lanes",
        "scale": bench_scale(),
        "consortium_size": CELLS,
        "burst": BURST,
        "hot_accounts": HOT_ACCOUNTS,
        "lane_counts": list(LANE_COUNTS),
        "conflict_rates": list(CONFLICT_RATES),
        "sweep": sweep,
        "identical_across_lane_counts": equivalence,
        "speedup_vs_serial": speedups,
        "low_conflict_speedup_8_lanes": low_conflict_speedup,
    }
    write_bench_json("parallel", payload, seed=9_000)

    text = (
        f"Conflict-aware execution lanes — {BURST}-tx contended burst on {CELLS} cells "
        f"(scale={bench_scale():.2f}, serial execution stage)\n\n"
        f"{'conflict':>9}{'lanes':>7}{'makespan_s':>12}{'tps':>9}"
        f"{'speedup':>9}{'defer(conf)':>12}{'identical':>11}\n" + "-" * 69 + "\n"
    )
    for row in sweep:
        conflict, lanes = row["conflict_rate"], row["lanes"]
        speedup = makespans[conflict][1] / makespans[conflict][lanes]
        text += (
            f"{conflict:>9.2f}{lanes:>7}{row['sim_makespan_s']:>12,.2f}"
            f"{row['throughput_tps']:>9,.1f}{speedup:>8.2f}x"
            f"{row.get('conflict_deferrals', 0):>12,}"
            f"{str(equivalence[str(conflict)]):>11}\n"
        )
    text += (
        f"\n8-lane speedup at conflict {CONFLICT_RATES[0]:.2f}: {low_conflict_speedup:.2f}x"
        f"  (ledgers/receipts/fingerprints identical for every lane count)"
    )
    write_output("parallel_execution", text)

    # No transaction fails in any configuration.
    assert all(row["failures"] == 0 for row in sweep)
    # Every lane count is observably the same system at every conflict rate.
    assert all(equivalence.values()), equivalence
    # Headline: 8 lanes beat the serial schedule by >= 2x at low conflict.
    assert low_conflict_speedup >= 2.0, low_conflict_speedup
    # Contention must show up in the scheduler: the high-conflict sweep
    # records conflict deferrals, and low-conflict parallelism saturates.
    high = [row for row in sweep if row["conflict_rate"] == CONFLICT_RATES[-1] and row["lanes"] == 8]
    assert high[0].get("conflict_deferrals", 0) > 0


def test_mixed_workload_lane_overlap():
    """Spot check: ballot votes and dividend investments overlap in lanes.

    Distinct voters touch disjoint vote keys and the per-choice tallies
    are declared as commutative deltas; distinct investors touch disjoint
    ``invested/`` keys.  With the access plans declared on
    :class:`~repro.contracts.community.ballot.Ballot` and
    :class:`~repro.contracts.community.dividend_pool.DividendPool`, none of
    these operations may degrade to the exclusive (serialized) footprint,
    and the 8-lane scheduler must actually run them concurrently.
    """
    accounts = 12
    deployment = ShardedDeployment(
        DeploymentConfig(
            consortium_size=4,
            shard_count=1,
            execution_lanes=8,
            report_period=3_600.0,
            seed=9_100,
            signature_scheme="sim",
            service_model=serial_execution_service_model(),
            client_cell_latency=ConstantLatency(0.01),
            cell_cell_latency=ConstantLatency(0.005),
        )
    )
    choices = ["alpha", "beta"]
    operations = [
        MixedOperation(
            at=5.0 + 0.01 * index,
            kind="vote",
            sender=index,
            args={"election_id": "bench-election", "choice": choices[index % 2]},
        )
        for index in range(accounts)
    ] + [
        MixedOperation(
            at=5.0 + 0.01 * index,
            kind="invest",
            sender=index,
            args={"amount": 100 + index},
        )
        for index in range(accounts)
    ]
    report = run_mixed_operations(
        deployment,
        operations,
        account_seeds=[f"bench/mixed/account/{i}" for i in range(accounts)],
        elections=[("bench-election", choices)],
        horizon=120.0,
        label="bench-mixed-lane-overlap",
    )

    lane_stats = [
        cell.statistics()["lanes"] for group in deployment.groups for cell in group.cells
    ]
    exclusive_fallbacks = sum(s["exclusive_fallbacks"] for s in lane_stats)
    peak_parallel = max(s["peak_parallel"] for s in lane_stats)

    payload = {
        "benchmark": "mixed_workload_lane_overlap",
        "accounts": accounts,
        "operations": len(operations),
        "ok": report.ok_count,
        "exclusive_fallbacks": exclusive_fallbacks,
        "peak_parallel": peak_parallel,
    }
    write_bench_json("parallel_mixed", payload, seed=9_100)

    # Every vote and every investment succeeded...
    assert report.ok_count == len(operations), payload
    # ...none fell back to the exclusive footprint (the plans cover them)...
    assert exclusive_fallbacks == 0, payload
    # ...and the scheduler genuinely overlapped them in the lanes.
    assert peak_parallel >= 2, payload
