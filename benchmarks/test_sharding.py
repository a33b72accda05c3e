"""Contract-state sharding: aggregate throughput vs. shard count.

The same seeded burst runs across shard counts {1, 2, 4} and cross-shard
rates {0, 0.05, 0.2} (plus a smaller contended sweep), all on cell groups
of two cells with a *serial* execution stage — the regime where the
unsharded overlay is execution-bound and sharding is the only horizontal
lever.  Three properties are asserted:

* **scaling** — at a zero cross-shard rate, four shards deliver at least
  2x the aggregate throughput of the single-shard run;
* **determinism** — repeating a multi-shard configuration reproduces the
  per-shard ledgers, receipts, and execution fingerprints exactly (one
  digest covers them all), and the deployment-level shard digest chain
  verifies;
* **compatibility** — the ``shard_count=1`` run is bit-for-bit the
  pre-shard serial pipeline (same digest as a plain
  ``BlockumulusDeployment`` driving the same ``run_burst_transfers``
  through its one-group view);
* **fast path** — a dedicated 4-shard arm re-runs the cross-shard rates
  with the voucher fast path on and off: with it on, cross-shard p50
  latency at the heaviest rate stays within 1.5x of the same run's
  local p50 (one message per gateway instead of two 2PC rounds).

Results are written as rendered text (``benchmarks/output/sharding.txt``)
and as the machine-readable ``BENCH_sharding.json`` baseline.
"""

import time

from repro.audit import ShardedAuditor
from repro.client import run_burst_transfers, run_contended_transfers
from repro.core import BlockumulusDeployment, DeploymentConfig, ShardedDeployment
from repro.crypto.fingerprint import snapshot_fingerprint
from repro.crypto.hashing import fast_hash
from repro.encoding import canonical_json
from repro.sim import ConstantLatency

from _harness import (bench_scale, serial_execution_service_model, write_bench_json,
                      write_output)

CELLS_PER_GROUP = 2
SHARD_COUNTS = (1, 2, 4)
CROSS_RATES = (0.0, 0.05, 0.2)
CONTENDED_SHARDS = (1, 4)
CONTENDED_CROSS_RATES = (0.0, 0.2)
CONTENDED_CONFLICT = 0.3
FAST_PATH_SHARDS = 4
FAST_PATH_CROSS_RATES = (0.05, 0.2)
#: Acceptance bar: with the voucher fast path on, cross-shard p50 stays
#: within this multiple of the same run's local p50 at the heaviest rate.
FAST_PATH_P50_BOUND = 1.5
#: Transactions per run (scaled like the paper bursts).
BURST = max(160, int(1_600 * bench_scale()))
SEED = 11_000


def bench_config(shards: int) -> DeploymentConfig:
    return DeploymentConfig(
        consortium_size=CELLS_PER_GROUP,
        signature_scheme="sim",
        report_period=3_600.0,
        forwarding_deadline=900.0,
        seed=SEED,
        shard_count=shards,
        service_model=serial_execution_service_model(),
        client_cell_latency=ConstantLatency(0.01),
        cell_cell_latency=ConstantLatency(0.005),
    )


def all_cells(deployment) -> list:
    return [cell for group in deployment.as_sharded().groups for cell in group.cells]


def equivalence_digest(deployment, report) -> str:
    """One hash over everything that must be identical across repeats."""
    cells = all_cells(deployment)
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
            for cell in cells
        },
        "cycle_fingerprints": {
            cell.node_name: cell.ledger.cycle_execution_fingerprint(0) for cell in cells
        },
        "receipts": sorted(
            (
                result.receipt.tx_id,
                result.receipt.contract,
                result.receipt.fingerprint_hex,
                canonical_json.dumps(result.receipt.result),
            )
            for result in report.successes
        ),
        "cross": sorted(
            (result.xtx, result.decision, result.ok)
            for result in report.cross_results
        ),
        "state": {
            cell.node_name: "0x" + snapshot_fingerprint(cell.contracts.fingerprints()).hex()
            for cell in cells
        },
    }
    return "0x" + fast_hash(canonical_json.dump_bytes(material)).hex()


def run_burst(shards: int, cross_rate: float, fast_path: bool = False):
    deployment = ShardedDeployment(bench_config(shards))
    started = time.perf_counter()
    report = run_burst_transfers(
        deployment, count=BURST, cross_shard_rate=cross_rate, fast_path=fast_path,
        # The fast path completes at the asynchronous commit point (the
        # directory-verified voucher); the redeem deliveries are drained
        # below, after the client-observed latencies are measured.
        await_redeem=not fast_path,
    )
    delivered = 0
    if fast_path:
        pending = [
            result.redeem for result in report.cross_results
            if result.redeem is not None
        ]
        if pending:
            deployment.env.run(deployment.env.all_of(pending))
        finals = [event.value for event in pending]
        assert all(final.ok for final in finals), [
            final.error for final in finals if not final.ok
        ]
        delivered = len(finals)
    # Host time goes to stdout, never into the committed baseline.
    print(
        f"[sharding shards={shards} cross={cross_rate} fast_path={fast_path}: "
        f"{time.perf_counter() - started:.3f} s wall clock]"
    )
    return deployment, report, delivered


def run_contended(shards: int, cross_rate: float):
    deployment = ShardedDeployment(bench_config(shards))
    report = run_contended_transfers(
        deployment, count=BURST, conflict_rate=CONTENDED_CONFLICT,
        cross_shard_rate=cross_rate,
    )
    return deployment, report


def run_plain_baseline():
    """The pre-shard pipeline: a plain deployment, viewed as one group by the burst."""
    deployment = BlockumulusDeployment(bench_config(1))
    report = run_burst_transfers(deployment, count=BURST)
    return deployment, report


def config_metrics(deployment, report):
    throughput = report.throughput()
    metrics = {
        "transactions": len(report.results) + len(report.cross_results),
        "cross_shard_transactions": len(report.cross_results),
        "failures": report.failure_count,
        "sim_makespan_s": round(throughput.makespan, 3),
        "throughput_tps": round(throughput.throughput, 1),
        "latency_p50_s": round(report.latencies().p50(), 4),
        "latency_p99_s": round(report.latencies().p99(), 4),
    }
    if report.cross_successes:
        metrics["cross_latency_p50_s"] = round(report.cross_latencies().p50(), 4)
    return metrics


def test_sharding_throughput(benchmark):
    def run_sweep():
        return {
            (shards, cross): run_burst(shards, cross)
            for shards in SHARD_COUNTS
            for cross in CROSS_RATES
            if not (cross > 0.0 and shards == 1)
        }

    runs = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    sweep = []
    throughputs: dict[float, dict[int, float]] = {}
    for (shards, cross), (deployment, report, _delivered) in runs.items():
        metrics = config_metrics(deployment, report)
        digest = equivalence_digest(deployment, report)
        throughputs.setdefault(cross, {})[shards] = metrics["throughput_tps"]
        sweep.append(
            {"shards": shards, "cross_shard_rate": cross, "digest": digest, **metrics}
        )

    # Determinism: repeating the heaviest configuration reproduces every
    # per-shard artifact, and the shard digest chain verifies.
    repeat_deployment, repeat_report, _ = run_burst(4, 0.05)
    repeat_identical = equivalence_digest(repeat_deployment, repeat_report) == next(
        row["digest"] for row in sweep
        if row["shards"] == 4 and row["cross_shard_rate"] == 0.05
    )
    repeat_deployment.run_cycles(1)
    digest_report = ShardedAuditor(repeat_deployment).verify_shard_digest(0)

    # Compatibility: shards=1 is the pre-shard serial pipeline bit-for-bit.
    plain_deployment, plain_report = run_plain_baseline()
    serial_digest = equivalence_digest(plain_deployment, plain_report)
    sharded_serial_digest = next(
        row["digest"] for row in sweep
        if row["shards"] == 1 and row["cross_shard_rate"] == 0.0
    )
    serial_equivalent = serial_digest == sharded_serial_digest

    # The contended workload sweeps a smaller matrix.
    contended = []
    for shards in CONTENDED_SHARDS:
        for cross in CONTENDED_CROSS_RATES:
            if cross > 0.0 and shards == 1:
                continue
            deployment, report = run_contended(shards, cross)
            contended.append(
                {
                    "shards": shards,
                    "cross_shard_rate": cross,
                    "conflict_rate": CONTENDED_CONFLICT,
                    "digest": equivalence_digest(deployment, report),
                    **config_metrics(deployment, report),
                }
            )

    # The voucher fast path: same burst, cross-shard transfers running
    # as one-way credit vouchers instead of full 2PC.  The off arm
    # reuses the main sweep's runs (identical configuration).
    fast_path_sweep = []
    for cross in FAST_PATH_CROSS_RATES:
        for fast in (False, True):
            if fast:
                deployment, report, delivered = run_burst(
                    FAST_PATH_SHARDS, cross, fast_path=True
                )
            else:
                deployment, report, delivered = runs[(FAST_PATH_SHARDS, cross)]
            metrics = config_metrics(deployment, report)
            ratio = round(
                metrics["cross_latency_p50_s"] / metrics["latency_p50_s"], 2
            )
            fast_path_sweep.append(
                {
                    "shards": FAST_PATH_SHARDS,
                    "cross_shard_rate": cross,
                    "fast_path": fast,
                    "cross_p50_over_local_p50": ratio,
                    "redeems_delivered": delivered,
                    "digest": equivalence_digest(deployment, report),
                    **metrics,
                }
            )
    fast_path_ratio = next(
        row["cross_p50_over_local_p50"]
        for row in fast_path_sweep
        if row["fast_path"] and row["cross_shard_rate"] == max(FAST_PATH_CROSS_RATES)
    )

    speedup = {
        str(cross): {
            str(shards): round(by_shards[shards] / throughputs[cross][1], 2)
            for shards in by_shards
            if 1 in throughputs[cross] and shards != 1
        }
        for cross, by_shards in throughputs.items()
        if 1 in throughputs[cross]
    }
    zero_cross_speedup_4_shards = speedup["0.0"]["4"]

    payload = {
        "benchmark": "sharding",
        "scale": bench_scale(),
        "cells_per_group": CELLS_PER_GROUP,
        "burst": BURST,
        "shard_counts": list(SHARD_COUNTS),
        "cross_shard_rates": list(CROSS_RATES),
        "sweep": sweep,
        "contended_sweep": contended,
        "fast_path_sweep": fast_path_sweep,
        "fast_path_cross_p50_over_local_p50": fast_path_ratio,
        "fast_path_p50_bound": FAST_PATH_P50_BOUND,
        "aggregate_speedup_vs_one_shard": speedup,
        "zero_cross_speedup_4_shards": zero_cross_speedup_4_shards,
        "repeat_run_identical": repeat_identical,
        "shard_digest_verified": digest_report.passed,
        "serial_pipeline_equivalent": serial_equivalent,
    }
    write_bench_json("sharding", payload, seed=SEED)

    text = (
        f"Contract-state sharding — {BURST}-tx burst, {CELLS_PER_GROUP} cells/group "
        f"(scale={bench_scale():.2f}, serial execution stage)\n\n"
        f"{'shards':>7}{'cross':>7}{'makespan_s':>12}{'tps':>9}{'speedup':>9}"
        f"{'xtx':>6}{'fail':>6}\n" + "-" * 56 + "\n"
    )
    unsharded_tps = throughputs[0.0][1]
    for row in sweep:
        ratio = row["throughput_tps"] / unsharded_tps
        text += (
            f"{row['shards']:>7}{row['cross_shard_rate']:>7.2f}"
            f"{row['sim_makespan_s']:>12,.2f}{row['throughput_tps']:>9,.1f}"
            f"{ratio:>8.2f}x{row['cross_shard_transactions']:>6}"
            f"{row['failures']:>6}\n"
        )
    text += "\nvoucher fast path (4 shards, cross p50 / local p50):\n"
    for row in fast_path_sweep:
        text += (
            f"{row['cross_shard_rate']:>7.2f}  fast_path="
            f"{'on ' if row['fast_path'] else 'off'}"
            f"  cross_p50={row['cross_latency_p50_s']:.4f}s"
            f"  local_p50={row['latency_p50_s']:.4f}s"
            f"  ratio={row['cross_p50_over_local_p50']:.2f}x\n"
        )
    text += "\ncontended sweep (conflict=0.30):\n"
    for row in contended:
        text += (
            f"{row['shards']:>7}{row['cross_shard_rate']:>7.2f}"
            f"{row['sim_makespan_s']:>12,.2f}{row['throughput_tps']:>9,.1f}"
            f"{'':>9}{row['cross_shard_transactions']:>6}{row['failures']:>6}\n"
        )
    text += (
        f"\n4-shard aggregate speedup at zero cross-shard rate: "
        f"{zero_cross_speedup_4_shards:.2f}x\n"
        f"repeat-run artifacts identical: {repeat_identical}; "
        f"shard digest verified: {digest_report.passed}; "
        f"shards=1 equals the pre-shard pipeline: {serial_equivalent}"
    )
    write_output("sharding", text)

    # No transaction fails in any configuration.
    assert all(row["failures"] == 0 for row in sweep + contended + fast_path_sweep)
    # The fast-path arm really runs cross-shard traffic both ways.
    assert all(
        row["cross_shard_transactions"] > 0 for row in fast_path_sweep
    )
    # Headline for the voucher fast path: cross-shard p50 within 1.5x of
    # local p50 at the heaviest rate (full 2PC runs several times local).
    assert fast_path_ratio <= FAST_PATH_P50_BOUND, fast_path_sweep
    # The cross-shard dial actually bites where it is non-zero.
    assert all(
        row["cross_shard_transactions"] > 0
        for row in sweep
        if row["cross_shard_rate"] > 0.0
    )
    # Headline: >= 2x aggregate throughput at 4 shards, zero cross rate.
    assert zero_cross_speedup_4_shards >= 2.0, zero_cross_speedup_4_shards
    # Determinism and global consistency.
    assert repeat_identical
    assert digest_report.passed, digest_report.findings
    # shards=1 is bit-for-bit the pre-shard serial pipeline.
    assert serial_equivalent
