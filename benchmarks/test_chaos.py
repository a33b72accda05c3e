"""Chaos-engine benchmark: scenario throughput and oracle coverage.

Runs a slice of the pinned chaos corpus (every scenario through the full
oracle stack — conservation, serial-reference differential, bit-for-bit
replay, per-group audits + shard digest), prints **scenarios per minute**
of wall clock — the cost of one corpus pass, which is what bounds how much
chaos a CI push can afford — to stdout, and records what is deterministic:

* **oracle coverage counts** — how many scenarios each oracle judged and
  how much work it did (cells audited, escrow pairs checked, committed
  operations replayed on the reference);
* the corpus **span** over the feature matrix and fault kinds.

Every scenario in the slice must pass; a failure fails the benchmark
exactly as it fails the tests (reproduce with ``python -m repro.chaos
replay <seed>``).  Results land in ``benchmarks/output/chaos.txt`` and
the machine-readable baseline ``BENCH_chaos.json``.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.chaos import CORPUS_SIZE, check_scenario, corpus_specs, coverage

from _harness import bench_scale, write_bench_json, write_output

#: Scenarios benchmarked at scale 1.0 (the full pinned corpus).
FULL_SLICE = CORPUS_SIZE
#: Floor — one full matrix round plus every fault kind, whatever the scale.
MIN_SLICE = 15


def test_chaos_scenarios_per_minute():
    budget = max(MIN_SLICE, int(FULL_SLICE * bench_scale()))
    specs = corpus_specs(min(budget, FULL_SLICE * 4))
    span = coverage(specs)

    oracle_runs: Counter[str] = Counter()
    oracle_passes: Counter[str] = Counter()
    work = Counter(
        audited_cells=0, checked_transactions=0, escrow_pairs=0,
        committed_calls=0, committed_cross_transfers=0, fault_events=0,
    )
    failures = []
    started = time.perf_counter()
    for spec in specs:
        run, results = check_scenario(spec)
        work["fault_events"] += len(run.fault_log)
        for result in results:
            oracle_runs[result.oracle] += 1
            oracle_passes[result.oracle] += result.passed
            for key in work:
                if key in result.metrics:
                    work[key] += result.metrics[key]
            if not result.passed:
                failures.append((spec.seed, result.oracle, result.findings[:2]))
    elapsed = time.perf_counter() - started

    assert not failures, f"chaos scenarios failed their oracles: {failures}"
    # Host time goes to stdout, never into the committed baseline.
    print(
        f"[chaos: {len(specs)} scenarios in {elapsed:.1f} s wall clock -> "
        f"{len(specs) / (elapsed / 60.0):.1f} scenarios/minute]"
    )
    payload = {
        "scenarios": len(specs),
        "corpus_size": CORPUS_SIZE,
        "oracle_runs": dict(sorted(oracle_runs.items())),
        "oracle_passes": dict(sorted(oracle_passes.items())),
        "oracle_work": dict(sorted(work.items())),
        "coverage": span,
    }
    write_bench_json("chaos", payload, seed=specs[0].seed)

    lines = [
        "Chaos-scenario engine — corpus throughput and oracle coverage",
        f"  scenarios: {len(specs)} (pinned corpus: {CORPUS_SIZE})",
        f"  matrix points covered: {span['matrix_points']}/12, "
        f"fault kinds: {sorted(span['fault_kinds'])}",
        "  oracle runs (all passing): "
        + ", ".join(f"{name}×{count}" for name, count in sorted(oracle_runs.items())),
        f"  oracle work: {work['audited_cells']} cells audited, "
        f"{work['checked_transactions']} transactions replayed by auditors,",
        f"    {work['committed_calls']} committed calls + "
        f"{work['committed_cross_transfers']} cross-shard transfers replayed on "
        f"the serial reference,",
        f"    {work['escrow_pairs']} escrow pairs conservation-checked, "
        f"{work['fault_events']} fault injections fired",
    ]
    write_output("chaos", "\n".join(lines))
