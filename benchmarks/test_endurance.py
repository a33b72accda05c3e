"""Sustained-load endurance benchmark: open-loop arrivals under admission control.

Three phases of open-loop load against the serial-execution deployment
(capacity ~20 tx/s per group, same calibration as the parallel and
sharding benchmarks):

* **steady** — a Poisson arrival process at ~20% of capacity for the
  budgeted horizon (default 30 simulated minutes; ``--endurance-budget``
  shortens or extends it), emitting the per-minute tps/p50/p99 series;
* **diurnal** — a compressed day/night cycle (raised-cosine intensity
  between 2 and 8 tx/s) exercising the non-homogeneous arrival path;
* **overload** — arrivals at ≥1.5× measured capacity, where the per-cell
  admission controller must shed deterministically: same-seed replay is
  bit-identical, queues stay bounded at ``max_inflight`` per cell, and
  the conservation + differential oracles pass with sheds present.

The run closes the loop against the benchmark-fitted capacity model
(:class:`repro.analysis.scalability.CapacityModel`): sustained overload
throughput must land within ±20% of the model's predicted capacity.
Results are written to ``BENCH_endurance.json`` (the first endurance
baseline) and ``benchmarks/output/endurance.txt``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.analysis.scalability import CapacityModel
from repro.loadgen import (
    EndurancePlan,
    collect_endurance_artifacts,
    endurance_differential,
    run_endurance,
    run_endurance_conservation,
)
from repro.sim import ConstantLatency

from _harness import (
    BENCH_JSON_DIR,
    serial_execution_service_model,
    sharded_azure_deployment,
    write_bench_json,
    write_output,
)

CELLS = 2
SEED = 3_021
#: Per-cell admission bound (the backpressure the overload phase proves).
MAX_INFLIGHT = 64
#: Steady-phase arrival rate: ~20% of the ~20 tx/s serial capacity.
STEADY_RATE = 4.0
#: Overload arrival rate: >= 1.5x the measured ~19.7 tx/s capacity.
OVERLOAD_RATE = 30.0
DEFAULT_STEADY_MINUTES = 30
DIURNAL_MINUTES = 6
OVERLOAD_MINUTES = 5
USERS = 10_000


def endurance_deployment():
    return sharded_azure_deployment(
        CELLS,
        seed=SEED,
        max_inflight=MAX_INFLIGHT,
        service_model=serial_execution_service_model(),
        client_cell_latency=ConstantLatency(0.01),
        cell_cell_latency=ConstantLatency(0.005),
    )


def _run_phase(plan: EndurancePlan, label: str):
    """One endurance phase on a fresh deployment, with its oracles."""
    deployment = endurance_deployment()
    started = time.perf_counter()
    report = run_endurance(deployment, plan, label=label)
    # Host time goes to stdout, never into the committed baseline.
    print(f"[endurance {label}: {time.perf_counter() - started:.3f} s wall clock]")

    conservation = run_endurance_conservation(deployment, report)
    assert conservation.passed, (
        f"{label}: conservation oracle failed: {conservation.findings[:3]}"
    )
    findings = endurance_differential(deployment, report)
    assert not findings, f"{label}: differential oracle failed: {findings[:3]}"

    payload = report.to_payload()
    payload["oracles"] = {"conservation": True, "differential": True}
    return deployment, report, payload


def test_endurance_open_loop_load(request):
    budget = request.config.getoption("--endurance-budget") or DEFAULT_STEADY_MINUTES
    assert budget >= 2, "the endurance budget needs at least two sim-minutes"

    # ------------------------------------------------------------------
    # Phase 1: steady Poisson load well under capacity.
    # ------------------------------------------------------------------
    steady_plan = EndurancePlan(
        users=USERS, process="poisson", rate=STEADY_RATE,
        horizon=budget * 60.0, pools=8, drain=120.0,
    )
    _dep, steady, steady_payload = _run_phase(steady_plan, "endurance/steady")
    steady_totals = steady.totals()
    assert steady_totals["shed"] == 0, "steady load must not trip admission control"
    assert steady_totals["unanswered"] == 0 and steady_totals["reverted"] == 0
    series = steady_payload["series"]
    assert len(series) == budget
    assert all(row["p50"] is not None and row["p99"] is not None for row in series)

    # ------------------------------------------------------------------
    # Phase 2: a compressed diurnal cycle (non-homogeneous arrivals).
    # ------------------------------------------------------------------
    diurnal_plan = EndurancePlan(
        users=USERS, process="diurnal", rate=2.0, peak_rate=8.0,
        period=DIURNAL_MINUTES * 60.0, horizon=DIURNAL_MINUTES * 60.0,
        pools=8, drain=120.0,
    )
    _dep, diurnal, diurnal_payload = _run_phase(diurnal_plan, "endurance/diurnal")
    diurnal_series = diurnal_payload["series"]
    # The raised-cosine profile must actually show up in the series:
    # midday buckets busier than the night edges.
    midday = diurnal_series[len(diurnal_series) // 2]["submitted"]
    night = min(diurnal_series[0]["submitted"], diurnal_series[-1]["submitted"])
    assert midday > night, "diurnal intensity did not peak mid-period"

    # ------------------------------------------------------------------
    # Phase 3: overload at >= 1.5x capacity — deterministic shedding.
    # ------------------------------------------------------------------
    overload_plan = EndurancePlan(
        users=USERS, process="poisson", rate=OVERLOAD_RATE,
        horizon=OVERLOAD_MINUTES * 60.0, pools=8, drain=120.0,
    )
    overload_dep, overload, overload_payload = _run_phase(
        overload_plan, "endurance/overload"
    )
    overload_totals = overload.totals()
    assert overload_totals["shed"] > 0, "overload must trip the admission controller"
    assert overload_totals["unanswered"] == 0
    # Bounded queues: the sampled total admission depth never exceeds the
    # per-cell bound times the cell count, and per-cell peaks respect it.
    assert overload.peak_queue_depth() <= CELLS * MAX_INFLIGHT
    for group in overload_dep.groups:
        for cell in group.cells:
            admission = cell.statistics()["admission"]
            assert admission["peak_inflight"] <= MAX_INFLIGHT
            assert admission["inflight"] == 0, "inflight must drain to zero"

    # Same-seed replay is bit-identical, sheds included.
    replay_dep = endurance_deployment()
    replay = run_endurance(replay_dep, overload_plan, label="endurance/overload")
    assert collect_endurance_artifacts(replay_dep, replay) == collect_endurance_artifacts(
        overload_dep, overload
    ), "same-seed overload replay diverged"

    # ------------------------------------------------------------------
    # Close the loop: measured overload throughput vs the capacity model.
    # ------------------------------------------------------------------
    parallel = json.loads((BENCH_JSON_DIR / "BENCH_parallel.json").read_text())
    sharding = json.loads((BENCH_JSON_DIR / "BENCH_sharding.json").read_text())
    pipeline = json.loads((BENCH_JSON_DIR / "BENCH_pipeline.json").read_text())
    model = CapacityModel.from_benchmarks(parallel, sharding, pipeline)
    predicted = model.capacity_tps(shards=1, lanes=1)
    assert OVERLOAD_RATE >= 1.5 * predicted, "overload phase must push >= 1.5x capacity"
    measured = overload_payload["throughput_tps"]
    assert measured == pytest.approx(predicted, rel=0.20), (
        f"sustained overload tps {measured} is outside ±20% of the "
        f"capacity model's {predicted:.2f}"
    )

    payload = {
        "benchmark": "endurance",
        "consortium_size": CELLS,
        "max_inflight": MAX_INFLIGHT,
        "steady_minutes": budget,
        "sim_minutes": budget + DIURNAL_MINUTES + OVERLOAD_MINUTES,
        "steady": steady_payload,
        "diurnal": diurnal_payload,
        "overload": overload_payload,
        "overload_replay_identical": True,
        "predicted_capacity_tps": round(predicted, 4),
        "capacity_model": model.to_data(),
    }
    write_bench_json("endurance", payload, seed=SEED)

    shed_rate = overload_totals["shed"] / overload_totals["arrivals"]
    lines = [
        "Endurance — open-loop sustained load with admission control",
        f"  deployment: {CELLS} cells, serial execution, max_inflight={MAX_INFLIGHT}",
        f"  steady  : {steady_totals['ok']} tx over {budget} min at "
        f"{STEADY_RATE} tx/s arrivals -> {steady_payload['throughput_tps']} tps, "
        f"p50 {steady_payload['latency_p50_s']}s, p99 {steady_payload['latency_p99_s']}s",
        f"  diurnal : {diurnal.totals()['ok']} tx over {DIURNAL_MINUTES} min "
        f"(2 -> 8 tx/s raised-cosine)",
        f"  overload: {overload_totals['arrivals']} arrivals at {OVERLOAD_RATE} tx/s, "
        f"{overload_totals['ok']} committed ({overload_payload['throughput_tps']} tps), "
        f"{overload_totals['shed']} shed ({shed_rate:.0%})",
        f"  capacity model predicts {predicted:.2f} tps; measured overload within ±20%",
        "  same-seed overload replay bit-identical; conservation and differential "
        "oracles pass with sheds present",
        "",
        "  minute  submitted  ok    shed  tps     p50(s)  p99(s)  queue",
    ]
    for row in series[: min(10, len(series))]:
        lines.append(
            f"  {row['minute']:>6} {row['submitted']:>10} {row['ok']:>5} "
            f"{row['shed']:>5} {row['tps']:>7.2f} {row['p50']:>7.3f} "
            f"{row['p99']:>7.3f} {row['queue_depth']:>6}"
        )
    if len(series) > 10:
        lines.append(f"  ... ({len(series) - 10} more steady minutes in BENCH_endurance.json)")
    write_output("endurance", "\n".join(lines))
