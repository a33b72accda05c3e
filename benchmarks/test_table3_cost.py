"""Table III — Ethereum anchoring cost per 24 hours per cloud provider (E3).

The gas-per-report figure is *measured* from a live deployment on the
simulated chain (a real signed report transaction executed by the
SnapshotRegistry contract), then expanded into the paper's table of report
periods, and compared against the paper's published numbers.
"""

from repro.analysis import CostModel, PAPER_GAS_PER_REPORT, render_table3
from repro.sim import fast_test_service_model

from _harness import azure_deployment, write_output

#: Paper USD column (which is internally inconsistent with its own gas
#: column at 22 gwei / $733; see docs/BENCHMARKS.md, "Table III: the
#: paper's USD column").
PAPER_USD_10MIN = 218.08


def measure_gas_per_report() -> int:
    deployment = azure_deployment(
        2, service_model=fast_test_service_model(), report_period=20.0,
        eth_block_interval=2.0, signature_scheme="ecdsa",
    )
    deployment.run(until=60.0)
    gas_values = [
        report["gas_used"]
        for cell in deployment.cells
        for report in cell.reports_submitted
        if report["success"]
    ]
    assert gas_values, "no snapshot reports were anchored"
    return round(sum(gas_values) / len(gas_values))


def test_table3_cost(benchmark):
    measured_gas = benchmark.pedantic(measure_gas_per_report, rounds=1, iterations=1)
    measured_model = CostModel(gas_per_report=measured_gas)
    paper_model = CostModel(gas_per_report=PAPER_GAS_PER_REPORT)

    text = "Measured gas per snapshot report: " + f"{measured_gas:,}"
    text += f"  (paper: {PAPER_GAS_PER_REPORT:,}, delta "
    text += f"{100 * (measured_gas - PAPER_GAS_PER_REPORT) / PAPER_GAS_PER_REPORT:+.1f}%)\n\n"
    text += "Table III with the measured gas figure:\n"
    text += render_table3(measured_model.table())
    text += "\n\nTable III with the paper's gas figure (for reference):\n"
    text += render_table3(paper_model.table())
    text += (
        f"\n\nper-transaction fee overhead at 1,000 tx/day, 10-min reports: "
        f"${measured_model.fee_per_transaction(1_000):0.3f} "
        f"(paper: $0.218, i.e. ~26x cheaper than an average Ethereum transaction)"
        f"\nadvantage over the average Ethereum fee: "
        f"{measured_model.advantage_over_ethereum():.0f}x"
        f"\nmonthly fee per subscriber with 10,000 subscribers: "
        f"${measured_model.monthly_fee_per_subscriber(10_000):0.2f} (paper: $0.65)"
    )
    write_output("table3_cost", text)

    # The measured per-report gas lands within 10% of the paper's figure.
    assert abs(measured_gas - PAPER_GAS_PER_REPORT) / PAPER_GAS_PER_REPORT < 0.10
    # Gas per day scales exactly linearly with report frequency.
    rows = measured_model.table()
    assert rows[0].gas_per_day == 144 * measured_gas
    assert rows[-1].gas_per_day == measured_gas
    # The per-transaction fee advantage over L1 exceeds the paper's 26x.
    assert measured_model.advantage_over_ethereum() > 26
