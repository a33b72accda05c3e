"""Report-cycle lifecycle: snapshots, anchoring, gas accounting."""

import pytest

from repro.client import BlockumulusClient, FastMoneyClient
from repro.messages import SimulatedSigner
from repro.sim import CellServiceModel, ConstantLatency
from tests.conftest import make_deployment


def test_cells_anchor_identical_fingerprints_each_cycle():
    deployment = make_deployment(consortium_size=3, report_period=20.0, eth_block_interval=2.0)
    client = BlockumulusClient(deployment)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))
    deployment.env.run(fastmoney.transfer("0x" + "ab" * 20, 10))
    # Run past two report deadlines plus block-inclusion time.
    deployment.run(until=70.0)
    anchored = [deployment.anchored_report(1, index) for index in range(3)]
    assert all(value is not None for value in anchored)
    assert len({value.hex() for value in anchored}) == 1


def test_snapshot_retention_matches_configuration():
    deployment = make_deployment(report_period=10.0)
    deployment.run(until=65.0)
    for cell in deployment.cells:
        assert len(cell.snapshots.retained_cycles()) <= 3
        assert cell.snapshots.latest_cycle is not None


def test_report_gas_matches_table3_figure():
    deployment = make_deployment(report_period=15.0, eth_block_interval=2.0)
    deployment.run(until=60.0)
    gas_values = [report["gas_used"] for cell in deployment.cells for report in cell.reports_submitted]
    assert gas_values
    for gas in gas_values:
        assert abs(gas - 49_193) / 49_193 < 0.10


def test_reports_marked_successful_and_counted():
    deployment = make_deployment(report_period=15.0, eth_block_interval=2.0)
    deployment.run(until=60.0)
    cell = deployment.cell(0)
    assert cell.reports_submitted
    assert all(report["success"] for report in cell.reports_submitted)
    stats = cell.statistics()
    assert stats["reports_submitted"] == len(cell.reports_submitted)


def test_auto_report_can_be_disabled():
    deployment = make_deployment(auto_report=False, report_period=10.0)
    deployment.run(until=45.0)
    for cell in deployment.cells:
        assert cell.reports_submitted == []
        # Snapshots are still taken locally for auditors.
        assert cell.snapshots.latest_cycle is not None
    assert deployment.anchored_report(1, 0) is None


def test_fingerprints_stable_when_no_transactions_flow():
    deployment = make_deployment(report_period=10.0)
    deployment.run(until=45.0)
    cell = deployment.cell(0)
    cycles = cell.snapshots.retained_cycles()
    fingerprints = {cell.snapshots.get(cycle).fingerprint for cycle in cycles}
    assert len(fingerprints) == 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the report stage pauses admission, not execution, and takes "
    "the snapshot's last sequence from the admitted entries",
)
def test_a_snapshot_covers_only_entries_that_have_executed():
    """Three faucets arrive just before the cycle-0 deadline at cells that
    execute one call at a time, 50 ms each."""
    deployment = make_deployment(
        signature_scheme="sim", report_period=5.0,
        service_model=CellServiceModel(
            invoke_overhead=ConstantLatency(0.05), auth_overhead=ConstantLatency(0.002),
            aggregate_overhead_per_cell=0.001, invoke_cpu=0.0005,
            forward_cpu_per_cell=0.0002, max_parallel_invocations=1,
        ),
    )
    unexecuted = []
    for cell in deployment.cells:
        def take(cycle, timestamp, first_sequence, last_sequence,
                 cell=cell, real=cell.snapshots.take_snapshot):
            unexecuted.extend(
                (cell.node_name, entry.sequence) for entry in cell.ledger
                if entry.sequence <= last_sequence and entry.status == "admitted"
            )
            return real(cycle=cycle, timestamp=timestamp,
                        first_sequence=first_sequence, last_sequence=last_sequence)

        cell.snapshots.take_snapshot = take
    money = FastMoneyClient(BlockumulusClient(
        deployment, signer=SimulatedSigner("report-cycle/late"), node_name="report-cycle-late"
    ))

    def arrivals():
        yield deployment.env.timeout(4.9)
        for _ in range(3):
            money.faucet(1)
            yield deployment.env.timeout(0.02)

    deployment.env.process(arrivals())
    deployment.run(until=6.0)
    assert deployment.cell(0).snapshots.get(0).last_sequence == 2
    assert unexecuted == []
