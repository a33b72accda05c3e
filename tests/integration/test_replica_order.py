"""Every replica executes a transaction at nearly the same instant.

A receipt waits for the *last* of a transaction's executions across the
active cells, so the cells must serve their queues in one shared order.
Each cell's lane gate grants queued transactions by the rank
``(cycle, signed timestamp, tx id)``, which every replica computes alike.
Served in each cell's own arrival order instead, a saturated burst has
each cell run its own clients' transactions first, and the same
transaction starts about half a makespan apart on the two cells.
"""

import statistics

import pytest

from repro.client.workload import run_burst_transfers
from repro.sim import CellServiceModel, ConstantLatency
from tests.conftest import make_deployment

INVOKE_OVERHEAD = 0.05

#: Constant service times with contract execution the serial bottleneck.
SERIAL_EXECUTION = CellServiceModel(
    invoke_overhead=ConstantLatency(INVOKE_OVERHEAD),
    auth_overhead=ConstantLatency(0.002),
    aggregate_overhead_per_cell=0.001,
    invoke_cpu=0.0005,
    forward_cpu_per_cell=0.0002,
    cpu_workers=8,
    max_parallel_invocations=1,
)


def record_execution_starts(cell):
    """tx id -> the instant ``cell`` granted it a lane."""
    starts = {}
    acquire = cell.lanes.acquire

    def acquire_and_record(entry):
        grant = acquire(entry)
        grant.add_callback(lambda _event: starts.setdefault(entry.tx_id, cell.env.now))
        return grant

    cell.lanes.acquire = acquire_and_record
    return starts


@pytest.mark.parametrize("lanes", [1, 4])
def test_a_saturated_burst_starts_each_transaction_together_on_both_cells(lanes):
    deployment = make_deployment(
        signature_scheme="sim", service_model=SERIAL_EXECUTION, execution_lanes=lanes,
    )
    starts = [record_execution_starts(cell) for cell in deployment.cells]
    report = run_burst_transfers(deployment, count=240, pools=16)
    assert report.failure_count == 0 and len(report.results) == 240

    burst = [tx for tx in starts[0] if tx in starts[1]]
    assert len(burst) >= 240
    first = min(min(starts[0][tx], starts[1][tx]) for tx in burst)
    last = max(max(starts[0][tx], starts[1][tx]) for tx in burst)
    # Saturated: the burst keeps each cell's gate busy for many invocations,
    # and 16 senders are more than 4 lanes, so at 4 lanes the gate's
    # capacity binds too, not only each sender's conflict chain.
    assert last - first > 20 * INVOKE_OVERHEAD
    gaps = [abs(starts[0][tx] - starts[1][tx]) for tx in burst]
    assert statistics.median(gaps) < 2 * INVOKE_OVERHEAD


def test_a_long_saturated_burst_keeps_every_healthy_peer_inside_the_deadline():
    """A transaction an idle gate started at once still has time on its peers.

    The first transaction a cell's own clients bring finds its gate idle and
    starts there at once, whatever its rank; on the other cell it waits its
    place in the shared rank order, which can be most of a makespan.  Its
    forwarding deadline therefore starts only once nothing ranked before it
    is queued at the service cell.  Counted from the end of local execution
    instead, the deadline expired on one transaction of this 320-transfer
    burst: the client was told a transfer failed that both cells had executed.
    """
    deployment = make_deployment(
        signature_scheme="sim", service_model=SERIAL_EXECUTION, execution_lanes=1,
    )
    report = run_burst_transfers(deployment, count=320, pools=16)
    assert [result.error for result in report.results if not result.ok] == []
    assert len(report.results) == 320
