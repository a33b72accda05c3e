"""Crash behaviour must be identical with batching on and off.

The regression being pinned down: a cell that crashed while work was in
flight used to keep emitting batched messages (a flush fired after the
crash) and kept executing transactions that arrived inside a batch before
the crash — neither of which can happen with per-transaction messaging.
After the fix, a crashed cell executes nothing and emits nothing from the
moment ``FaultPlan.crashed`` flips, in both pipeline modes.
"""

import pytest

from repro.client import BlockumulusClient, FastMoneyClient
from tests.conftest import make_deployment


def _cell_messages_out(deployment, index: int) -> int:
    """Total messages the cell at ``index`` has sent to anyone."""
    node = deployment.cell(index).node_name
    return sum(
        counter.messages
        for (src, _dst), counter in deployment.network.traffic.items()
        if src == node
    )


@pytest.mark.parametrize("batching", [True, False])
def test_inbound_traffic_dropped_identically(batching):
    deployment = make_deployment(
        consortium_size=2, message_batching=batching, forwarding_deadline=1.0
    )
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))

    # Crash cell 1 (fault only — the network endpoint stays up, so batch
    # envelopes are still *delivered* and must be dropped by the cell).
    deployment.cell(1).fault.crashed = True
    sent_at_crash = _cell_messages_out(deployment, 1)

    event = fastmoney.transfer("0x" + "aa" * 20, 1)
    deployment.env.run(event)
    assert not event.value.ok
    assert "deadline" in event.value.error
    # The crashed cell admitted nothing and said nothing, in both modes.
    assert len(deployment.cell(1).ledger) == 1  # only the pre-crash faucet
    assert _cell_messages_out(deployment, 1) == sent_at_crash


@pytest.mark.parametrize("batching", [True, False])
def test_crash_mid_handling_suppresses_the_confirmation(batching):
    deployment = make_deployment(
        consortium_size=2,
        message_batching=batching,
        batch_quantum=0.5,
        forwarding_deadline=3.0,
    )
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))

    # Hold the forwarded transaction inside cell 1 long enough to crash the
    # cell while the work is mid-flight.
    deployment.cell(1).fault.extra_confirm_delay = 1.0
    event = fastmoney.transfer("0x" + "bb" * 20, 1)
    deployment.run(until=deployment.env.now + 0.5)
    deployment.cell(1).fault.crashed = True
    sent_at_crash = _cell_messages_out(deployment, 1)

    deployment.env.run(event)
    assert not event.value.ok
    assert _cell_messages_out(deployment, 1) == sent_at_crash
    # The in-flight transaction was dropped before admission.
    assert len(deployment.cell(1).ledger) == 1


def test_batched_flush_after_crash_drops_queued_items():
    """A confirmation held back by the batch rate bound dies with its cell.

    A destination idle for a quantum is flushed at once, so a confirmation
    only waits when its cell flushed to the same destination less than a
    quantum earlier.  Cell 1 confirms the faucet late (an extra delay
    before admitting it), which opens a quantum that is still running when
    the transfer's confirmation is queued; the cell crashes before that
    held-back flush.
    """
    deployment = make_deployment(
        consortium_size=2, message_batching=True, batch_quantum=0.5, forwarding_deadline=3.0
    )
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    cell1 = deployment.cell(1)
    cell1.fault.extra_confirm_delay = 0.3
    deployment.env.run(fastmoney.faucet(100))
    cell1.fault.extra_confirm_delay = 0.0

    # Let cell 1 execute the forwarded transfer and queue its confirmation
    # inside the quantum its faucet confirmation opened, then crash it.
    event = fastmoney.transfer("0x" + "cc" * 20, 1)
    while cell1.ledger.statistics()["executed"] < 2:
        deployment.env.step()
    assert cell1.ledger.statistics()["executed"] == 2  # faucet + transfer applied
    queue = cell1.batcher._queues[deployment.cell(0).node_name]
    assert len(queue.confirmations) == 1 and queue.flush_pending
    assert deployment.env.now < queue.last_flush + 0.5  # held back, not idle
    cell1.fault.crashed = True
    sent_at_crash = _cell_messages_out(deployment, 1)

    deployment.env.run(event)
    assert not event.value.ok  # the confirmation died with the cell
    assert _cell_messages_out(deployment, 1) == sent_at_crash
    assert cell1.batcher.items_dropped >= 1
    assert cell1.batcher.statistics()["items_dropped"] == cell1.batcher.items_dropped
