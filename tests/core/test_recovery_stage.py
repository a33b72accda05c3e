"""The recovery stage: the donor's bundle policy and the gate a resync holds.

Both halves of ``CELL_SYNC`` and the recovering gate live on
:class:`~repro.core.recovery.RecoveryStage`; these tests drive them through
the cell's routes.  That a recovering cell sheds client ingress, and counts
it in ``admission.shed_recovering``, is pinned by
``tests/integration/test_rejoin_inflight_window.py::test_recovering_cell_sheds_client_ingress``
and not repeated here.
"""

import pytest

from repro.client import BlockumulusClient, FastMoneyClient
from repro.contracts.community import FastMoney
from repro.core import DataSnapshot
from repro.messages import Envelope, Opcode, SimulatedSigner
from repro.messages.membership import SyncRequest
from tests.conftest import make_deployment

REPORT_PERIOD = 5.0


def _faucets(deployment, money, count):
    for _ in range(count):
        assert deployment.env.run(money.faucet(1)).ok


def _ask_for_sync(deployment, asker, donor, since_sequence, delta_only, basis=None, held=()):
    """The ``SyncState`` ``donor`` answers a ``CELL_SYNC`` from ``asker`` with."""
    request = SyncRequest(
        since_sequence=since_sequence, delta_only=delta_only, basis=basis, held=held
    )
    _request, waiter = asker.endpoint.ask(
        donor.node_name, donor.address, Opcode.CELL_SYNC, request.to_data(), deadline=1.0
    )
    bundle = deployment.env.run(waiter)
    assert bundle is not None
    return bundle


@pytest.fixture(scope="module")
def donor_deployment():
    """Three entries in cycle 0, covered by the donor's snapshot; three after it."""
    deployment = make_deployment(
        consortium_size=3, signature_scheme="sim", report_period=REPORT_PERIOD
    )
    money = FastMoneyClient(BlockumulusClient(
        deployment, signer=SimulatedSigner("recovery-stage/payer"),
        node_name="recovery-stage-payer",
    ))
    _faucets(deployment, money, 3)
    deployment.run(until=REPORT_PERIOD + 1.0)
    _faucets(deployment, money, 3)
    donor = deployment.cell(0)
    assert len(donor.ledger) == 6 and donor.snapshots.latest().last_sequence == 2
    return deployment


#: (delta_only, since_sequence) -> (a snapshot is sent, the sequences of the
#: full records, which the asker backfills, and of the entries it replays).
BUNDLE_POLICY = {
    "first sync past the snapshot rolls back to its boundary": (False, 5, True, [], [3, 4, 5]),
    "first sync behind the snapshot starts where asked": (False, 1, True, [1, 2], [3, 4, 5]),
    "delta sync starts where asked": (True, 5, False, [], [5]),
    "delta sync behind the snapshot starts where asked": (True, 1, False, [], [1, 2, 3, 4, 5]),
    "delta sync at the head is empty": (True, 6, False, [], []),
}


@pytest.mark.parametrize(
    "delta_only, since, with_snapshot, records, replayed", BUNDLE_POLICY.values(),
    ids=BUNDLE_POLICY,
)
def test_the_donor_sends_the_bundle_its_policy_names(
    donor_deployment, delta_only, since, with_snapshot, records, replayed
):
    donor, asker = donor_deployment.cell(0), donor_deployment.cell(1)
    bundle = _ask_for_sync(donor_deployment, asker, donor, since, delta_only)

    assert [item.summary.sequence for item in bundle.entries] == records
    assert [item.sequence for item in bundle.replay] == replayed
    assert bundle.basis is None
    assert bundle.head == len(donor.ledger) == 6
    assert bundle.donor == donor.address
    if with_snapshot:
        snapshot = DataSnapshot.from_wire(bundle.snapshot)
        assert snapshot.cycle == donor.snapshots.latest_cycle == 0
        assert snapshot.last_sequence == 2
    else:
        assert bundle.snapshot is None


def test_a_donor_without_a_snapshot_sends_entries_from_where_asked():
    deployment = make_deployment(consortium_size=3, signature_scheme="sim")
    money = FastMoneyClient(BlockumulusClient(
        deployment, signer=SimulatedSigner("recovery-stage/early"),
        node_name="recovery-stage-early",
    ))
    _faucets(deployment, money, 3)
    donor = deployment.cell(0)
    assert donor.snapshots.latest_cycle is None

    bundle = _ask_for_sync(deployment, deployment.cell(1), donor, 1, delta_only=False)
    assert bundle.snapshot is None and bundle.entries == ()
    assert [item.sequence for item in bundle.replay] == [1, 2]
    assert deployment.metrics.counter(f"{donor.node_name}/syncs_served") == 1


# ----------------------------------------------------------------------
# The gate: forwards parked, drained or dropped; no snapshot meanwhile
# ----------------------------------------------------------------------
def _crashed_rejoiner(donor_reply_delay):
    """Cell 2 crashed and excluded; cell 0, its donor, answers a sync late (or never)."""
    deployment = make_deployment(consortium_size=3, signature_scheme="sim", report_period=2.0)
    money = FastMoneyClient(BlockumulusClient(
        deployment, signer=SimulatedSigner("recovery-stage/gate"),
        node_name="recovery-stage-gate",
    ))
    _faucets(deployment, money, 2)
    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    donor = deployment.cell(0)
    honest_reply = donor.reply

    def reply(dst_node, request, operation, data):
        if operation is not Opcode.CELL_SYNC_STATE:
            honest_reply(dst_node, request, operation, data)
        elif donor_reply_delay is not None:
            deployment.env.call_at(
                deployment.env.now + donor_reply_delay,
                lambda: honest_reply(dst_node, request, operation, data),
            )

    donor.reply = reply
    return deployment


def _forward_mid_resync(deployment):
    """Start cell 2's resync and have cell 0 forward it a transaction at once.

    Returns the recovery process, the forwarded transaction's id and the
    verdicts of the stage's ``parks`` for it, in the order it gave them.
    """
    rejoiner, forwarder = deployment.cell(2), deployment.cell(0)
    verdicts = []
    real_parks = rejoiner.recovery.parks

    def parks(handler, *args):
        verdict = real_parks(handler, *args)
        verdicts.append(verdict)
        return verdict

    rejoiner.recovery.parks = parks
    transaction = Envelope.create(
        signer=SimulatedSigner("recovery-stage/forwarded"),
        recipient=forwarder.address,
        operation=Opcode.TX_SUBMIT,
        data={"contract": FastMoney.DEFAULT_NAME, "method": "faucet", "args": {"amount": 1}},
        timestamp=deployment.env.now,
        nonce="0x000000000001",
    )
    recovery = deployment.recover_cell(2, donor_index=0)
    forwarder.batcher.queue_forward(rejoiner.node_name, rejoiner.address, transaction)
    return recovery, transaction.payload.hash_hex(), verdicts


def _report_stages_run(cell, deployment):
    return (
        deployment.metrics.counter(f"{cell.node_name}/snapshots_taken"),
        len(cell.reports_submitted),
    )


def test_a_forward_parked_mid_resync_runs_once_the_resync_succeeds():
    deployment = _crashed_rejoiner(donor_reply_delay=4.5)
    rejoiner, peer = deployment.cell(2), deployment.cell(1)
    recovery, tx_id, verdicts = _forward_mid_resync(deployment)
    before = _report_stages_run(rejoiner, deployment)
    peer_before = _report_stages_run(peer, deployment)

    result = deployment.env.run(recovery)
    assert result.ok and result.readmitted, result.reason
    # Two report deadlines passed while the gate held: the peer took its
    # snapshots, the rejoiner none.
    assert _report_stages_run(peer, deployment)[0] >= peer_before[0] + 2
    assert _report_stages_run(rejoiner, deployment) == before
    # Parked when it arrived, re-handled once the gate opened.
    assert verdicts == [True, False]

    deployment.run(until=deployment.env.now + 0.5)
    assert rejoiner.ledger.get(tx_id).status == "executed"
    assert not rejoiner.recovery.recovering


def test_a_forward_parked_mid_resync_is_dropped_when_the_resync_fails():
    deployment = _crashed_rejoiner(donor_reply_delay=None)
    rejoiner, peer = deployment.cell(2), deployment.cell(1)
    recovery, tx_id, verdicts = _forward_mid_resync(deployment)
    before = _report_stages_run(rejoiner, deployment)
    peer_before = _report_stages_run(peer, deployment)

    result = deployment.env.run(recovery)
    assert not result.ok and "timed out" in result.reason
    assert _report_stages_run(peer, deployment)[0] >= peer_before[0] + 4
    deployment.run(until=deployment.env.now + 2.5)

    assert verdicts == [True]
    assert rejoiner.fault.crashed and not rejoiner.recovery.recovering
    assert not rejoiner.ledger.contains(tx_id)
    assert _report_stages_run(rejoiner, deployment) == before
