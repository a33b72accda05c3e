"""The Section V recovery loop: crash → exclusion → resync → rejoin.

The headline test runs the *same* workload (identical submission times, so
identical signed payloads and transaction ids) twice — once fault-free and
once with a scripted crash/exclusion/recovery of one cell — and requires
the ledgers, receipts, and snapshot fingerprints to come out identical.
"""

import pytest

from repro.audit import Auditor
from repro.client import BlockumulusClient, FastMoneyClient
from repro.messages import Envelope, ExclusionVote, MembershipUpdate, Opcode
from tests.conftest import make_deployment

#: (absolute sim time, destination, amount) — fixed so both runs sign
#: byte-identical payloads.
WORKLOAD = [
    (5.0, "0x" + "aa" * 20, 3),
    (7.0, "0x" + "aa" * 20, 2),
    (9.0, "0x" + "ab" * 20, 4),
    (35.0, "0x" + "bb" * 20, 1),   # submitted while one cell is down
    (37.0, "0x" + "bb" * 20, 2),
    (39.0, "0x" + "bc" * 20, 5),
    (41.0, "0x" + "bc" * 20, 1),
    (48.0, "0x" + "cc" * 20, 2),   # submitted after the cell rejoined
    (50.0, "0x" + "cd" * 20, 3),
]

CRASH_AT = 33.0
RECOVER_AT = 44.0
FINAL_AT = 65.0  # past the second report boundary (report_period = 30)


def _drive_workload(deployment, fastmoney):
    """Submit WORKLOAD at its fixed times; returns the result events."""
    env = deployment.env
    collected = []

    def submitter():
        for at, destination, amount in WORKLOAD:
            if at > env.now:
                yield env.timeout(at - env.now)
            collected.append(fastmoney.transfer(destination, amount))

    env.process(submitter())
    return collected


def _scripted_run(crash: bool):
    deployment = make_deployment(consortium_size=3, report_period=30.0)
    client = BlockumulusClient(
        deployment,
        signer=deployment.make_client_signer("recovery-scenario-client"),
        service_cell_index=0,
    )
    fastmoney = FastMoneyClient(client)
    faucet = fastmoney.faucet(1_000)
    deployment.env.run(faucet)
    assert faucet.value.ok

    events = _drive_workload(deployment, fastmoney)
    recovery = None
    if crash:
        deployment.run(until=CRASH_AT)
        deployment.crash_cell(2)
        deployment.exclude_cell(2)  # scripted consortium decision (Section V)
        deployment.run(until=RECOVER_AT)
        recovery = deployment.recover_cell(2)
    deployment.run(until=FINAL_AT)
    results = [event.value for event in events]
    assert all(event.triggered for event in events)
    return deployment, results, recovery


def _receipt_essence(results):
    return [
        (
            result.ok,
            result.tx_id,
            result.receipt.result if result.receipt else None,
            result.receipt.fingerprint_hex if result.receipt else None,
            result.receipt.cycle if result.receipt else None,
        )
        for result in results
    ]


def _state_fingerprints(cell):
    return {name: cell.contracts.get(name).fingerprint_hex() for name in cell.contracts.names()}


def test_scripted_crash_recover_cycle_matches_the_no_fault_run():
    baseline, baseline_results, _ = _scripted_run(crash=False)
    faulted, faulted_results, recovery = _scripted_run(crash=True)

    # The recovery itself succeeded and went through the full pipeline.
    result = recovery.value
    assert result.ok and result.readmitted and result.fingerprint_matched
    assert result.backfilled + result.replayed >= 4  # the downtime transactions
    assert result.duration > 0 and result.messages_used > 0

    # Every client-visible outcome is identical to the no-fault run.
    assert _receipt_essence(faulted_results) == _receipt_essence(baseline_results)
    for result_ in faulted_results:
        assert result_.ok

    # Ledgers: identical across the consortium and across the two runs.
    baseline_digest = baseline.cell(0).ledger.sync_digest()
    for deployment in (baseline, faulted):
        for cell in deployment.cells:
            assert cell.ledger.sync_digest() == baseline_digest

    # Contract state: identical fingerprints everywhere.
    expected_state = _state_fingerprints(baseline.cell(0))
    for deployment in (baseline, faulted):
        for cell in deployment.cells:
            assert _state_fingerprints(cell) == expected_state

    # Snapshot fingerprints of the final full cycle agree across cells and runs.
    cycle = 1
    expected_fp = baseline.cell(0).snapshots.get(cycle).fingerprint
    for deployment in (baseline, faulted):
        for cell in deployment.cells:
            assert cell.snapshots.get(cycle).fingerprint == expected_fp

    # The recovered cell anchored the post-recovery cycle like everyone else.
    assert faulted.anchored_report(cycle, 2) == expected_fp


def test_recovered_cell_passes_the_recovery_audit():
    faulted, _results, recovery = _scripted_run(crash=True)
    assert recovery.value.ok
    auditor = Auditor(faulted)
    report = auditor.run_recovery_audit(cell_index=2, reference_index=0)
    assert report.passed, [finding.details for finding in report.findings]
    assert report.cycle == 1
    # The ordinary per-cycle audit also passes on the recovered cell for the
    # post-recovery cycle (its adopted snapshot provides the predecessor).
    assert auditor.run_audit(cell_index=2, cycle=1).passed


def test_missed_deadlines_trigger_consortium_wide_vote_exclusion():
    deployment = make_deployment(
        consortium_size=3, forwarding_deadline=2.0, miss_threshold=2
    )
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))

    deployment.crash_cell(2)
    for _ in range(2):
        event = fastmoney.transfer("0x" + "aa" * 20, 1)
        deployment.env.run(event)
        assert not event.value.ok
    # Let the probe-and-vote round complete (probe deadline: 2 s).
    deployment.run(until=deployment.env.now + 5.0)

    crashed = deployment.cell(2).address
    # The observer excluded locally; the *other* live cell excluded via the
    # quorum-committed membership update, without burning its own misses.
    assert crashed in deployment.cell(0).consensus.excluded_cells()
    assert crashed in deployment.cell(1).consensus.excluded_cells()
    assert deployment.metrics.counter("cell-0/exclusions_committed") == 1
    assert deployment.metrics.counter("cell-1/cells_excluded_by_quorum") == 1

    # Recovery reverses the exclusion everywhere.
    recovery = deployment.recover_cell(2)
    deployment.env.run(recovery)
    assert recovery.value.ok
    deployment.run(until=deployment.env.now + 1.0)
    assert crashed not in deployment.cell(0).consensus.excluded_cells()
    assert crashed not in deployment.cell(1).consensus.excluded_cells()
    event = fastmoney.transfer("0x" + "bb" * 20, 1)
    deployment.env.run(event)
    assert event.value.ok
    assert len(event.value.receipt.confirmations) == 3


def test_standby_cell_bootstraps_into_the_quorum():
    deployment = make_deployment(consortium_size=2, standby_cells=1, report_period=30.0)
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(500))
    before = fastmoney.transfer("0x" + "dd" * 20, 5)
    deployment.env.run(before)
    assert len(before.value.receipt.confirmations) == 2  # standby not serving

    deployment.run(until=35.0)  # one anchored snapshot exists
    bootstrap = deployment.activate_standby(2)
    deployment.env.run(bootstrap)
    result = bootstrap.value
    assert result.ok and result.readmitted
    deployment.run(until=deployment.env.now + 1.0)

    after = fastmoney.transfer("0x" + "ee" * 20, 5)
    deployment.env.run(after)
    assert len(after.value.receipt.confirmations) == 3  # standby now confirms
    digests = {tuple(map(tuple, cell.ledger.sync_digest())) for cell in deployment.cells}
    assert len(digests) == 1


def test_rejoin_rejected_while_state_is_stale():
    deployment = make_deployment(consortium_size=3)
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))

    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    event = fastmoney.transfer("0x" + "aa" * 20, 7)
    deployment.env.run(event)
    assert event.value.ok

    # Restart the cell but ask to rejoin WITHOUT resyncing: its stale state
    # fingerprint must be voted down by every live peer.
    deployment.restore_cell(2)
    stale = deployment.cell(2)
    attempt = deployment.env.process(
        stale.membership.request_rejoin(basis_cycle=0, last_sequence=len(stale.ledger) - 1)
    )
    deployment.env.run(attempt)
    outcome = attempt.value
    assert not outcome.readmitted
    assert outcome.acks and all(not ack.agree for ack in outcome.acks)
    assert not outcome.silent  # every live peer answered, just disagreed
    assert stale.address in deployment.cell(0).consensus.excluded_cells()
    assert stale.address in deployment.cell(1).consensus.excluded_cells()


def test_recovery_rolls_back_entries_newer_than_the_donor_snapshot():
    """The crashed cell executed transactions *after* the donor's latest
    snapshot: restoring the snapshot rolls its state back, so those local
    entries must be truncated and re-executed from the donor's tail."""
    deployment = make_deployment(consortium_size=3, report_period=30.0)
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))
    deployment.run(until=31.0)  # snapshot cycle 0 taken everywhere

    # A post-snapshot transaction lands on all three cells (cycle 1)...
    event = fastmoney.transfer("0x" + "aa" * 20, 5)
    deployment.env.run(event)
    assert event.value.ok
    head = len(deployment.cell(2).ledger)

    # ...then cell 2 crashes and recovers before the next report boundary,
    # so the donor snapshot is older than cell 2's own ledger head.
    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    more = fastmoney.transfer("0x" + "ab" * 20, 2)
    deployment.env.run(more)
    assert more.value.ok
    recovery = deployment.recover_cell(2)
    deployment.env.run(recovery)
    result = recovery.value
    assert result.ok, result.reason
    assert result.truncated >= 1  # the post-snapshot entry was rolled back
    assert result.replayed >= result.truncated + 1  # ...and re-executed
    assert len(deployment.cell(2).ledger) == head + 1  # incl. the downtime tx

    deployment.run(until=deployment.env.now + 1.0)
    digests = {tuple(map(tuple, cell.ledger.sync_digest())) for cell in deployment.cells}
    assert len(digests) == 1
    fingerprints = {
        tuple(sorted(_state_fingerprints(cell).items())) for cell in deployment.cells
    }
    assert len(fingerprints) == 1


def test_failed_recovery_recrashes_the_cell():
    deployment = make_deployment(consortium_size=3)
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))
    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    deployment.crash_cell(1)  # the would-be donor goes down too

    recovery = deployment.recover_cell(2, donor_index=1)
    deployment.env.run(recovery)
    result = recovery.value
    assert not result.ok and "unreachable" in result.reason
    # The cell went back down rather than serving half-restored state.
    assert deployment.cell(2).fault.crashed
    assert not deployment.network.is_online(deployment.cell(2).node_name)


def test_sequentially_activated_standbys_converge_on_membership():
    """Two standbys activated one after the other must end up seeing each
    other as active (the readmit commit reaches every peer, and a rejoiner
    adopts the donor's membership view during resync)."""
    deployment = make_deployment(consortium_size=2, standby_cells=2, report_period=30.0)
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(500))
    deployment.run(until=31.0)

    for standby_index in (2, 3):
        bootstrap = deployment.activate_standby(standby_index)
        deployment.env.run(bootstrap)
        assert bootstrap.value.ok
        deployment.run(until=deployment.env.now + 1.0)

    # Every cell sees every other cell as active — no split views.
    for cell in deployment.cells:
        assert cell.consensus.excluded_cells() == []
    event = fastmoney.transfer("0x" + "ff" * 20, 1)
    deployment.env.run(event)
    assert event.value.ok
    assert len(event.value.receipt.confirmations) == 4


def test_stale_readmission_acks_cannot_revive_a_reexcluded_cell():
    """Replay protection: acks signed for an earlier recovery cycle must
    not readmit the cell after a later exclusion."""
    from repro.messages import RejoinAck

    deployment = make_deployment(consortium_size=3)
    cell0, cell1, cell2 = deployment.cells
    # cell2 was excluded at cycle 20 (a later episode than the old acks).
    cell0.consensus.exclude(cell2.address, cycle=20)

    old_acks = tuple(
        RejoinAck.create(
            signer, rejoiner=cell2.address, cycle=5,
            fingerprint_hex="0x" + "00" * 32, agree=True,
        )
        for signer in (cell0.signer, cell1.signer)
    )
    # Replayed verbatim (update.cycle = 5): stale, ignored.
    stale = MembershipUpdate(action="readmit", subject=cell2.address, cycle=5, acks=old_acks)
    envelope = Envelope.create(
        signer=cell2.signer, recipient=cell0.address,
        operation=Opcode.MEMBERSHIP_UPDATE, data=stale.to_data(),
        timestamp=deployment.env.now, nonce=cell2.nonces.next(),
    )
    cell0._on_message(cell2.node_name, envelope, envelope.byte_size())
    assert cell2.address in cell0.consensus.excluded_cells()

    # Re-labelled with a fresh cycle: the acks no longer match update.cycle,
    # so they carry no supporters.
    relabelled = MembershipUpdate(
        action="readmit", subject=cell2.address, cycle=21, acks=old_acks
    )
    assert relabelled.verified_supporters() == set()
    envelope = Envelope.create(
        signer=cell2.signer, recipient=cell0.address,
        operation=Opcode.MEMBERSHIP_UPDATE, data=relabelled.to_data(),
        timestamp=deployment.env.now, nonce=cell2.nonces.next(),
    )
    cell0._on_message(cell2.node_name, envelope, envelope.byte_size())
    assert cell2.address in cell0.consensus.excluded_cells()


def test_forged_membership_update_without_quorum_evidence_is_ignored():
    deployment = make_deployment(consortium_size=3)
    cell0, cell1, cell2 = deployment.cells

    # cell2 tries to evict cell1 with only its own vote (quorum needs 2).
    vote = ExclusionVote.create(cell2.signer, suspect=cell1.address, cycle=0, agree=True)
    update = MembershipUpdate(action="exclude", subject=cell1.address, cycle=0, votes=(vote,))
    envelope = Envelope.create(
        signer=cell2.signer,
        recipient=cell0.address,
        operation=Opcode.MEMBERSHIP_UPDATE,
        data=update.to_data(),
        timestamp=deployment.env.now,
        nonce=cell2.nonces.next(),
    )
    cell0._on_message(cell2.node_name, envelope, envelope.byte_size())
    assert cell1.address in cell0.consensus.active_cells()

    # Even a two-vote update fails if one signature does not verify.
    forged_wire = ExclusionVote.create(
        cell0.signer, suspect=cell1.address, cycle=0, agree=False
    ).to_wire()
    forged_wire["agree"] = True
    data = update.to_data()
    data["votes"].append(forged_wire)
    envelope = Envelope.create(
        signer=cell2.signer,
        recipient=cell0.address,
        operation=Opcode.MEMBERSHIP_UPDATE,
        data=data,
        timestamp=deployment.env.now,
        nonce=cell2.nonces.next(),
    )
    cell0._on_message(cell2.node_name, envelope, envelope.byte_size())
    assert cell1.address in cell0.consensus.active_cells()
