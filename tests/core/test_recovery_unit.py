"""Unit coverage for the recovery plumbing: ledger sync, snapshot adoption,
membership quorums, and evidence verification on membership updates."""

import copy
import dataclasses
import itertools

import pytest

from repro.audit import Auditor
from repro.core import DataSnapshot, LedgerError, SnapshotError, TransactionLedger
from repro.core.consensus import ConsensusError, OverlayConsensus
from repro.core.config import SystemInvariants
from repro.core.recovery import RecoveryStage, _ResyncFailure
from repro.crypto import PrivateKey
from repro.client import BlockumulusClient, FastMoneyClient
from repro.messages import (
    EcdsaSigner, Envelope, ExclusionVote, Opcode, SimulatedSigner, SyncState,
)
from repro.sim import Environment
from tests.conftest import make_deployment


@pytest.fixture
def env():
    return Environment()


def _signed_envelope(seed: str, timestamp: float = 0.0) -> Envelope:
    signer = EcdsaSigner.from_seed(f"recovery-unit/{seed}")
    return Envelope.create(
        signer=signer,
        recipient=PrivateKey.from_seed("recovery-unit/cell").address,
        operation=Opcode.TX_SUBMIT,
        data={"contract": "fastmoney", "method": "faucet", "args": {"amount": 1}},
        timestamp=timestamp,
        nonce=f"0x{abs(hash(seed)) % 10**12:012d}",
    )


def _invariants(addresses) -> SystemInvariants:
    return SystemInvariants(
        deployment_id="unit",
        cell_addresses=tuple(addresses),
        report_period=60.0,
        initial_timestamp=0.0,
        forwarding_deadline=10.0,
        miss_threshold=5,
    )


# ----------------------------------------------------------------------
# Ledger sync support
# ----------------------------------------------------------------------
def test_sync_segment_carries_summary_envelope_and_result(env):
    ledger = TransactionLedger(env, "cell-a")
    envelope = _signed_envelope("tx1")
    entry = ledger.admit(envelope, cycle=0)
    ledger.mark_executed(entry.tx_id, "fastmoney", {"minted": 1}, b"\x11" * 32)
    segment = ledger.sync_segment(0)
    assert len(segment) == 1
    item = segment[0]
    assert item.summary.tx_id == entry.tx_id
    assert item.summary.fingerprint == b"\x11" * 32
    assert item.to_wire()["summary"] == entry.summary()
    assert item.result == {"minted": 1}
    assert Envelope.from_wire(item.envelope).payload.hash_hex() == entry.tx_id
    # since_sequence past the head yields nothing.
    assert ledger.sync_segment(1) == []


def test_backfill_reconstructs_a_peer_entry(env):
    donor = TransactionLedger(env, "donor")
    envelope = _signed_envelope("tx2")
    entry = donor.admit(envelope, cycle=3)
    donor.mark_executed(entry.tx_id, "fastmoney", {"ok": True}, b"\x22" * 32)
    item = donor.sync_segment(0)[0]

    rejoiner = TransactionLedger(env, "rejoiner")
    restored = rejoiner.backfill(Envelope.from_wire(item.envelope), item.summary, item.result)
    assert restored.status == "executed"
    assert restored.cycle == 3
    assert restored.fingerprint == b"\x22" * 32
    assert rejoiner.sync_digest() == donor.sync_digest()


def test_backfill_rejects_sequence_gaps_and_forged_tx_ids(env):
    donor = TransactionLedger(env, "donor")
    first = donor.admit(_signed_envelope("tx3"), cycle=0)
    second = donor.admit(_signed_envelope("tx4"), cycle=0)
    items = donor.sync_segment(0)

    rejoiner = TransactionLedger(env, "rejoiner")
    with pytest.raises(LedgerError):
        # Skipping sequence 0 must be detected as divergence.
        rejoiner.backfill(Envelope.from_wire(items[1].envelope), items[1].summary, None)
    mismatched = dataclasses.replace(items[0].summary, tx_id=second.tx_id)
    with pytest.raises(LedgerError):
        rejoiner.backfill(Envelope.from_wire(items[0].envelope), mismatched, None)
    assert first.tx_id != second.tx_id


def test_a_mistyped_donor_sync_record_is_a_malformed_body_not_a_crash():
    """A consortium member answers CELL_SYNC with ``"sequence": "abc"``."""
    deployment = make_deployment(consortium_size=3, signature_scheme="sim")
    deployment.env.run(FastMoneyClient(BlockumulusClient(deployment, service_cell_index=0)).faucet(5))
    donor, rejoiner = deployment.cell(1), deployment.cell(2)
    deployment.crash_cell(2)
    deployment.exclude_cell(2)

    def answer_with_a_mistyped_record(_src, request, _size) -> None:
        data = SyncState(
            donor=donor.address, snapshot=None,
            entries=tuple(donor.ledger.sync_segment(0)), head=len(donor.ledger),
        ).to_data()
        data["entries"][0]["summary"]["sequence"] = "abc"
        reply = Envelope.create(
            signer=donor.signer, recipient=rejoiner.address, operation=Opcode.CELL_SYNC_STATE,
            data=data, timestamp=deployment.env.now, nonce=donor.nonces.next(),
            reply_to=request.nonce,
        )
        deployment.network.send("byzantine-donor", rejoiner.node_name, reply, reply.byte_size())

    deployment.network.register("byzantine-donor", handler=answer_with_a_mistyped_record)
    deployment.restore_cell(2)
    recovery = deployment.env.process(rejoiner.recovery.resync(donor.address, "byzantine-donor"))
    deployment.env.run(recovery)  # used to raise ValueError out of _replay_entries

    assert not recovery.value.ok and "timed out" in recovery.value.reason
    assert deployment.metrics.counter(f"{rejoiner.node_name}/malformed_membership") == 1
    assert rejoiner.fault.crashed  # as after any failed recovery


# ----------------------------------------------------------------------
# Every way a hostile donor can fail a resync, and the reason each gives
# ----------------------------------------------------------------------
def _forged_snapshot(**fields):
    """A snapshot wire form no honest donor took (cycle 0, nothing excluded)."""
    return {
        "cycle": 0, "taken_at": 0.0, "cell_id": "forged", "fingerprint": "0x" + "00" * 32,
        "contract_fingerprints": {}, "state_export": {}, "last_sequence": -1, **fields,
    }


def _signed_call_without_a_method():
    return Envelope.create(
        signer=SimulatedSigner("recovery-unit/forger"),
        recipient=PrivateKey.from_seed("recovery-unit/cell").address,
        operation=Opcode.TX_SUBMIT, data={"contract": "fastmoney", "args": {}},
        timestamp=0.0, nonce="0x000000000001",
    ).to_wire()


def _with_replay(data, *entries):
    data["replay"] = list(entries)
    return data


def _resequenced(entry, sequence):
    return {**entry, "summary": {**entry["summary"], "sequence": sequence}}


def _edited(data, path, value):
    """``data`` with the value at ``path`` (keys and list indices) replaced."""
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    return data


#: (how the donor tampers with the n-th CELL_SYNC_STATE it sends, or None to
#: stay silent, given also the full records of the donor's ledger; the exact
#: reason the recovery reports, with ``{A}`` / ``{B}`` the tx ids of ledger
#: entries 0 and 1; how many attempts it took).  The first sync replays
#: entries 1 (B, a faucet cell 2 missed) and 2 (a refused transfer, which
#: moved no state): no snapshot was taken, so both travel as replayed
#: entries.  Recorded by the code that returned error strings, before
#: resync failures were raised; a replayed entry's envelope is read in link
#: form since it travels so.
RESYNC_FAILURES = {
    "silent donor": (
        lambda data, n, records: None,
        "donor unreachable or sync request timed out", 1,
    ),
    "malformed snapshot": (
        lambda data, n, records: {**data, "snapshot": {"cycle": "x"}},
        "malformed donor snapshot: malformed snapshot wire form: cycle must be int", 1,
    ),
    "restored state off its fingerprint": (
        lambda data, n, records: {**data, "snapshot": _forged_snapshot(
            contract_fingerprints={"fastmoney": "0x" + "11" * 32},
            state_export={"fastmoney": {}}, last_sequence=0,
        )},
        "restored state of 'fastmoney' does not match the donor fingerprint", 1,
    ),
    "malformed ledger entry": (
        lambda data, n, records: _edited(data, ("replay", 0, "envelope"), {}),
        "malformed donor ledger entry at sequence 1: malformed link envelope: payload: is missing",
        1,
    ),
    "invalid client signature": (
        lambda data, n, records: _edited(
            data, ("replay", 0, "envelope", "payload", "data", "args", "amount"), 4
        ),
        "donor ledger entry 1 has an invalid client signature", 1,
    ),
    "backfill off the local head": (
        lambda data, n, records: {
            **data, "snapshot": _forged_snapshot(last_sequence=2),
            "entries": [_resequenced(records[1], 2)], "replay": [],
        },
        "ledger backfill failed: backfill sequence 2 does not follow local head 1", 1,
    ),
    "replayed entry admitted twice": (
        lambda data, n, records: _with_replay(
            data, data["replay"][0], {**data["replay"][0], "sequence": 2}
        ),
        "ledger replay admission failed: transaction {B} is already in the ledger", 1,
    ),
    "replayed call without a method": (
        lambda data, n, records: _with_replay(data, {
            "sequence": 1, "cycle": 0, "status": "rejected",
            "envelope": _signed_call_without_a_method(),
        }),
        "replay of sequence 1 failed: transaction does not name a method", 1,
    ),
    "replay status divergence": (
        lambda data, n, records: _edited(data, ("replay", 0, "status"), "rejected"),
        "replay of sequence 1 diverged: local status 'executed' vs donor 'rejected'", 1,
    ),
    "executed entry in the divergent suffix": (
        lambda data, n, records: _with_replay(data, {**data["replay"][0], "sequence": 0}),
        "ledger divergence at sequence 0: local {A} vs donor {B} "
        "with executed entries in the divergent suffix", 1,
    ),
    "quorum not reached": (
        lambda data, n, records: {**data, "entries": [], "replay": []},
        "readmission quorum not reached", RecoveryStage.REJOIN_ATTEMPTS,
    ),
    "donor silent after readmission": (
        lambda data, n, records: None if n else _with_replay(data, data["replay"][0]),
        "donor unreachable during post-readmit backfill", 1,
    ),
    "replayed entry past the local head": (
        lambda data, n, records: _with_replay(data, data["replay"][1]),
        "donor ledger entry 2 does not follow local head 1", 1,
    ),
    "replayed entry within the snapshot without its record": (
        lambda data, n, records: {**data, "snapshot": _forged_snapshot(last_sequence=1)},
        "donor ledger entry 1 lies within the snapshot without its record", 1,
    ),
    "full record past the snapshot": (
        lambda data, n, records: {**data, "entries": [records[1]]},
        "donor ledger entry 1 lies past the snapshot with its full record", 1,
    ),
    "replayed entry naming an entry the cell does not hold": (
        lambda data, n, records: _with_replay(
            data, {key: value for key, value in data["replay"][0].items()
                   if key not in ("envelope", "to")} | {"held": 0},
        ),
        "donor ledger entry 1 names held entry 0, which this cell does not hold", 1,
    ),
}


def _recover_through(deployment, tamper=None):
    """Recover cell 2 from cell 1, which tampers with each CELL_SYNC_STATE it sends.

    Returns the result and the data fields of the bundles as sent.
    """
    donor = deployment.cell(1)
    honest_reply = donor.reply
    syncs = itertools.count()
    sent = []

    def reply(dst_node, request, operation, data):
        if operation is Opcode.CELL_SYNC_STATE:
            if tamper is not None:
                records = [record.to_wire() for record in donor.ledger.sync_segment(0)]
                data = tamper(copy.deepcopy(data), next(syncs), records)
                if data is None:
                    return
            sent.append(data)
        honest_reply(dst_node, request, operation, data)

    donor.reply = reply
    recovery = deployment.recover_cell(2, donor_index=1)
    return deployment.env.run(recovery), sent


def _assert_down_after(deployment, result, reason, attempts):
    rejoiner = deployment.cell(2)
    assert result.reason == reason
    assert result.ok is False and result.attempts == attempts
    assert rejoiner.fault.crashed and not deployment.network.is_online(rejoiner.node_name)
    assert rejoiner.recovery.last_result is result
    assert result.completed_at == deployment.env.now > result.started_at
    assert result.messages_used > 0 and result.bytes_used > 0


@pytest.mark.parametrize("tamper, reason, attempts", RESYNC_FAILURES.values(), ids=RESYNC_FAILURES)
def test_a_hostile_donor_fails_the_resync_with_its_reason_and_the_cell_goes_back_down(
    tamper, reason, attempts
):
    deployment = make_deployment(consortium_size=3, signature_scheme="sim")
    client = BlockumulusClient(
        deployment, signer=SimulatedSigner("recovery-unit/payer"), node_name="recovery-unit-payer"
    )
    money = FastMoneyClient(client)
    deployment.env.run(money.faucet(5))
    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    deployment.env.run(money.faucet(3))
    assert not deployment.env.run(money.transfer("0x" + "7b" * 20, 100)).ok
    result, _sent = _recover_through(deployment, tamper)

    donor = deployment.cell(1)
    tx_ids = {"A": donor.ledger.entry_at(0).tx_id, "B": donor.ledger.entry_at(1).tx_id}
    _assert_down_after(deployment, result, reason.format(**tx_ids), attempts)


# ----------------------------------------------------------------------
# A first sync built on the rejoiner's own retained snapshot
# ----------------------------------------------------------------------
def _rejoiner_with_a_snapshot(diverged, across=False, readmitted=False):
    """Cell 2 holds a cycle-0 snapshot; it crashes and misses one faucet.

    Every cell ran faucet A before the cycle-0 deadline and faucet B after
    it; cells 0 and 1 ran faucet C once cell 2 had crashed.  With
    ``diverged``, cell 2 was excluded before the deadline, and so missed
    faucet D before it and B after it: its snapshot is not its peers'.
    With ``readmitted`` too, its peers readmit it after the deadline, so
    it holds B at sequence 1, where they hold D.  With ``across``, cell 2
    stays down past the cycle-1 deadline, at which its peers snapshot
    faucet C's state.
    """
    deployment = make_deployment(consortium_size=3, signature_scheme="sim")
    money = FastMoneyClient(BlockumulusClient(
        deployment, signer=SimulatedSigner("recovery-unit/keyed"), node_name="recovery-unit-keyed"
    ))
    deployment.env.run(money.faucet(5))
    if diverged:
        deployment.exclude_cell(2)
        deployment.env.run(money.faucet(7))
    deployment.run(until=deployment.config.report_period + 1.0)
    if readmitted:
        for peer in deployment.cells[:2]:
            peer.consensus.readmit(
                deployment.cell(2).address, peer.consensus.cycle_of(deployment.env.now)
            )
    deployment.env.run(money.faucet(2))
    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    deployment.env.run(money.faucet(3))
    if across:
        deployment.run(until=2 * deployment.config.report_period + 1.0)
    own, donors = deployment.cell(2).snapshots.get(0), deployment.cell(1).snapshots.get(0)
    assert deployment.cell(2).snapshots.latest_cycle == 0
    assert deployment.cell(1).snapshots.latest_cycle == (1 if across else 0)
    assert (own.fingerprint == donors.fingerprint) is not diverged
    return deployment


def test_a_rejoiner_whose_snapshot_the_donor_retains_gets_only_the_entries_past_it():
    deployment = _rejoiner_with_a_snapshot(diverged=False)
    donor, rejoiner = deployment.cell(1), deployment.cell(2)
    result, [bundle] = _recover_through(deployment)

    assert result.ok and result.readmitted, result.reason
    # Faucet B, which cell 2 held, travels as its position in the request's
    # ``held``; faucet C in link form, without the fields replay derives.
    assert bundle["snapshot"] is None and bundle["entries"] == []
    assert bundle["basis"]["cycle"] == 0 and bundle["basis"]["last_sequence"] == 0
    held, shipped = bundle["replay"]
    assert held == {"sequence": 1, "cycle": 1, "status": "executed", "held": 0,
                    "fingerprint": held["fingerprint"]}
    assert {"tx_id", "result", "contract", "error", "admitted_at"}.isdisjoint(shipped)
    assert {"recipient", "operation", "reply_to"}.isdisjoint(shipped["envelope"]["payload"])
    assert shipped["to"] == 0  # the client's service cell, in consortium order
    assert (result.replayed, result.referenced, result.backfilled) == (2, 1, 0)
    assert rejoiner.ledger.sync_digest() == donor.ledger.sync_digest()
    assert rejoiner.snapshots.latest_cycle == 0
    assert bundle["newer"] == []


def test_a_rejoiner_down_across_a_boundary_rebuilds_the_donors_later_snapshot_and_audits_clean():
    deployment = _rejoiner_with_a_snapshot(diverged=False, across=True)
    donor, rejoiner = deployment.cell(1), deployment.cell(2)
    result, [bundle] = _recover_through(deployment)

    assert result.ok and result.readmitted, result.reason
    # The donor states its cycle-1 snapshot, whose boundary is faucet C,
    # and ships none: cell 2 builds its own as its replay admits C.
    assert bundle["snapshot"] is None and bundle["basis"]["cycle"] == 0
    donors = donor.snapshots.get(1)
    assert bundle["newer"] == [{
        "cycle": 1, "last_sequence": 2, "fingerprint": donors.fingerprint_hex(),
    }]
    assert [item["sequence"] for item in bundle["replay"]] == [1, 2]
    assert rejoiner.snapshots.retained_cycles() == [0, 1]
    rebuilt = rejoiner.snapshots.get(1)
    assert (rebuilt.fingerprint, rebuilt.last_sequence) == (donors.fingerprint, 2)
    assert rebuilt.materialized_state() == donors.materialized_state()

    # Cell 2 serves the predecessor a succession audit of cycle 2 replays
    # from, and a recovery audit of cycle 1 finds it equal to the donor's.
    money = FastMoneyClient(BlockumulusClient(
        deployment, signer=SimulatedSigner("recovery-unit/after"), node_name="recovery-unit-after"
    ))
    assert deployment.env.run(money.faucet(4)).ok
    deployment.run(until=3 * deployment.config.report_period + 1.0)
    auditor = Auditor(deployment)
    audit = auditor.run_audit(2, 2)
    assert audit.passed, audit.issues
    assert audit.checked_transactions == 1
    recovery = auditor.run_recovery_audit(2, 1, cycle=1)
    assert recovery.passed and recovery.cycle == 1, recovery.issues


def test_a_rejoiner_whose_snapshot_differs_from_the_donors_gets_the_full_bundle():
    deployment = _rejoiner_with_a_snapshot(diverged=True)
    donor, rejoiner = deployment.cell(1), deployment.cell(2)
    result, [bundle] = _recover_through(deployment)

    assert result.ok and result.readmitted, result.reason
    assert bundle["snapshot"]["last_sequence"] == 1 and "basis" not in bundle
    # Faucet D, within the donor's snapshot, is backfilled from its full
    # record; B and C are replayed past it.
    assert [record["summary"]["sequence"] for record in bundle["entries"]] == [1]
    assert [item["sequence"] for item in bundle["replay"]] == [2, 3]
    assert all("held" not in item for item in bundle["replay"])
    assert (result.replayed, result.referenced, result.backfilled) == (2, 0, 1)
    assert rejoiner.ledger.sync_digest() == donor.ledger.sync_digest()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 12 and 1: a shipped snapshot's sync keeps the rejoiner's own "
    "entries below the donor's boundary, so the replay meets B, held at another position, "
    "and fails 'already in the ledger'",
)
def test_a_rejoiner_whose_ledger_below_the_donors_boundary_is_in_another_order_recovers():
    deployment = _rejoiner_with_a_snapshot(diverged=True, readmitted=True)
    donor, rejoiner = deployment.cell(1), deployment.cell(2)
    assert rejoiner.ledger.entry_at(1).tx_id == donor.ledger.entry_at(2).tx_id
    result, [bundle] = _recover_through(deployment)

    assert bundle["snapshot"]["last_sequence"] == 1
    assert result.ok, result.reason
    assert rejoiner.ledger.sync_digest() == donor.ledger.sync_digest()


def test_a_full_record_of_an_entry_the_cell_holds_is_skipped_unread():
    """A backfilled record of an entry the cell holds at its position: its
    envelope is neither parsed nor verified, only its id compared."""
    deployment = _rejoiner_with_a_snapshot(diverged=False)
    result, _sent = _recover_through(deployment)
    assert result.ok, result.reason
    rejoiner = deployment.cell(2)
    [record] = deployment.cell(1).ledger.sync_segment(1, 2)
    assert rejoiner.ledger.entry_at(1).tx_id == record.summary.tx_id
    unreadable = dataclasses.replace(record, envelope={"payload": "unreadable"})
    backfilled, head = result.backfilled, len(rejoiner.ledger)
    rejoiner.recovery._backfill_records([unreadable], 1, result)
    assert (result.backfilled, len(rejoiner.ledger)) == (backfilled, head)


def test_a_replayed_entry_the_cell_holds_is_skipped_before_its_signature_is_checked():
    """A delta round replays entries the cell admitted meanwhile: one held
    at its position is skipped, a bad signature and all."""
    deployment = _rejoiner_with_a_snapshot(diverged=False)
    result, _sent = _recover_through(deployment)
    assert result.ok, result.reason
    rejoiner, donor = deployment.cell(2), deployment.cell(1)
    held, other = donor.ledger.replay_segment(1, deployment.invariants.cell_addresses)
    assert rejoiner.ledger.entry_at(1).tx_id == donor.ledger.entry_at(1).tx_id
    forged = dataclasses.replace(
        held, envelope={**held.envelope, "signature": other.envelope["signature"]}
    )
    replayed, head = result.replayed, len(rejoiner.ledger)
    deployment.env.run(deployment.env.process(
        rejoiner.recovery._replay_entries([forged], -1, result)
    ))
    assert (result.replayed, len(rejoiner.ledger)) == (replayed, head)
    # The same entry at the head, which the cell does not hold, is checked.
    with pytest.raises(_ResyncFailure, match="entry 3 has an invalid client signature"):
        deployment.env.run(deployment.env.process(rejoiner.recovery._replay_entries(
            [dataclasses.replace(forged, sequence=3)], -1, result
        )))


def _drop_entry(data, index):
    data["replay"].pop(index)
    return data


def _as_held(item, position):
    return {key: value for key, value in item.items() if key not in ("envelope", "to")} | {
        "held": position
    }


def _built_on_the_donors_own(data):
    """The fallback bundle with the donor's snapshot stated as a basis and not shipped."""
    shipped = data["snapshot"]
    data["basis"] = {key: shipped[key] for key in ("cycle", "last_sequence", "fingerprint")}
    data["snapshot"] = None
    return data


def _later(data, **fields):
    data["newer"] = [{"cycle": 1, "last_sequence": 2, "fingerprint": "0x" + "66" * 32} | fields]
    return data


#: (how cell 2 came to hold its snapshot, as ``_rejoiner_with_a_snapshot``
#: takes it; how the donor tampers with its first CELL_SYNC_STATE; the
#: reason the recovery reports).
KEYED_RESYNC_FAILURES = {
    "entries from past another boundary": (
        {"diverged": False}, lambda data, n, records: _drop_entry(data, 0),
        "donor ledger entry 2 does not follow local head 1",
    ),
    "a reference to an entry the rejoiner does not hold": (
        {"diverged": False},
        lambda data, n, records: _edited(data, ("replay", 1), _as_held(data["replay"][1], 1)),
        "donor ledger entry 2 names held entry 1, which this cell does not hold",
    ),
    "no snapshot shipped although the fingerprints differ": (
        {"diverged": True}, lambda data, n, records: _built_on_the_donors_own(data),
        "donor built on snapshot 0 (last sequence 1), which this cell did not name",
    ),
    "a later snapshot whose fingerprint the replay does not reproduce": (
        {"diverged": False, "across": True},
        lambda data, n, records: _edited(data, ("newer", 0, "fingerprint"), "0x" + "66" * 32),
        "replay to the boundary of snapshot 1 does not reproduce the donor's fingerprint",
    ),
    "a later snapshot past the replayed entries": (
        {"diverged": False, "across": True},
        lambda data, n, records: _edited(data, ("newer", 0, "last_sequence"), 3),
        "donor stated snapshot 1 (last sequence 3), which its replay past snapshot 0 "
        "does not end on",
    ),
    "a later snapshot no later than the basis": (
        {"diverged": False, "across": True},
        lambda data, n, records: _edited(data, ("newer", 0, "cycle"), 0),
        "donor stated snapshot 0 (last sequence 2), which its replay past snapshot 0 "
        "does not end on",
    ),
    "a later snapshot without a basis": (
        {"diverged": True}, lambda data, n, records: _later(data),
        "donor stated later snapshots without a basis",
    ),
}


@pytest.mark.parametrize(
    "setup, tamper, reason", KEYED_RESYNC_FAILURES.values(), ids=KEYED_RESYNC_FAILURES
)
def test_a_hostile_donor_of_a_sync_built_on_a_snapshot_fails_it(setup, tamper, reason):
    deployment = _rejoiner_with_a_snapshot(**setup)
    result, _sent = _recover_through(deployment, tamper)
    _assert_down_after(deployment, result, reason, 1)


def test_entry_at_bounds(env):
    ledger = TransactionLedger(env, "cell-a")
    with pytest.raises(LedgerError):
        ledger.entry_at(0)
    entry = ledger.admit(_signed_envelope("tx5"), cycle=0)
    assert ledger.entry_at(0) is entry
    with pytest.raises(LedgerError):
        ledger.entry_at(-1)


# ----------------------------------------------------------------------
# Snapshot wire round-trip and adoption
# ----------------------------------------------------------------------
def _snapshot(cycle: int) -> DataSnapshot:
    return DataSnapshot(
        cycle=cycle,
        taken_at=float(cycle * 60),
        cell_id="donor",
        contract_fingerprints={"fastmoney": b"\x33" * 32},
        excluded_contracts=(),
        fingerprint=b"\x44" * 32,
        state_export={"fastmoney": {"balances/alice": 7}},
        first_sequence=0,
        last_sequence=4,
    )


def test_snapshot_from_wire_round_trip():
    original = _snapshot(2)
    rebuilt = DataSnapshot.from_wire(original.to_wire(include_state=True), cell_id="rejoiner")
    assert rebuilt.cycle == 2
    assert rebuilt.cell_id == "rejoiner"
    assert rebuilt.contract_fingerprints == original.contract_fingerprints
    assert rebuilt.fingerprint == original.fingerprint
    assert rebuilt.last_sequence == 4
    assert rebuilt.materialized_state() == {"fastmoney": {"balances/alice": 7}}
    with pytest.raises(SnapshotError):
        DataSnapshot.from_wire({"cycle": "x"})


def test_snapshot_engine_adopt_reanchors_the_cycle_sequence():
    from repro.contracts.registry import ContractRegistry
    from repro.core import SnapshotEngine

    engine = SnapshotEngine("rejoiner", ContractRegistry())
    engine.adopt(_snapshot(5))
    assert engine.latest_cycle == 5
    assert engine.has(5)
    # Taking the next snapshot after adoption works; re-adopting stale ones fails.
    engine.take_snapshot(cycle=6, timestamp=360.0, first_sequence=5, last_sequence=5)
    assert engine.latest_cycle == 6
    with pytest.raises(SnapshotError):
        engine.adopt(_snapshot(6))


# ----------------------------------------------------------------------
# Consensus quorum arithmetic
# ----------------------------------------------------------------------
def test_quorum_sizes():
    assert OverlayConsensus.quorum_size(1) == 1
    assert OverlayConsensus.quorum_size(2) == 2
    assert OverlayConsensus.quorum_size(3) == 2
    assert OverlayConsensus.quorum_size(4) == 3
    with pytest.raises(ConsensusError):
        OverlayConsensus.quorum_size(0)


def test_exclusion_and_readmission_quorums_ignore_the_subject():
    addresses = [PrivateKey.from_seed(f"q/{i}").address for i in range(4)]
    consensus = OverlayConsensus(_invariants(addresses))
    suspect = addresses[3]
    # 3 voters besides the suspect -> strict majority is 2.
    assert consensus.exclusion_quorum(suspect) == 2
    consensus.exclude(suspect, cycle=0)
    assert not consensus.is_active(suspect)
    # Electorate unchanged after the exclusion (suspect was never a voter).
    assert consensus.readmission_quorum(suspect) == 2
    consensus.readmit(suspect)
    assert consensus.is_active(suspect)


def test_vote_evidence_signature_flip_is_rejected():
    signer = EcdsaSigner.from_seed("q/evidence")
    suspect = PrivateKey.from_seed("q/suspect").address
    vote = ExclusionVote.create(signer, suspect=suspect, cycle=9, agree=True)
    assert vote.verify()
    tampered = ExclusionVote(
        voter=vote.voter,
        suspect=vote.suspect,
        cycle=vote.cycle + 1,  # replay into a different cycle
        agree=vote.agree,
        signature=vote.signature,
        scheme=vote.scheme,
    )
    assert not tampered.verify()
