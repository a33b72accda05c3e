"""Unit coverage for the recovery plumbing: ledger sync, snapshot adoption,
membership quorums, and evidence verification on membership updates."""

import dataclasses

import pytest

from repro.core import DataSnapshot, LedgerError, SnapshotError, TransactionLedger
from repro.core.consensus import ConsensusError, OverlayConsensus
from repro.core.config import SystemInvariants
from repro.crypto import PrivateKey
from repro.client import BlockumulusClient, FastMoneyClient
from repro.messages import EcdsaSigner, Envelope, ExclusionVote, Opcode, SyncState
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
