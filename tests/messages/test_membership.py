"""Membership/resync message marshalling and signed-evidence rules."""

import pytest

from repro.crypto import PrivateKey
from repro.messages import (
    EcdsaSigner,
    EntrySummary,
    ExclusionProposal,
    ExclusionVote,
    MembershipError,
    MembershipUpdate,
    RejoinAck,
    RejoinRequest,
    SimulatedSigner,
    SyncEntry,
    SyncRequest,
    SyncState,
)


@pytest.fixture
def signer():
    return EcdsaSigner(PrivateKey.from_seed("membership-voter"))


@pytest.fixture
def other_signer():
    return EcdsaSigner(PrivateKey.from_seed("membership-suspect"))


def test_exclusion_proposal_round_trip(other_signer):
    proposal = ExclusionProposal(suspect=other_signer.address, cycle=4, reason="missed deadlines")
    rebuilt = ExclusionProposal.from_data(proposal.to_data())
    assert rebuilt == proposal


def test_exclusion_proposal_rejects_garbage():
    with pytest.raises(MembershipError):
        ExclusionProposal.from_data({"suspect": "not-hex", "cycle": 1})
    with pytest.raises(MembershipError):
        ExclusionProposal.from_data({"cycle": 1})


def test_exclusion_vote_signature_round_trip(signer, other_signer):
    vote = ExclusionVote.create(signer, suspect=other_signer.address, cycle=2, agree=True)
    assert vote.verify()
    rebuilt = ExclusionVote.from_data(vote.to_data())
    assert rebuilt.verify()
    assert rebuilt.voter == signer.address
    assert rebuilt.suspect == other_signer.address
    assert rebuilt.agree is True


def test_exclusion_vote_tamper_detected(signer, other_signer):
    vote = ExclusionVote.create(signer, suspect=other_signer.address, cycle=2, agree=False)
    wire = vote.to_wire()
    wire["agree"] = True  # flip the verdict, keep the signature
    assert not ExclusionVote.from_wire(wire).verify()


def test_rejoin_ack_signature_round_trip(signer, other_signer):
    ack = RejoinAck.create(
        signer,
        rejoiner=other_signer.address,
        cycle=3,
        fingerprint_hex="0x" + "ab" * 32,
        agree=True,
        admitted_head=17,
    )
    assert ack.verify()
    rebuilt = RejoinAck.from_data(ack.to_data())
    assert rebuilt.verify() and rebuilt.agree
    assert rebuilt.admitted_head == 17


def test_rejoin_ack_admitted_head_is_signed(signer, other_signer):
    """The backfill decision rides on admitted_head; a peer (or a relayer)
    must not be able to understate it after signing."""
    ack = RejoinAck.create(
        signer,
        rejoiner=other_signer.address,
        cycle=3,
        fingerprint_hex="0x" + "ab" * 32,
        agree=True,
        admitted_head=17,
    )
    wire = ack.to_wire()
    wire["admitted_head"] = 3  # pretend nothing was admitted in flight
    assert not RejoinAck.from_wire(wire).verify()


def test_rejoin_ack_without_admitted_head_stays_verifiable(signer, other_signer):
    """Pre-extension acks (no admitted_head on the wire) still verify, as
    the unknown-head sentinel -1."""
    ack = RejoinAck.create(
        signer,
        rejoiner=other_signer.address,
        cycle=3,
        fingerprint_hex="0x" + "ab" * 32,
        agree=True,
    )
    wire = ack.to_wire()
    assert wire["admitted_head"] == -1
    del wire["admitted_head"]
    rebuilt = RejoinAck.from_wire(wire)
    assert rebuilt.admitted_head == -1
    assert rebuilt.verify()


def test_rejoin_request_round_trip(other_signer):
    request = RejoinRequest(
        cell=other_signer.address,
        cycle=8,
        basis_cycle=7,
        last_sequence=41,
        fingerprint_hex="0x" + "cd" * 32,
    )
    assert RejoinRequest.from_data(request.to_data()) == request


def test_membership_update_requires_matching_evidence():
    with pytest.raises(MembershipError):
        MembershipUpdate(
            action="exclude", subject=PrivateKey.from_seed("x").address, cycle=0
        )
    with pytest.raises(MembershipError):
        MembershipUpdate(
            action="readmit", subject=PrivateKey.from_seed("x").address, cycle=0
        )
    with pytest.raises(MembershipError):
        MembershipUpdate.from_data(
            {"action": "promote", "subject": "0x" + "00" * 20, "cycle": 0}
        )


def test_verified_supporters_counts_only_valid_agreeing_votes(signer, other_signer):
    suspect = PrivateKey.from_seed("dead-cell").address
    agreeing = ExclusionVote.create(signer, suspect=suspect, cycle=1, agree=True)
    dissenting = ExclusionVote.create(other_signer, suspect=suspect, cycle=1, agree=False)
    forged_wire = ExclusionVote.create(other_signer, suspect=suspect, cycle=1, agree=False).to_wire()
    forged_wire["agree"] = True
    update = MembershipUpdate.from_data(
        {
            "action": "exclude",
            "subject": suspect.hex(),
            "cycle": 1,
            "votes": [agreeing.to_wire(), dissenting.to_wire(), forged_wire],
            "acks": [],
        }
    )
    assert update.verified_supporters() == {signer.address}


def test_verified_supporters_with_simulated_scheme():
    voter = SimulatedSigner("sim-voter")
    rejoiner = SimulatedSigner("sim-rejoiner")
    ack = RejoinAck.create(
        voter, rejoiner=rejoiner.address, cycle=0, fingerprint_hex="0x" + "00" * 32, agree=True
    )
    update = MembershipUpdate(
        action="readmit", subject=rejoiner.address, cycle=0, acks=(ack,)
    )
    assert update.verified_supporters() == {voter.address}


def test_sync_request_validation():
    assert SyncRequest.from_data({"since_sequence": 9}).since_sequence == 9
    # Pre-extension requests carry no delta_only flag: full sync.
    assert SyncRequest.from_data({"since_sequence": 9}).delta_only is False
    request = SyncRequest(since_sequence=4, delta_only=True)
    assert SyncRequest.from_data(request.to_data()) == request
    with pytest.raises(MembershipError):
        SyncRequest.from_data({"since_sequence": -1})
    with pytest.raises(MembershipError):
        SyncRequest.from_data({})


def test_sync_state_round_trip(signer):
    bundle = SyncState(
        donor=signer.address,
        snapshot={"cycle": 0, "fingerprint": "0x" + "00" * 32},
        entries=(SyncEntry(
            EntrySummary(0, "0x" + "11" * 32, 0, 1.5, "admitted", None, None, False, None),
            envelope={}, result=None,
        ),),
        head=12,
    )
    rebuilt = SyncState.from_data(bundle.to_data())
    assert rebuilt.donor == signer.address
    assert rebuilt.snapshot["cycle"] == 0
    assert rebuilt.entries == bundle.entries
    assert rebuilt.head == 12
    # Every donor states its head: a bundle without one is malformed.
    headless = {"donor": signer.address.hex(), "snapshot": None, "entries": []}
    with pytest.raises(MembershipError, match="head: is missing"):
        SyncState.from_data(headless)
    with pytest.raises(MembershipError, match="snapshot"):
        SyncState.from_data({**headless, "head": 0, "snapshot": "nope"})
    with pytest.raises(MembershipError, match="entries"):
        SyncState.from_data({**headless, "head": 0, "entries": "x"})
