"""Cross-shard message bodies: round-trips, signatures, certificates."""

import pytest

from repro.messages import SimulatedSigner
from repro.messages.xshard import (
    CrossShardDecision,
    CrossShardError,
    CrossShardPrepare,
    CrossShardVote,
)

PARTICIPANTS = (0, 1)


def make_vote(seed: str, group: int, *, xtx: str = "0x01", phase: str = "prepare",
              ok: bool = True, participants: tuple = PARTICIPANTS) -> CrossShardVote:
    return CrossShardVote.create(SimulatedSigner(seed), xtx, group, participants, phase, ok)


def test_prepare_round_trip_and_validation():
    prepare = CrossShardPrepare(
        xtx="0xabc", group=1, participants=(0, 1), transaction={"payload": {}}
    )
    assert CrossShardPrepare.from_data(prepare.to_data()) == prepare
    with pytest.raises(CrossShardError):
        CrossShardPrepare(xtx="", group=0, participants=(0, 1), transaction={})
    with pytest.raises(CrossShardError):
        CrossShardPrepare(xtx="0x1", group=0, participants=(0,), transaction={})
    with pytest.raises(CrossShardError):
        CrossShardPrepare(xtx="0x1", group=2, participants=(0, 1), transaction={})
    with pytest.raises(CrossShardError):
        CrossShardPrepare.from_data({"xtx": "0x1"})


def test_vote_signature_round_trip():
    vote = make_vote("cell-a", 0)
    assert vote.verify()
    again = CrossShardVote.from_wire(vote.to_wire())
    assert again == vote and again.verify()
    # Any field change breaks the signature — including the participant
    # set, so a vote cannot be replayed into a reshaped transaction.
    tampered = CrossShardVote(
        voter=vote.voter, xtx=vote.xtx, group=vote.group, participants=vote.participants,
        phase=vote.phase, ok=False, signature=vote.signature, scheme=vote.scheme,
    )
    assert not tampered.verify()
    reshaped = CrossShardVote(
        voter=vote.voter, xtx=vote.xtx, group=vote.group, participants=(0, 1, 2),
        phase=vote.phase, ok=vote.ok, signature=vote.signature, scheme=vote.scheme,
    )
    assert not reshaped.verify()
    with pytest.raises(CrossShardError):
        CrossShardVote.create(SimulatedSigner("x"), "0x1", 0, PARTICIPANTS, "decide", True)
    with pytest.raises(CrossShardError):
        CrossShardVote.from_data({"vote": "not-a-dict"})


def test_vote_envelope_data_carries_receipt_and_error():
    from repro.core.receipts import CompactReceipt
    from repro.core.replies import VoteReply

    vote = make_vote("cell-a", 0)
    receipt = CompactReceipt(1, {"moved": 1}, b"\x01" * 65)
    data = VoteReply(vote, receipt=receipt).to_data()
    assert data == {**vote.to_data(), "receipt": receipt.to_wire()}  # no "error" while unset
    assert CrossShardVote.from_data(data) == vote
    assert VoteReply.from_data(data) == VoteReply(vote, receipt, None)


def test_decision_round_trip():
    votes = (make_vote("cell-a", 0), make_vote("cell-b", 1))
    decision = CrossShardDecision(
        xtx="0x01", decision="commit", group=0, participants=(0, 1),
        transaction={"payload": {}}, votes=votes,
    )
    assert CrossShardDecision.from_data(decision.to_data()) == decision
    with pytest.raises(CrossShardError):
        CrossShardDecision(
            xtx="0x01", decision="maybe", group=0, participants=(0, 1), transaction={}
        )


def test_commit_certificate_verification():
    signer_a, signer_b = SimulatedSigner("gw-a"), SimulatedSigner("gw-b")
    directory = {
        0: frozenset({signer_a.address}),
        1: frozenset({signer_b.address}),
    }
    good = CrossShardDecision(
        xtx="0x01", decision="commit", group=0, participants=(0, 1), transaction={},
        votes=(
            make_vote("gw-a", 0),
            make_vote("gw-b", 1),
        ),
    )
    assert good.certificate_error(directory) is None

    # A missing participant vote fails.
    partial = CrossShardDecision(
        xtx="0x01", decision="commit", group=0, participants=(0, 1), transaction={},
        votes=(make_vote("gw-a", 0),),
    )
    assert "missing prepare votes" in partial.certificate_error(directory)

    # A vote from an unknown signer fails even with a valid signature.
    outsider = CrossShardDecision(
        xtx="0x01", decision="commit", group=0, participants=(0, 1), transaction={},
        votes=(make_vote("gw-a", 0), make_vote("intruder", 1)),
    )
    assert "not from a known gateway" in outsider.certificate_error(directory)

    # Votes for another xtx or the wrong phase do not count.
    wrong_xtx = CrossShardDecision(
        xtx="0x01", decision="commit", group=0, participants=(0, 1), transaction={},
        votes=(make_vote("gw-a", 0), make_vote("gw-b", 1, xtx="0x02")),
    )
    assert "missing prepare votes" in wrong_xtx.certificate_error(directory)

    # A vote cast for a different participant set is rejected outright —
    # a coordinator cannot narrow the transaction after gathering votes.
    reshaped = CrossShardDecision(
        xtx="0x01", decision="commit", group=0, participants=(0, 1), transaction={},
        votes=(
            make_vote("gw-a", 0),
            make_vote("gw-b", 1, participants=(0, 1, 2)),
        ),
    )
    assert "participant set" in reshaped.certificate_error(directory)


def test_abort_certificate_requires_a_genuine_no_vote():
    signer_a, signer_b = SimulatedSigner("gw-a"), SimulatedSigner("gw-b")
    directory = {
        0: frozenset({signer_a.address}),
        1: frozenset({signer_b.address}),
    }
    # An abort without evidence is refused: with all-yes votes only a
    # commit is provable, so decisions are mutually exclusive.
    unbacked = CrossShardDecision(
        xtx="0x01", decision="abort", group=0, participants=(0, 1), transaction={},
        votes=(make_vote("gw-a", 0), make_vote("gw-b", 1)),
    )
    assert "no verified no-vote" in unbacked.certificate_error(directory)
    empty = CrossShardDecision(
        xtx="0x01", decision="abort", group=0, participants=(0, 1), transaction={}
    )
    assert "no verified no-vote" in empty.certificate_error(directory)
    # A genuine no vote from a known gateway is sufficient evidence.
    backed = CrossShardDecision(
        xtx="0x01", decision="abort", group=0, participants=(0, 1), transaction={},
        votes=(make_vote("gw-b", 1, ok=False),),
    )
    assert backed.certificate_error(directory) is None
    # …but not if it was signed by an outsider.
    forged = CrossShardDecision(
        xtx="0x01", decision="abort", group=0, participants=(0, 1), transaction={},
        votes=(make_vote("intruder", 1, ok=False),),
    )
    assert "not from a known gateway" in forged.certificate_error(directory)
