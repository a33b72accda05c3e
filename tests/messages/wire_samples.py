"""One fixed sample of every signed statement and every body with an encoder.

Everything in ``statements`` and ``bodies`` goes through ``create`` / the
constructors / ``of`` — the calls that exist unchanged on both sides of the
move to declared wire fields — so running this file as a script on the
commit *before* that move recorded ``golden_wire.json``, and
``test_golden_wire.py`` rebuilds the same samples on the current tree and
compares bytes.

The ``replies`` section was recorded the same way one step later: on the
last commit whose cell and gateway still spelled every reply out as a dict
literal (``ca727af``), by a script that evaluated those literals — copied
verbatim from ``core/cell.py`` / ``core/gateway.py`` — over the sample
objects below.  Here the same samples go through the declared reply classes
(``repro.core.replies``), so a reply byte that moves fails by name.  Do not
re-record that section from this file: it would compare the classes with
themselves.

One change moved bytes on purpose since: the aggregated receipt states its
transaction once and carries one ``(cell, timestamp, signature, scheme)``
co-signer per confirmation (``AggregatedReceipt.of`` builds it from the
confirmations).  Only the entries that embed a receipt were re-recorded
then, from this file — ``bodies.AggregatedReceipt`` and the ``TX_RECEIPT``,
``XSHARD_VOTE/receipt`` and ``XSHARD_VOUCHER/minted`` / ``/redeemed``
replies — and a script comparison showed every other entry byte-identical
to the table it replaced.

A second one: the cell↔cell link carries each confirmation as a
``LinkConfirmation`` (without the cell, scheme and called contract its
receiver holds), and ``tx_forward_batch``, ``tx_confirm_batch`` and
``tx_reject`` are gone (``tx_forward`` / ``tx_confirm`` carry the lists).
``bodies.ConfirmationBatch`` was re-recorded from this file, and the
``opcodes`` section (every opcode's wire name) was added — recorded first
on the commit before, by the same comprehension, then re-recorded here
without the three removed opcodes; a script comparison showed every other
entry byte-identical.

Entries have since been deleted, not re-recorded: the samples of two
evidence formats and one opcode that no participant sent went with their
classes and their enum member.

A third change moved bytes on purpose: a receipt on its way to the client
that signed its transaction is a ``CompactReceipt``, without what that
client's request and the reply envelope state (``CompactReceipt.of``
builds it from the receipt, the request and the reply's scheme and
moment).  Only the entries that embed one were re-recorded, from this
file — the ``TX_RECEIPT``, ``XSHARD_VOTE/receipt`` and
``XSHARD_VOUCHER/minted`` / ``/redeemed`` replies and
``bodies.CrossShardVote/reply`` — and a script comparison showed every
other entry, ``bodies.AggregatedReceipt`` included, byte-identical.

A fourth: a nested client envelope travels in its link form, without what
its receiver supplies — the recipient, a null ``reply_to`` and the
``ecdsa`` tag; a ``TX_FORWARD`` item keeps its sender (the outer one is the
forwarding cell), a cross-shard body's ``transaction`` leaves it out too
(the outer one is the same client).  Only the entries that embed one were
re-recorded, from this file — ``bodies.ForwardBatch``,
``bodies.CrossShardPrepare``, ``bodies.CrossShardDecision`` and
``bodies.CrossShardVoucherTransfer/mint`` / ``/redeem`` — and a script
comparison showed every other entry, ``bodies.SyncState``,
``replies.LEDGER_RESPONSE`` and ``bodies.AggregatedReceipt`` included,
byte-identical.

The receipt builders have changed since without moving a byte, and nothing
was re-recorded: ``AggregatedReceipt.of`` is gone, so the sample receipt is
built with the constructor, and ``CompactReceipt.of`` builds the compact
receipt from the service cell's own confirmation, its peers', the request
and the reply's scheme and moment, as the service cell does.

A fifth change moved bytes on purpose: a signature travels as 87
characters of unpadded base64url instead of ``0x`` and 130 hex digits
(``repro.encoding.base64url``).  The table was converted, not re-recorded:
a script replaced each of the 42 ``0x``-hex signature texts by the
base64url of the same 65 bytes, checked that each decodes back to them and
that nothing else differs, and then compared the converted table with this
file's samples.  No entry had to be re-signed: no sample's signed bytes
embed a signature (the samples' nonces are fixed texts, not a
``NonceFactory``'s), so every ``statements`` body and signature — still
the raw signature as hex, a record of the bytes and not a wire text — is
byte-identical.

A sixth change moved bytes on purpose: a ``TX_RECEIPT``'s data field is
the ``CompactReceipt`` itself, without the ``{"receipt": …}`` wrapper, and
a compact receipt no longer declares ``submitted_at`` (always the
request's) or ``completed_at`` (always its ``timestamp``).  Its peer
co-signers are ``CoSigner``s whose ``scheme`` is left out where it is the
reply's.  Only ``replies.TX_RECEIPT`` was re-recorded, by a script that
checked it equals the old entry's ``receipt`` and that every other entry —
``bodies.AggregatedReceipt``, ``bodies.CrossShardVote/reply`` and
``bodies.CrossShardVoucherTransfer/redeem`` (whose ``voucher`` is now a
nested ``CrossShardVoucher``) included — is byte-identical.

A seventh: a compact receipt no longer carries its fingerprint, which the
client derives from its own request and the carried result.  Only the
five entries that embed one were re-recorded — ``replies.TX_RECEIPT``,
``replies.XSHARD_VOTE/receipt``, ``replies.XSHARD_VOUCHER/minted`` /
``/redeemed`` and ``bodies.CrossShardVote/reply`` — by a script that
checked each equals its old entry without the receipt's ``fingerprint``
key and that the 62 other entries (every statement's body and signature,
``bodies.AggregatedReceipt`` and ``bodies.ConfirmationBatch`` included)
are byte-identical.  A ``TX_RECEIPT`` and a ``TX_CONFIRM`` now travel
unsigned, but no entry here holds an envelope.

An eighth: three more statements travel as signatures whose reader
rebuilds what was signed.  A link confirmation of an executed call leaves
out the fingerprint and status its signer's own execution gives (the
service cell states its own) and a timestamp that is the carrying
``TX_CONFIRM``'s; a compact receipt leaves out its peer co-signers' cells
where they are the consortium's other cells in its order; a minted voucher
reply carries only the voucher's signature, a redeem a ``CompactVoucher``
(issuer, source group, signature), and neither leg nor its reply carries
the outer ``xtx`` or a false ``duplicate``.  The ten entries that embed
one were re-recorded — ``replies.TX_RECEIPT``, ``replies.XSHARD_VOTE/receipt``,
``replies.XSHARD_VOUCHER/minted`` / ``/redeemed`` / ``/duplicate``,
``bodies.CrossShardVote/reply``, ``bodies.CrossShardVoucherTransfer/mint``
/ ``/redeem`` and ``bodies.ConfirmationBatch``, and the new
``bodies.CompactReceipt/named`` (a receipt while a third cell is excluded)
— by a script that checked each differs from its old entry only by the
keys that left, and that every other entry (every statement's body and
signature, ``bodies.AggregatedReceipt`` included) is byte-identical.

A ninth: a ``TX_FORWARD`` item leaves out its opcode, which is always
``tx_submit`` and which the receiving cell supplies.  Only
``bodies.ForwardBatch`` was re-recorded, by a script that checked each of
its items equals its old one without ``"operation":"tx_submit"`` and that
every other entry is byte-identical.
"""

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_wire.json")

TX_ID = "0x" + "11" * 32
FINGERPRINT = "0x" + "22" * 32
HOLDER = "0x" + "55" * 20


def build():
    """``(statements, bodies, replies)``: name -> signed statement / data field / reply data."""
    from repro.core.cell import OVERLOADED_ERROR
    from repro.core.ledger import TransactionLedger
    from repro.core.receipts import (
        AggregatedReceipt,
        CompactReceipt,
        Confirmation,
        ConfirmationBatch,
        CoSigner,
        LinkConfirmation,
    )
    from repro.core.replies import (
        ErrorReply,
        LedgerResponse,
        QueryResult,
        SnapshotResponse,
        SubscriptionAck,
        VoteReply,
        VoucherReply,
    )
    from repro.core.snapshot import DataSnapshot
    from repro.messages import Envelope, Opcode, SimulatedSigner
    from repro.messages.batch import ForwardBatch
    from repro.messages.membership import (
        ExclusionProposal,
        ExclusionVote,
        MembershipUpdate,
        RejoinAck,
        RejoinRequest,
        SnapshotBasis,
        SyncRequest,
        SyncState,
    )
    from repro.messages.xshard import (
        CompactVoucher,
        CrossShardDecision,
        CrossShardPrepare,
        CrossShardVote,
        CrossShardVoucher,
        CrossShardVoucherTransfer,
    )
    from repro.sim import Environment

    signer = SimulatedSigner("golden-signer")
    peer = SimulatedSigner("golden-peer").address
    statements = {
        # An unrounded timestamp: six places under the signature and on the wire.
        "Confirmation": Confirmation.create(
            signer, TX_ID, "fastmoney", FINGERPRINT, "executed", 12.3456789
        ),
        "Confirmation/rejected": Confirmation.create(
            signer, TX_ID, "fastmoney", FINGERPRINT, "rejected", 3.0, error="insufficient funds"
        ),
        "ExclusionVote": ExclusionVote.create(signer, peer, 3, True),
        "RejoinAck": RejoinAck.create(signer, peer, 3, FINGERPRINT, True, admitted_head=7),
        "RejoinAck/legacy-head": RejoinAck.create(signer, peer, 4, FINGERPRINT, False),
        "CrossShardVote": CrossShardVote.create(signer, "0xa1", 0, (0, 1), "prepare", True),
        # The expiry is an exact number: not rounded.
        "CrossShardVoucher": CrossShardVoucher.create(
            signer, "0xa1", 0, 1, "pay@1", HOLDER, 10, 99.123456789
        ),
    }

    inner = Envelope.create(
        signer=signer, recipient=peer, operation=Opcode.TX_SUBMIT,
        data={"contract": "pay", "method": "transfer", "args": {"to": HOLDER, "amount": 1}},
        timestamp=1.25, nonce="0xabcdef",
    )
    ledger = TransactionLedger(Environment(), "golden-cell")
    executed = ledger.admit(inner, cycle=2)
    ledger.mark_executed(executed.tx_id, "pay", {"moved": 1}, b"\x33" * 32)
    admitted = Envelope.create(
        signer=signer, recipient=peer, operation=Opcode.TX_SUBMIT,
        data={"contract": "pay", "method": "faucet", "args": {"amount": 2}},
        timestamp=2.5, nonce="0xabcdf0",
    )
    ledger.admit(admitted, cycle=2, contingency=True)
    # A forwarded call of the contract the sample confirmations name.
    called = Envelope.create(
        signer=signer, recipient=peer, operation=Opcode.TX_SUBMIT,
        data={"contract": "fastmoney", "method": "transfer", "args": {"to": HOLDER, "amount": 1}},
        timestamp=1.25, nonce="0xabcdf1",
    )

    confirmation, rejected = statements["Confirmation"], statements["Confirmation/rejected"]
    vote, ack = statements["ExclusionVote"], statements["RejoinAck"]
    xvote, voucher = statements["CrossShardVote"], statements["CrossShardVoucher"]
    receipt = AggregatedReceipt(
        tx_id=TX_ID, contract="fastmoney", method="transfer", result={"amount": 5},
        service_cell=peer, fingerprint_hex=FINGERPRINT, status="executed", cycle=1,
        submitted_at=1.0000004, completed_at=3.4999996,
        cosigners=(CoSigner(
            confirmation.cell, confirmation.timestamp, confirmation.signature,
            confirmation.scheme,
        ),),
    )
    # ``called``'s receipt as its service cell (the signer) replies with it
    # at 3.5: its peer signed another moment, which travels.  The peer is the
    # consortium's other cell, so it goes unnamed; while a third cell is
    # excluded, it is named.
    called_id = called.payload.hash_hex()
    cosigned = (
        Confirmation.create(signer, called_id, "fastmoney", FINGERPRINT, "executed", 3.5),
        [Confirmation.create(
            SimulatedSigner("golden-peer"), called_id, "fastmoney", FINGERPRINT, "executed",
            3.2500004,
        )],
        called,
    )
    served = dict(method="transfer", result={"amount": 5}, cycle=1, scheme=signer.scheme,
                  moment=3.5)
    compact = CompactReceipt.of(*cosigned, **served, consortium=(signer.address, peer))
    excluded = SimulatedSigner("golden-excluded").address
    named = CompactReceipt.of(*cosigned, **served, consortium=(signer.address, excluded, peer))
    basis = SnapshotBasis(cycle=1, last_sequence=-1, fingerprint=b"\x66" * 32)
    # A cross-shard body nests its inner transaction without the identities
    # of the outer envelope, which has the same ones.
    nested = inner.to_link(with_sender=False)
    shape = dict(xtx="0xa1", group=0, participants=(0, 1), transaction=nested)
    bodies = {
        "ExclusionProposal": ExclusionProposal(peer, 3, "missed deadlines").to_data(),
        "ExclusionVote": vote.to_data(),
        "RejoinRequest": RejoinRequest(peer, 5, 4, 17, FINGERPRINT).to_data(),
        "RejoinAck": ack.to_data(),
        "MembershipUpdate/exclude": MembershipUpdate("exclude", peer, 3, votes=(vote,)).to_data(),
        "MembershipUpdate/readmit": MembershipUpdate("readmit", peer, 3, acks=(ack,)).to_data(),
        "SyncRequest": SyncRequest(4, delta_only=True).to_data(),
        "SyncRequest/basis": SyncRequest(
            4, basis=basis, held=(TX_ID, admitted.payload.hash_hex())
        ).to_data(),
        "SyncState": SyncState(
            donor=peer, snapshot={"cycle": 1, "fingerprint": FINGERPRINT},
            entries=tuple(ledger.sync_segment(0)), excluded=(peer.hex(),), head=2,
        ).to_data(),
        # Built on the requester's own snapshot: the executed entry travels
        # in link form to the consortium's second cell, the contingency one
        # as its position in the request's ``held``; the donor retains one
        # later snapshot, whose boundary is the executed entry.
        "SyncState/basis": SyncState(
            donor=peer, snapshot=None, basis=basis, entries=(),
            replay=tuple(ledger.replay_segment(
                0, (signer.address, peer), held=(TX_ID, admitted.payload.hash_hex())
            )),
            newer=(SnapshotBasis(cycle=2, last_sequence=0, fingerprint=b"\x77" * 32),),
            head=2,
        ).to_data(),
        "CrossShardPrepare": CrossShardPrepare(**shape).to_data(),
        "CrossShardVote": xvote.to_data(),
        "CrossShardVote/reply": VoteReply(xvote, compact, "late").to_data(),
        "CrossShardDecision": CrossShardDecision(
            decision="commit", votes=(xvote,), **shape
        ).to_data(),
        "CrossShardVoucherTransfer/mint": CrossShardVoucherTransfer(
            phase="mint", group=0, transaction=nested,
            target_group=1, target_contract="pay@1",
        ).to_data(),
        "CrossShardVoucherTransfer/redeem": CrossShardVoucherTransfer(
            phase="redeem", group=1, transaction=nested,
            voucher=CompactVoucher.of(voucher, signer.scheme),
        ).to_data(),
        # Sent at the executed one's moment, whose fingerprint is its signer's own.
        "ConfirmationBatch": ConfirmationBatch((
            LinkConfirmation.of(confirmation, called, FINGERPRINT),
            LinkConfirmation.of(rejected, inner, FINGERPRINT),
        )).data_at(confirmation.timestamp),
        "CompactReceipt/named": named.to_data(),
        "AggregatedReceipt": receipt.to_wire(),
        "ForwardBatch": ForwardBatch.of([inner, admitted]).to_data(),
        "LedgerEntry.summary": executed.summary(),
    }

    snapshot = DataSnapshot(
        cycle=2, taken_at=60.000001, cell_id="golden-cell",
        contract_fingerprints={"pay": b"\x44" * 32, "cas": b"\x55" * 32},
        excluded_contracts=("broken",), fingerprint=b"\x66" * 32,
        contract_types={"pay": "fastmoney", "cas": "cas"},
        state_export={"pay": {"balance/" + HOLDER: 3}, "cas": {}},
        first_sequence=0, last_sequence=1,
    )
    replies = {
        "TX_ERROR/bare": ErrorReply("authentication failed"),
        "TX_ERROR/shed": ErrorReply(OVERLOADED_ERROR, shed=True),
        "TX_ERROR/failed-with-cells": ErrorReply(
            "fingerprint mismatch across consortium cells", tx_id=TX_ID,
            missing_cells=(), mismatched_cells=(peer.hex(),),
        ),
        "TX_ERROR/xtx": ErrorReply("cross-shard transaction 0xa1 was already prepared", xtx="0xa1"),
        "TX_RECEIPT": compact,
        "SUBSCRIBE_ACK": SubscriptionAck(peer, 12.3456789, 0.05),
        "QUERY_RESULT": QueryResult({"balance": 5, "holders": [HOLDER]}),
        "XSHARD_VOTE/bare": VoteReply(xvote),
        "XSHARD_VOTE/receipt": VoteReply(xvote, receipt=compact),
        "XSHARD_VOTE/error": VoteReply(xvote, error="execution rejected"),
        "XSHARD_VOUCHER/minted": VoucherReply(
            "minted", signature=voucher.signature, receipt=compact
        ),
        "XSHARD_VOUCHER/redeemed": VoucherReply("redeemed", receipt=compact),
        "XSHARD_VOUCHER/duplicate": VoucherReply("redeemed", duplicate=True),
        "SNAPSHOT_RESPONSE": SnapshotResponse(snapshot),
        "LEDGER_RESPONSE": LedgerResponse(2, 2, tuple(ledger.segment(2, 2))),
    }
    return statements, bodies, replies


def record():
    """The JSON-serializable golden table of the tree this runs on."""
    from repro.messages import Opcode

    statements, bodies, replies = build()
    return {
        "opcodes": {opcode.name: opcode.value for opcode in Opcode},
        "replies": {name: reply.to_data() for name, reply in replies.items()},
        "statements": {
            name: {
                "body": statement.body().decode(),
                "signature": statement.signature.hex(),
                "wire": statement.to_wire(),
            }
            for name, statement in statements.items()
        },
        "bodies": bodies,
    }


if __name__ == "__main__":
    # python tests/messages/wire_samples.py <repo root whose src/ to record>
    sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
    recorded = record()
    recorded["replies"] = json.loads(GOLDEN.read_text())["replies"]  # see the docstring
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
