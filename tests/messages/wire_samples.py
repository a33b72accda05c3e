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
        ReceiptReply,
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
        SyncRequest,
        SyncState,
    )
    from repro.messages.xshard import (
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
    # at 3.5: its peer signed another moment, which travels.
    called_id = called.payload.hash_hex()
    compact = CompactReceipt.of(
        Confirmation.create(signer, called_id, "fastmoney", FINGERPRINT, "executed", 3.5),
        [Confirmation.create(
            SimulatedSigner("golden-peer"), called_id, "fastmoney", FINGERPRINT, "executed",
            3.2500004,
        )],
        called, method="transfer", result={"amount": 5}, cycle=1, scheme=signer.scheme,
        moment=3.5,
    )
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
        "SyncState": SyncState(
            donor=peer, snapshot={"cycle": 1, "fingerprint": FINGERPRINT},
            entries=tuple(ledger.sync_segment(0)), excluded=(peer.hex(),), head=2,
        ).to_data(),
        "CrossShardPrepare": CrossShardPrepare(**shape).to_data(),
        "CrossShardVote": xvote.to_data(),
        "CrossShardVote/reply": VoteReply(xvote, compact, "late").to_data(),
        "CrossShardDecision": CrossShardDecision(
            decision="commit", votes=(xvote,), **shape
        ).to_data(),
        "CrossShardVoucherTransfer/mint": CrossShardVoucherTransfer(
            xtx="0xa1", phase="mint", group=0, transaction=nested,
            target_group=1, target_contract="pay@1",
        ).to_data(),
        "CrossShardVoucherTransfer/redeem": CrossShardVoucherTransfer(
            xtx="0xa1", phase="redeem", group=1, transaction=nested,
            voucher=voucher.to_wire(),
        ).to_data(),
        "ConfirmationBatch": ConfirmationBatch((
            LinkConfirmation.of(confirmation, called), LinkConfirmation.of(rejected, inner),
        )).to_data(),
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
        "TX_RECEIPT": ReceiptReply(compact),
        "SUBSCRIBE_ACK": SubscriptionAck(peer, 12.3456789, 0.05),
        "QUERY_RESULT": QueryResult({"balance": 5, "holders": [HOLDER]}),
        "XSHARD_VOTE/bare": VoteReply(xvote),
        "XSHARD_VOTE/receipt": VoteReply(xvote, receipt=compact),
        "XSHARD_VOTE/error": VoteReply(xvote, error="execution rejected"),
        "XSHARD_VOUCHER/minted": VoucherReply("minted", "0xa1", voucher=voucher, receipt=compact),
        "XSHARD_VOUCHER/redeemed": VoucherReply(
            "redeemed", "0xa1", duplicate=False, receipt=compact
        ),
        "XSHARD_VOUCHER/duplicate": VoucherReply("redeemed", "0xa1", duplicate=True),
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
