"""Confirmations and aggregated multi-signature receipts."""

import dataclasses
import json

import pytest

from repro.core.receipts import (
    AggregatedReceipt,
    CompactReceipt,
    Confirmation,
    CoSigner,
    ReceiptError,
)
from repro.core.replies import ReceiptReply, ReplyError
from repro.core.routes import read_reply
from repro.encoding import canonical_json
from repro.messages import EcdsaSigner, Envelope, Opcode, SimulatedSigner
from repro.messages.payload import Payload

CELL_A = EcdsaSigner.from_seed("receipt-cell-a")
CELL_B = EcdsaSigner.from_seed("receipt-cell-b")
TX_ID = "0x" + "11" * 32
FP = "0x" + "22" * 32


def make_confirmation(
    signer=CELL_A, status="executed", fingerprint=FP, tx_id=TX_ID, contract="fastmoney",
    timestamp=3.0, error=None,
):
    return Confirmation.create(
        signer, tx_id=tx_id, contract=contract, fingerprint_hex=fingerprint, status=status,
        timestamp=timestamp, error=error,
    )


def cosigner(confirmation):
    """What ``confirmation`` adds to a receipt that states its transaction."""
    return CoSigner(
        confirmation.cell, confirmation.timestamp, confirmation.signature, confirmation.scheme
    )


def make_receipt(confirmations):
    return AggregatedReceipt(
        tx_id=TX_ID, contract="fastmoney", method="transfer", result={"amount": 5},
        service_cell=CELL_A.address, fingerprint_hex=FP, status="executed", cycle=1,
        submitted_at=1.0, completed_at=3.5,
        cosigners=tuple(cosigner(confirmation) for confirmation in confirmations),
    )


def test_confirmation_signature_verifies():
    confirmation = make_confirmation()
    assert confirmation.verify()


def test_confirmation_wire_roundtrip():
    confirmation = make_confirmation()
    restored = Confirmation.from_wire(confirmation.to_wire())
    assert restored.verify()
    assert restored == confirmation


def test_tampered_confirmation_fails():
    confirmation = make_confirmation()
    tampered = dataclasses.replace(confirmation, fingerprint_hex="0x" + "33" * 32)
    assert not tampered.verify()


def test_simulated_scheme_confirmation():
    signer = SimulatedSigner("receipt-sim-cell")
    confirmation = Confirmation.create(
        signer, tx_id=TX_ID, contract="cas", fingerprint_hex=FP, status="executed", timestamp=1.0
    )
    assert confirmation.scheme == "sim" and confirmation.verify()


def test_malformed_confirmation_wire_rejected():
    with pytest.raises(ReceiptError):
        Confirmation.from_wire({"cell": "0x00"})


def test_receipt_verifies_with_matching_confirmations():
    receipt = make_receipt([make_confirmation(CELL_A), make_confirmation(CELL_B)])
    assert receipt.verify()
    assert receipt.verify(expected_cells=[CELL_A.address, CELL_B.address])
    assert receipt.latency == pytest.approx(2.5)
    assert set(receipt.cells()) == {CELL_A.address.hex(), CELL_B.address.hex()}


def test_receipt_rejects_missing_expected_cell():
    receipt = make_receipt([make_confirmation(CELL_A)])
    assert not receipt.verify(expected_cells=[CELL_A.address, CELL_B.address])


def test_receipt_states_an_executed_transaction():
    wire_form = make_receipt([make_confirmation(CELL_A)]).to_wire()
    with pytest.raises(ReceiptError):
        AggregatedReceipt.from_wire(dict(wire_form, status="rejected"))


def test_receipt_rebuilds_each_cosigners_statement():
    confirmations = [make_confirmation(CELL_A), make_confirmation(CELL_B, timestamp=3.25)]
    receipt = make_receipt(confirmations)
    assert receipt.confirmations == tuple(confirmations)
    assert [c.body() for c in receipt.confirmations] == [c.body() for c in confirmations]
    # The statement travels once; a co-signer is only what differs.
    cosigners = receipt.to_wire()["cosigners"]
    assert [sorted(cosigner) for cosigner in cosigners] == [
        ["cell", "scheme", "signature", "timestamp"]
    ] * 2


def test_empty_receipt_does_not_verify():
    assert not make_receipt([]).verify()


def test_receipt_wire_roundtrip_and_size():
    receipt = make_receipt([make_confirmation(CELL_A), make_confirmation(CELL_B)])
    restored = AggregatedReceipt.from_wire(receipt.to_wire())
    assert restored.verify()
    assert restored.tx_id == receipt.tx_id
    assert len(canonical_json.dump_bytes(receipt.to_wire())) > 500


def test_malformed_receipt_wire_rejected():
    with pytest.raises(ReceiptError):
        AggregatedReceipt.from_wire({"tx_id": TX_ID})


# ----------------------------------------------------------------------
# The compact receipt: what the client that signed the transaction lacks
# ----------------------------------------------------------------------
CLIENT = SimulatedSigner("receipt-client")
REQUEST = Envelope.create(
    signer=CLIENT, recipient=CELL_A.address, operation=Opcode.TX_SUBMIT,
    data={"contract": "fastmoney", "method": "transfer", "args": {"amount": 5}},
    timestamp=1.0, nonce="0x01",
)
REPLIED_AT = 3.5


def served(contract="fastmoney", method="transfer", own_at=REPLIED_AT, peer=CELL_B,
           scheme=CELL_A.scheme):
    """Cell A's (the service cell's) compact receipt for ``REQUEST``, and the receipt it states.

    Cell A replies at ``REPLIED_AT`` under ``scheme``; the receipt completes
    when cell A co-signs, at ``own_at``.
    """
    tx_id = REQUEST.payload.hash_hex()
    own, peer_confirmation = (
        Confirmation.create(cell, tx_id, contract, FP, "executed", timestamp)
        for cell, timestamp in ((CELL_A, own_at), (peer, 3.25))
    )
    compact = CompactReceipt.of(
        own, [peer_confirmation], REQUEST, method=method, result={"amount": 5}, cycle=1,
        scheme=scheme, moment=REPLIED_AT,
    )
    receipt = AggregatedReceipt(
        tx_id=tx_id, contract=contract, method=method, result={"amount": 5},
        service_cell=CELL_A.address, fingerprint_hex=FP, status="executed", cycle=1,
        submitted_at=REQUEST.payload.timestamp, completed_at=own_at,
        cosigners=(cosigner(own), cosigner(peer_confirmation)),
    )
    return compact, receipt


def reply_to(request, compact, scheme=None, at=REPLIED_AT):
    """Cell A's ``TX_RECEIPT`` envelope carrying ``compact``, as the client receives it."""
    data = json.loads(canonical_json.dumps(ReceiptReply(compact).to_data()))
    if scheme is None:
        return Envelope.create(
            signer=CELL_A, recipient=CLIENT.address, operation=Opcode.TX_RECEIPT, data=data,
            timestamp=at, nonce="0x02", reply_to=request.nonce,
        )
    # A reply under another scheme than its sender's confirmations (never verifies).
    payload = Payload(CELL_A.address, CLIENT.address, Opcode.TX_RECEIPT, "0x02", at, data,
                      request.nonce)
    return Envelope(payload=payload, signature=b"\x00" * 65, scheme=scheme)


def delivered(compact, request=REQUEST, scheme=None):
    """``compact`` sent under ``scheme`` and rebuilt by the client from ``request``."""
    reply = reply_to(REQUEST, compact, scheme)
    wire_form = reply.data["receipt"]
    return wire_form, read_reply(reply, Opcode.TX_RECEIPT).receipt.rebuild(request, reply)


def test_a_compact_receipt_rebuilds_the_receipt_its_service_cell_built():
    compact, receipt = served()
    wire_form, rebuilt = delivered(compact)
    assert rebuilt == receipt
    assert rebuilt.cosigners[0].cell == rebuilt.service_cell == CELL_A.address
    assert rebuilt.verify(expected_cells=[CELL_A.address, CELL_B.address])
    # The portable form is the one a third party checks, byte for byte.
    assert canonical_json.dump_bytes(rebuilt.to_wire()) == canonical_json.dump_bytes(
        receipt.to_wire()
    )
    assert len(canonical_json.dump_bytes(wire_form)) < (
        len(canonical_json.dump_bytes(receipt.to_wire())) - 300
    )


def test_nothing_the_client_can_derive_travels():
    wire_form, _rebuilt = delivered(served()[0])
    assert set(wire_form) == {"fingerprint", "cycle", "result", "signature", "cosigners"}
    assert [set(cosigner) for cosigner in wire_form["cosigners"]] == [
        {"cell", "timestamp", "signature"}
    ]


def _sent_differently(**fields):
    """A compact receipt that states ``fields``, as the service cell never builds one.

    The client must still rebuild the receipt it states.
    """
    compact, receipt = served()
    return dataclasses.replace(compact, **fields), dataclasses.replace(receipt, **fields)


SIM_PEER = SimulatedSigner("receipt-sim-peer")
DIFFERING = {
    "contract": (
        lambda: served(contract="cas"), lambda wire_form: wire_form["contract"] == "cas"
    ),
    "method": (
        lambda: served(method="faucet"), lambda wire_form: wire_form["method"] == "faucet"
    ),
    "submitted_at": (
        lambda: _sent_differently(submitted_at=0.75),
        lambda wire_form: wire_form["submitted_at"] == 0.75,
    ),
    "completed_at": (
        lambda: _sent_differently(completed_at=3.75),
        lambda wire_form: wire_form["completed_at"] == 3.75,
    ),
    "own timestamp": (
        lambda: served(own_at=3.4),
        lambda wire_form: wire_form["timestamp"] == wire_form["completed_at"] == 3.4,
    ),
    "peer scheme": (
        lambda: served(peer=SIM_PEER),
        lambda wire_form: wire_form["cosigners"][0]["scheme"] == "sim",
    ),
}


@pytest.mark.parametrize("sent, travels", DIFFERING.values(), ids=DIFFERING)
def test_a_field_that_differs_from_the_derived_value_travels_and_rebuilds(sent, travels):
    compact, receipt = sent()
    wire_form, rebuilt = delivered(compact)
    assert travels(wire_form)
    assert rebuilt == receipt
    assert rebuilt.verify(expected_cells=[CELL_A.address])
    assert canonical_json.dump_bytes(rebuilt.to_wire()) == canonical_json.dump_bytes(
        receipt.to_wire()
    )


def test_a_service_cell_scheme_other_than_the_replys_travels():
    compact, receipt = served(scheme="sim")
    wire_form, rebuilt = delivered(compact, scheme="sim")
    assert wire_form["scheme"] == wire_form["cosigners"][0]["scheme"] == "ecdsa"
    assert rebuilt == receipt and rebuilt.verify()


def test_a_receipt_rebuilt_against_another_request_does_not_verify():
    other = Envelope.create(
        signer=CLIENT, recipient=CELL_A.address, operation=Opcode.TX_SUBMIT,
        data={"contract": "fastmoney", "method": "transfer", "args": {"amount": 6}},
        timestamp=1.0, nonce="0x03",
    )
    _wire_form, rebuilt = delivered(served()[0], request=other)
    assert rebuilt.tx_id == other.payload.hash_hex()
    assert not rebuilt.verify()


MALFORMED = {
    "no signature": lambda sent: {k: v for k, v in sent.items() if k != "signature"},
    "short signature": lambda sent: {**sent, "signature": "0x00"},
    "cycle as text": lambda sent: {**sent, "cycle": "1"},
    "null contract": lambda sent: {**sent, "contract": None},
    "time as text": lambda sent: {**sent, "completed_at": "3.5"},
    "cosigner without a cell": lambda sent: {
        **sent, "cosigners": [{"timestamp": 3.25, "signature": sent["signature"]}]
    },
    "cosigners as an object": lambda sent: {**sent, "cosigners": {}},
    "a list": lambda sent: [sent],
}


@pytest.mark.parametrize("spoil", MALFORMED.values(), ids=MALFORMED)
def test_a_malformed_compact_receipt_is_a_reply_error(spoil):
    sent = json.loads(canonical_json.dumps(served()[0].to_wire()))
    reply = Envelope.create(
        signer=CELL_A, recipient=CLIENT.address, operation=Opcode.TX_RECEIPT,
        data={"receipt": spoil(sent)}, timestamp=REPLIED_AT, nonce="0x05",
        reply_to=REQUEST.nonce,
    )
    with pytest.raises(ReplyError, match="malformed"):
        read_reply(reply, Opcode.TX_RECEIPT)
