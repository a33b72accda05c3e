"""Confirmations and aggregated multi-signature receipts."""

import dataclasses
import json

import pytest

from repro.core.receipts import AggregatedReceipt, CompactReceipt, Confirmation, ReceiptError
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


def make_receipt(confirmations):
    return AggregatedReceipt.of(
        confirmations, tx_id=TX_ID, contract="fastmoney", fingerprint_hex=FP,
        method="transfer", result={"amount": 5}, service_cell=CELL_A.address, cycle=1,
        submitted_at=1.0, completed_at=3.5,
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


def test_receipt_rejects_mismatched_fingerprint():
    bad = make_confirmation(CELL_B, fingerprint="0x" + "99" * 32)
    with pytest.raises(ReceiptError):
        make_receipt([make_confirmation(CELL_A), bad])


def test_receipt_rejects_rejected_confirmation():
    with pytest.raises(ReceiptError):
        make_receipt([make_confirmation(CELL_A, status="rejected")])


@pytest.mark.parametrize("statement", [
    {"tx_id": "0x" + "33" * 32}, {"contract": "cas"}, {"error": "late"},
], ids=["tx_id", "contract", "error"])
def test_receipt_refuses_a_cosigner_of_another_statement(statement):
    with pytest.raises(ReceiptError):
        make_receipt([make_confirmation(CELL_A), make_confirmation(CELL_B, **statement)])


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
    assert receipt.byte_size() > 500


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


def served(
    request=REQUEST, contract="fastmoney", method="transfer", submitted_at=1.0,
    completed_at=REPLIED_AT, own_at=REPLIED_AT, peer=CELL_B,
):
    """The receipt cell A (the service cell) builds for ``request``."""
    tx_id = request.payload.hash_hex()
    confirmations = [
        Confirmation.create(cell, tx_id, contract, FP, "executed", timestamp)
        for cell, timestamp in ((CELL_A, own_at), (peer, 3.25))
    ]
    return AggregatedReceipt.of(
        confirmations, tx_id=tx_id, contract=contract, fingerprint_hex=FP, method=method,
        result={"amount": 5}, service_cell=CELL_A.address, cycle=1,
        submitted_at=submitted_at, completed_at=completed_at,
    )


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


def delivered(receipt, request=REQUEST, scheme=None):
    """``receipt`` sent compact under ``scheme`` and rebuilt by the client from ``request``."""
    compact = CompactReceipt.of(receipt, REQUEST, scheme or CELL_A.scheme, REPLIED_AT)
    reply = reply_to(REQUEST, compact, scheme)
    wire_form = reply.data["receipt"]
    return wire_form, read_reply(reply, Opcode.TX_RECEIPT).receipt.rebuild(request, reply)


def test_a_compact_receipt_rebuilds_the_receipt_its_service_cell_built():
    receipt = served()
    wire_form, rebuilt = delivered(receipt)
    assert rebuilt == receipt
    assert rebuilt.cosigners[0].cell == rebuilt.service_cell == CELL_A.address
    assert rebuilt.verify(expected_cells=[CELL_A.address, CELL_B.address])
    # The portable form is the one a third party checks, byte for byte.
    assert canonical_json.dump_bytes(rebuilt.to_wire()) == canonical_json.dump_bytes(
        receipt.to_wire()
    )
    assert len(canonical_json.dump_bytes(wire_form)) < receipt.byte_size() - 300


def test_nothing_the_client_can_derive_travels():
    wire_form, _rebuilt = delivered(served())
    assert set(wire_form) == {"fingerprint", "cycle", "result", "signature", "cosigners"}
    assert [set(cosigner) for cosigner in wire_form["cosigners"]] == [
        {"cell", "timestamp", "signature"}
    ]


SIM_PEER = SimulatedSigner("receipt-sim-peer")
DIFFERING = {
    "contract": (dict(contract="cas"), lambda wire_form: wire_form["contract"] == "cas"),
    "method": (dict(method="faucet"), lambda wire_form: wire_form["method"] == "faucet"),
    "submitted_at": (
        dict(submitted_at=0.75), lambda wire_form: wire_form["submitted_at"] == 0.75
    ),
    "completed_at": (
        dict(completed_at=3.75), lambda wire_form: wire_form["completed_at"] == 3.75
    ),
    "own timestamp": (dict(own_at=3.4), lambda wire_form: wire_form["timestamp"] == 3.4),
    "peer scheme": (
        dict(peer=SIM_PEER), lambda wire_form: wire_form["cosigners"][0]["scheme"] == "sim"
    ),
}


@pytest.mark.parametrize("fields, travels", DIFFERING.values(), ids=DIFFERING)
def test_a_field_that_differs_from_the_derived_value_travels_and_rebuilds(fields, travels):
    receipt = served(**fields)
    wire_form, rebuilt = delivered(receipt)
    assert travels(wire_form)
    assert rebuilt == receipt
    assert rebuilt.verify(expected_cells=[CELL_A.address])
    assert canonical_json.dump_bytes(rebuilt.to_wire()) == canonical_json.dump_bytes(
        receipt.to_wire()
    )


def test_a_service_cell_scheme_other_than_the_replys_travels():
    receipt = served()
    wire_form, rebuilt = delivered(receipt, scheme="sim")
    assert wire_form["scheme"] == wire_form["cosigners"][0]["scheme"] == "ecdsa"
    assert rebuilt == receipt and rebuilt.verify()


def test_a_receipt_rebuilt_against_another_request_does_not_verify():
    other = Envelope.create(
        signer=CLIENT, recipient=CELL_A.address, operation=Opcode.TX_SUBMIT,
        data={"contract": "fastmoney", "method": "transfer", "args": {"amount": 6}},
        timestamp=1.0, nonce="0x03",
    )
    _wire_form, rebuilt = delivered(served(), request=other)
    assert rebuilt.tx_id == other.payload.hash_hex()
    assert not rebuilt.verify()


def test_only_a_receipt_of_the_request_with_its_service_cell_first_is_compacted():
    with pytest.raises(ReceiptError):
        CompactReceipt.of(served(), Envelope.create(
            signer=CLIENT, recipient=CELL_A.address, operation=Opcode.TX_SUBMIT,
            data=REQUEST.data, timestamp=1.0, nonce="0x04",
        ), CELL_A.scheme, REPLIED_AT)
    receipt = served()
    with pytest.raises(ReceiptError):
        CompactReceipt.of(
            dataclasses.replace(receipt, cosigners=receipt.cosigners[::-1]), REQUEST,
            CELL_A.scheme, REPLIED_AT,
        )


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
    compact = CompactReceipt.of(served(), REQUEST, CELL_A.scheme, REPLIED_AT)
    sent = json.loads(canonical_json.dumps(compact.to_wire()))
    reply = Envelope.create(
        signer=CELL_A, recipient=CLIENT.address, operation=Opcode.TX_RECEIPT,
        data={"receipt": spoil(sent)}, timestamp=REPLIED_AT, nonce="0x05",
        reply_to=REQUEST.nonce,
    )
    with pytest.raises(ReplyError, match="malformed"):
        read_reply(reply, Opcode.TX_RECEIPT)
