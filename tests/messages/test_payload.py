"""The payload tuple P = <As, Ar, O, eta, tau, t, D>."""

import pytest

from repro.crypto.keys import PrivateKey
from repro.messages import Envelope, EnvelopeError, SimulatedSigner
from repro.messages.opcodes import Opcode
from repro.messages.payload import Payload, PayloadError

ALICE = PrivateKey.from_seed("payload-alice").address
CELL = PrivateKey.from_seed("payload-cell").address


def make_payload(**overrides):
    fields = dict(
        sender=ALICE,
        recipient=CELL,
        operation=Opcode.TX_SUBMIT,
        nonce="0xabc123",
        timestamp=12.345678901,
        data={"contract": "fastmoney", "method": "transfer", "args": {"amount": 5}},
    )
    fields.update(overrides)
    return Payload(**fields)


def test_canonical_bytes_are_deterministic():
    assert make_payload().canonical_bytes() == make_payload().canonical_bytes()


def test_hash_changes_with_data():
    assert make_payload().hash() != make_payload(data={"contract": "ballot"}).hash()
    assert make_payload().hash_hex().startswith("0x")


def test_timestamp_quantized_to_wire_precision():
    payload = make_payload(timestamp=1.23456789)
    assert payload.timestamp == pytest.approx(1.234568)
    roundtripped = Payload.from_dict(payload.to_dict())
    assert roundtripped.timestamp == payload.timestamp
    assert roundtripped.canonical_bytes() == payload.canonical_bytes()


def test_dict_roundtrip_preserves_hash():
    payload = make_payload(reply_to="0xdef")
    assert Payload.from_dict(payload.to_dict()).hash() == payload.hash()


def test_validation_errors():
    with pytest.raises(PayloadError):
        make_payload(sender="not-an-address")
    with pytest.raises(PayloadError):
        make_payload(operation="tx_submit")
    with pytest.raises(PayloadError):
        make_payload(nonce="")
    with pytest.raises(PayloadError):
        make_payload(data=[1, 2, 3])


def test_from_dict_rejects_missing_fields():
    with pytest.raises(PayloadError):
        Payload.from_dict({"sender": ALICE.hex()})


def test_byte_size_reports_canonical_length():
    payload = make_payload()
    assert payload.byte_size() == len(payload.canonical_bytes())


@pytest.mark.parametrize(
    "field, value",
    [
        ("reply_to", ["a"]), ("reply_to", 7), ("nonce", 7), ("nonce", ["0xabc"]), ("nonce", b"0xabc"),
        ("timestamp", "7"), ("timestamp", True), ("timestamp", None), ("timestamp", float("nan")),
        ("timestamp", float("inf")), ("timestamp", 10**400), ("data", [["a", 1]]),
    ],
)
def test_a_wrongly_typed_field_can_be_neither_built_nor_parsed(field, value):
    # A member-signed PONG with ``reply_to: ["a"]`` used to reach the cell's
    # waiter table and raise ``TypeError: unhashable type`` out of env.run().
    with pytest.raises(PayloadError):
        make_payload(**{field: value})
    with pytest.raises(PayloadError):
        Payload.from_dict({**make_payload().to_dict(), field: value})


def test_an_unsigned_hostile_pong_never_reaches_a_cell():
    signer = SimulatedSigner("payload-member")
    with pytest.raises(PayloadError):
        Envelope.create(
            signer=signer, recipient=CELL, operation=Opcode.PONG, data={"node": "cell-1"},
            timestamp=0.0, nonce="0xabc", reply_to=["a"],
        )
    honest = Envelope.create(
        signer=signer, recipient=CELL, operation=Opcode.PONG, data={"node": "cell-1"},
        timestamp=0.0, nonce="0xabc", reply_to="0xdef",
    ).to_wire()
    honest["payload"]["reply_to"] = ["a"]
    with pytest.raises(EnvelopeError):
        Envelope.from_wire(honest)


@pytest.mark.parametrize("raw", [None, 7, "text", [1], {"sender": 7}, {"sender": ALICE.hex()}])
def test_from_dict_refuses_what_is_not_a_payload_with_its_own_error(raw):
    with pytest.raises(PayloadError):
        Payload.from_dict(raw)
