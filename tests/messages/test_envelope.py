"""Signed message envelopes."""

import dataclasses

import pytest

from repro.crypto.keys import PrivateKey
from repro.encoding import canonical_json
from repro.messages import EcdsaSigner, Envelope, EnvelopeError, NonceFactory, Opcode, SimulatedSigner
from repro.messages.envelope import MAX_WIRE_DEPTH

SIGNER = EcdsaSigner.from_seed("envelope-signer")
RECIPIENT = PrivateKey.from_seed("envelope-cell").address


def make_envelope(signer=SIGNER, data=None, nonce="0x1234"):
    return Envelope.create(
        signer=signer,
        recipient=RECIPIENT,
        operation=Opcode.TX_SUBMIT,
        data=data or {"contract": "fastmoney", "method": "transfer", "args": {"amount": 1}},
        timestamp=5.0,
        nonce=nonce,
    )


def test_envelope_verifies(deployment=None):
    assert make_envelope().verify()


def test_wire_roundtrip_preserves_verification():
    envelope = make_envelope()
    restored = Envelope.from_wire(envelope.wire_bytes())
    assert restored.verify()
    assert restored.payload == envelope.payload
    assert restored.signature == envelope.signature


def test_tampered_payload_fails_verification():
    envelope = make_envelope()
    tampered = dataclasses.replace(
        envelope, payload=dataclasses.replace(envelope.payload, data={"contract": "evil"})
    )
    assert not tampered.verify()


def test_signature_from_wrong_key_fails():
    other = EcdsaSigner.from_seed("other-signer")
    envelope = make_envelope()
    forged = dataclasses.replace(envelope, signature=other.sign(envelope.payload.canonical_bytes()))
    assert not forged.verify()


def test_simulated_signer_roundtrip():
    signer = SimulatedSigner("sim-client")
    envelope = make_envelope(signer=signer)
    assert envelope.scheme == "sim"
    assert envelope.verify()
    assert Envelope.from_wire(envelope.wire_bytes()).verify()


def test_simulated_signature_rejects_tampering():
    signer = SimulatedSigner("sim-client-2")
    envelope = make_envelope(signer=signer)
    tampered = dataclasses.replace(
        envelope, payload=dataclasses.replace(envelope.payload, data={"x": 1})
    )
    assert not tampered.verify()


def test_signature_must_be_65_bytes():
    envelope = make_envelope()
    with pytest.raises(EnvelopeError):
        dataclasses.replace(envelope, signature=b"\x00" * 10)


def test_from_wire_rejects_garbage():
    with pytest.raises(EnvelopeError):
        Envelope.from_wire({"payload": {"sender": "xx"}, "signature": "0x00"})


@pytest.mark.parametrize(
    "retired", ["deploy_contract", "tx_forward_batch", "tx_confirm_batch", "tx_reject"]
)
def test_from_wire_refuses_an_operation_the_protocol_retired(retired):
    # Nothing sends these any more; a peer that still does is refused at
    # the parse rather than handed to whichever route took their place.
    wire = make_envelope().wire_bytes().decode()
    assert '"operation":"tx_submit"' in wire
    assert retired not in {opcode.value for opcode in Opcode}
    with pytest.raises(EnvelopeError, match="malformed envelope"):
        Envelope.from_wire(wire.replace('"tx_submit"', f'"{retired}"').encode())


# ----------------------------------------------------------------------
# Bytes off a socket: refused at the parse, never later in verify()
# ----------------------------------------------------------------------
def hostile(replacement: str) -> bytes:
    """The wire bytes of a good envelope with ``"amount":1`` swapped out inside D."""
    wire = make_envelope(signer=SimulatedSigner("hostile-bytes")).wire_bytes().decode()
    assert '"amount":1' in wire
    return wire.replace('"amount":1', '"amount":' + replacement).encode()


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_from_wire_refuses_a_non_finite_number_inside_the_data_field(number):
    # On the parent these parsed, and verify() then raised CanonicalJSONError.
    with pytest.raises(EnvelopeError, match="malformed envelope"):
        Envelope.from_wire(hostile(number))
    assert Envelope.from_wire(hostile("1e300")).verify() is False  # finite: merely unsigned


@pytest.mark.parametrize("depth", [MAX_WIRE_DEPTH - 3, 2_000, 100_000])
def test_from_wire_refuses_nesting_beyond_the_documented_depth(depth):
    # 100,000 levels raised RecursionError out of from_wire on the parent.
    with pytest.raises(EnvelopeError, match="malformed envelope"):
        Envelope.from_wire(hostile("[" * depth + "]" * depth))
    with pytest.raises(EnvelopeError, match="malformed envelope"):
        Envelope.from_wire(b"[" * depth)


def test_from_wire_accepts_nesting_up_to_the_documented_depth():
    # envelope > payload > data > args: four levels above the replaced value.
    depth = MAX_WIRE_DEPTH - 4
    parsed = Envelope.from_wire(hostile("[" * depth + "]" * depth))
    assert parsed.verify() is False and parsed.byte_size() > 2 * depth


def test_from_wire_refuses_bytes_beyond_the_documented_size(monkeypatch):
    good = make_envelope().wire_bytes()
    monkeypatch.setattr("repro.messages.envelope.MAX_WIRE_BYTES", len(good))
    assert Envelope.from_wire(good).verify()
    with pytest.raises(EnvelopeError, match=f"larger than {len(good)} bytes"):
        Envelope.from_wire(good + b" ")
    with pytest.raises(EnvelopeError):
        Envelope.from_wire((good + b" ").decode())


def test_the_object_branch_of_from_wire_is_not_bounded():
    # The simulator hands envelopes over as objects: that path does no extra work.
    wire = make_envelope().to_wire()
    wire["payload"]["data"]["args"]["deep"] = [[]]
    for _ in range(MAX_WIRE_DEPTH):
        wire["payload"]["data"]["args"]["deep"] = [wire["payload"]["data"]["args"]["deep"]]
    assert Envelope.from_wire(wire).verify() is False


def test_nonce_factory_produces_unique_nonces():
    factory = NonceFactory(SIGNER.address)
    nonces = {factory.next() for _ in range(100)}
    assert len(nonces) == 100


def test_byte_size_matches_wire_length():
    envelope = make_envelope()
    assert envelope.byte_size() == len(envelope.wire_bytes())


def test_unknown_scheme_tag_is_sized_like_a_full_encode_and_never_verifies():
    envelope = make_envelope()
    wire = envelope.to_wire()
    wire["scheme"] = 'rsa"\u00e9'
    odd = Envelope.from_wire(wire)
    assert odd.wire_bytes() == canonical_json.dump_bytes(odd.to_wire())
    assert odd.byte_size() == len(odd.wire_bytes())
    assert not odd.verify()
    wire["scheme"] = ["ecdsa"]
    with pytest.raises(EnvelopeError):
        Envelope.from_wire(wire)


def test_accessors():
    envelope = make_envelope()
    assert envelope.sender == SIGNER.address
    assert envelope.recipient == RECIPIENT
    assert envelope.operation == Opcode.TX_SUBMIT
    assert envelope.data["contract"] == "fastmoney"
