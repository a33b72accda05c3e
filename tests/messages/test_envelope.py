"""Signed message envelopes."""

import dataclasses

import pytest

from repro.crypto.keys import PrivateKey
from repro.encoding import canonical_json
from repro.messages import EcdsaSigner, Envelope, EnvelopeError, NonceFactory, Opcode, SimulatedSigner

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
