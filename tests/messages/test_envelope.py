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
    restored = Envelope.from_wire(canonical_json.dump_bytes(envelope.to_wire()))
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
    assert Envelope.from_wire(canonical_json.dump_bytes(envelope.to_wire())).verify()


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
    wire = canonical_json.dump_bytes(make_envelope().to_wire()).decode()
    assert '"operation":"tx_submit"' in wire
    assert retired not in {opcode.value for opcode in Opcode}
    with pytest.raises(EnvelopeError, match="malformed envelope"):
        Envelope.from_wire(wire.replace('"tx_submit"', f'"{retired}"').encode())


# ----------------------------------------------------------------------
# Bytes off a socket: refused at the parse, never later in verify()
# ----------------------------------------------------------------------
def hostile(replacement: str) -> bytes:
    """The wire bytes of a good envelope with ``"amount":1`` swapped out inside D."""
    envelope = make_envelope(signer=SimulatedSigner("hostile-bytes"))
    wire = canonical_json.dump_bytes(envelope.to_wire()).decode()
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
    good = canonical_json.dump_bytes(make_envelope().to_wire())
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


def test_byte_size_matches_link_length():
    envelope = make_envelope()
    assert envelope.byte_size() == len(envelope.link_bytes())


# ----------------------------------------------------------------------
# The link form: the envelope minus what its receiver supplies
# ----------------------------------------------------------------------
OTHER_CELL = PrivateKey.from_seed("envelope-other-cell").address


def link_samples():
    for signer in (SIGNER, SimulatedSigner("link-sim")):
        for reply_to in (None, "0xabcd"):
            yield Envelope.create(
                signer=signer, recipient=RECIPIENT, operation=Opcode.TX_RECEIPT,
                data={"receipt": {"cycle": 0}}, timestamp=2.5, nonce="0x99", reply_to=reply_to,
            )


@pytest.mark.parametrize("envelope", list(link_samples()), ids=["ecdsa", "ecdsa-reply", "sim", "sim-reply"])
def test_the_link_form_round_trips_under_its_recipient(envelope):
    assert envelope.link_bytes() == canonical_json.dump_bytes(envelope.to_link())
    assert envelope.byte_size() == len(envelope.link_bytes())
    for raw in (envelope.link_bytes(), envelope.link_bytes().decode(), envelope.to_link()):
        restored = Envelope.from_link(raw, RECIPIENT)
        assert restored == envelope and restored.verify()
        assert restored.link_bytes() == envelope.link_bytes()
        assert canonical_json.dump_bytes(restored.to_wire()) == canonical_json.dump_bytes(
            envelope.to_wire()
        )
    under_another = Envelope.from_link(envelope.link_bytes(), OTHER_CELL)
    assert under_another.recipient == OTHER_CELL and not under_another.verify()


def test_the_link_form_leaves_out_the_recipient_a_null_reply_to_and_the_ecdsa_tag():
    envelope = make_envelope()
    link = envelope.link_bytes()
    for left_out in (b'"recipient"', RECIPIENT.hex().encode(), b'"reply_to"', b'"scheme"'):
        assert left_out not in link
    # 57 B of recipient, 16 B of null reply_to, 17 B of scheme tag.
    assert len(canonical_json.dump_bytes(envelope.to_wire())) - len(link) == 57 + 16 + 17
    # What is not the receiver's to supply still travels.
    assert b'"scheme":"sim"' in make_envelope(signer=SimulatedSigner("link-sim")).link_bytes()
    replied = Envelope.create(SIGNER, RECIPIENT, Opcode.TX_ERROR, {}, 1.0, "0x1", reply_to="0x2")
    assert b'"reply_to":"0x2"' in replied.link_bytes()
    # The signed bytes are the payload's canonical bytes, as before.
    assert envelope.payload.canonical_bytes() == canonical_json.dump_bytes(
        envelope.payload.to_dict()
    )


def test_a_nested_link_form_may_leave_out_its_sender_too():
    envelope = make_envelope()
    nested = envelope.to_link(with_sender=False)
    assert set(nested["payload"]) == {"data", "nonce", "operation", "timestamp"}
    restored = Envelope.from_link(nested, RECIPIENT, SIGNER.address)
    assert restored == envelope and restored.verify()
    assert not Envelope.from_link(nested, RECIPIENT, OTHER_CELL).verify()
    with pytest.raises(EnvelopeError):
        Envelope.from_link(nested, RECIPIENT)  # nobody supplies the sender


@pytest.mark.parametrize("signer", [SIGNER, SimulatedSigner("link-sim")], ids=["ecdsa", "sim"])
def test_an_unsigned_reply_travels_without_signature_nonce_and_sender(signer):
    """Its requester supplies the cell it asked, as it supplies itself; every
    unsigned message leaves its sender to the link it arrives on."""
    unsigned = Envelope.unsigned(
        signer.address, signer.scheme, RECIPIENT, Opcode.TX_RECEIPT, {"cycle": 0}, 2.5,
        reply_to="0xabcd",
    )
    signed = Envelope.create(signer, RECIPIENT, Opcode.TX_RECEIPT, {"cycle": 0}, 2.5,
                             "AAAAAAAAAAAAAAAA", reply_to="0xabcd")
    link = unsigned.link_bytes()
    assert link == canonical_json.dump_bytes(unsigned.to_link())
    assert set(unsigned.to_link()["payload"]) == {"data", "operation", "reply_to", "timestamp"}
    # The signature (102 B), the nonce (27 B) and the sender (54 B) stay home.
    assert len(signed.link_bytes()) - len(link) == 102 + 27 + 54
    restored = Envelope.from_link(link, RECIPIENT, signer.address)
    assert restored == unsigned and not restored.verify()
    assert Envelope.from_link(link, RECIPIENT, OTHER_CELL).sender == OTHER_CELL
    # A cell-to-cell message without a reply_to leaves it too: the receiving
    # cell supplies the peer at the other end of the link.
    batch = Envelope.unsigned(signer.address, signer.scheme, RECIPIENT, Opcode.TX_CONFIRM, {},
                              2.5)
    assert set(batch.to_link()["payload"]) == {"data", "operation", "timestamp"}
    assert Envelope.from_link(batch.link_bytes(), RECIPIENT, signer.address) == batch
    with pytest.raises(EnvelopeError):
        Envelope.from_link(batch.link_bytes(), RECIPIENT)  # nobody supplies the sender


def test_a_signature_and_a_nonce_travel_together_or_not_at_all():
    payload = make_envelope().payload
    with pytest.raises(EnvelopeError):
        Envelope(payload=payload, signature=None)
    with pytest.raises(EnvelopeError):
        Envelope(payload=dataclasses.replace(payload, nonce=None), signature=b"\x00" * 65)


def hostile_link(replacement: str) -> bytes:
    link = make_envelope(signer=SimulatedSigner("hostile-bytes")).link_bytes().decode()
    return link.replace('"amount":1', '"amount":' + replacement).encode()


@pytest.mark.parametrize("raw", [
    b"", b"not json", b"[]", b'"text"', b"{}",
    b'{"payload":"garbage","signature":"0x' + b"00" * 65 + b'"}',
    b'{"payload":{},"signature":"0x' + b"00" * 65 + b'"}',
    b'{"payload":{"data":{}},"signature":"0x00"}',
    hostile_link("NaN"), hostile_link("[" * 2_000 + "]" * 2_000), b"[" * 100_000,
], ids=lambda raw: raw[:24].decode(errors="replace"))
def test_malformed_link_bytes_raise_envelope_error(raw):
    with pytest.raises(EnvelopeError, match="malformed"):
        Envelope.from_link(raw, RECIPIENT)


def test_what_a_receiver_supplies_wins_over_what_a_link_form_carries():
    """Undeclared keys are ignored, as by every parser of the wire module."""
    envelope = make_envelope()
    wire = canonical_json.dump_bytes(envelope.to_wire())
    assert Envelope.from_link(wire, RECIPIENT) == envelope
    relayed = Envelope.from_link(wire, OTHER_CELL)
    assert relayed.recipient == OTHER_CELL and not relayed.verify()
    forged = Envelope.from_link(envelope.to_link(), RECIPIENT, OTHER_CELL)
    assert forged.sender == OTHER_CELL and not forged.verify()


def test_from_link_refuses_bytes_beyond_the_documented_size(monkeypatch):
    good = make_envelope().link_bytes()
    monkeypatch.setattr("repro.messages.envelope.MAX_WIRE_BYTES", len(good))
    assert Envelope.from_link(good, RECIPIENT).verify()
    with pytest.raises(EnvelopeError, match=f"larger than {len(good)} bytes"):
        Envelope.from_link(good + b" ", RECIPIENT)


def test_from_link_accepts_nesting_up_to_the_documented_depth():
    depth = MAX_WIRE_DEPTH - 4
    parsed = Envelope.from_link(hostile_link("[" * depth + "]" * depth), RECIPIENT)
    assert parsed.verify() is False
    with pytest.raises(EnvelopeError, match="malformed"):
        Envelope.from_link(hostile_link("[" * (depth + 1) + "]" * (depth + 1)), RECIPIENT)


def test_unknown_scheme_tag_is_sized_like_a_full_encode_and_never_verifies():
    envelope = make_envelope()
    wire = envelope.to_wire()
    wire["scheme"] = 'rsa"\u00e9'
    odd = Envelope.from_wire(wire)
    assert odd.link_bytes() == canonical_json.dump_bytes(odd.to_link())
    assert odd.byte_size() == len(odd.link_bytes())
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
