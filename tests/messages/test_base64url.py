"""A signature travels as exactly one text: 87 characters of unpadded base64url.

Every parser that reads a signature — the ``wire.signature`` kind of the
declared bodies, ``Envelope.from_wire`` and the link form — refuses any
other spelling of the same bytes with its family's typed error, naming the
wire key, so that what was accepted re-encodes to what was sent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.receipts import Confirmation, CoSigner, ReceiptError
from repro.encoding import base64url, canonical_json
from repro.messages import Envelope, EnvelopeError, NonceFactory, Opcode, SimulatedSigner
from repro.messages.envelope import LinkEnvelope
from repro.messages.membership import ExclusionVote, MembershipError
from repro.messages.payload import Payload
from repro.messages.xshard import CrossShardError, CrossShardVote

SIGNER = SimulatedSigner("base64url-signer")
PEER = SimulatedSigner("base64url-peer").address

#: One signature whose text holds both URL-safe characters (``-`` and ``_``).
SIGNATURE = bytes([0xFB, 0xFF]) + bytes(range(63))
TEXT = base64url.encode(SIGNATURE)


def _last_with_trailing_bits(text):
    """``text`` with its last character's two unused low bits set."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
    return text[:-1] + alphabet[alphabet.index(text[-1]) | 0b11]


#: Each other spelling of (roughly) the same 65 bytes, by name.
REFUSED = {
    "hex with 0x": "0x" + SIGNATURE.hex(),
    "hex without 0x": SIGNATURE.hex(),
    "= padding": TEXT + "=",
    "+ for -": TEXT.replace("-", "+"),
    "/ for _": TEXT.replace("_", "/"),
    "86 characters": TEXT[:-1],
    "88 characters": TEXT + "A",
    "non-zero trailing bits": _last_with_trailing_bits(TEXT),
    "embedded space": TEXT[:40] + " " + TEXT[41:],
    "embedded newline": TEXT[:40] + "\n" + TEXT[41:],
    "trailing newline": TEXT[:-1] + "\n",
}


def test_the_sample_text_is_what_the_table_spoils():
    assert len(TEXT) == 87 and "-" in TEXT and "_" in TEXT
    assert base64url.decode(TEXT, 65) == SIGNATURE
    for name, text in REFUSED.items():
        assert text != TEXT, name
    assert len(REFUSED["non-zero trailing bits"]) == 87


def _statement_wire(statement, text):
    wire = statement.to_wire()
    wire["signature"] = text
    return wire


def _envelope():
    return Envelope.create(
        signer=SIGNER, recipient=PEER, operation=Opcode.TX_SUBMIT,
        data={"contract": "fastmoney", "method": "faucet", "args": {"amount": 1}},
        timestamp=1.5, nonce=NonceFactory(SIGNER.address).next(),
    )


def _envelope_wire(text):
    wire = _envelope().to_wire()
    wire["signature"] = text
    return wire


def _link_wire(text):
    link = _envelope().to_link()
    link["signature"] = text
    return link


#: parser name -> (parse of a signature text, the family's error, the error's start)
PARSERS = {
    "Confirmation": (
        lambda text: Confirmation.from_wire(_statement_wire(Confirmation.create(
            SIGNER, "0x" + "11" * 32, "fastmoney", "0x" + "22" * 32, "executed", 1.0
        ), text)),
        ReceiptError, f"malformed {Confirmation.WHAT}: signature: ",
    ),
    "CoSigner": (
        lambda text: CoSigner.from_wire(
            {"cell": PEER.hex(), "timestamp": 1.0, "signature": text, "scheme": "sim"}
        ),
        ReceiptError, f"malformed {CoSigner.WHAT}: signature: ",
    ),
    "ExclusionVote": (
        lambda text: ExclusionVote.from_wire(
            _statement_wire(ExclusionVote.create(SIGNER, PEER, 3, True), text)
        ),
        MembershipError, f"malformed {ExclusionVote.WHAT}: signature: ",
    ),
    "CrossShardVote": (
        lambda text: CrossShardVote.from_wire(_statement_wire(
            CrossShardVote.create(SIGNER, "0xa1", 0, (0, 1), "prepare", True), text
        )),
        CrossShardError, f"malformed {CrossShardVote.WHAT}: signature: ",
    ),
    "LinkEnvelope": (
        lambda text: LinkEnvelope.from_wire(_link_wire(text)),
        EnvelopeError, "malformed link envelope: signature: ",
    ),
    "Envelope.from_link": (
        lambda text: Envelope.from_link(_link_wire(text), PEER),
        EnvelopeError, "malformed link envelope: signature: ",
    ),
    "Envelope.from_wire": (
        lambda text: Envelope.from_wire(_envelope_wire(text)),
        EnvelopeError, "malformed envelope: signature: ",
    ),
}


@pytest.mark.parametrize("parser", sorted(PARSERS))
def test_every_parser_reads_the_one_text(parser):
    parse, _error, _start = PARSERS[parser]
    assert parse(TEXT).signature == SIGNATURE


@pytest.mark.parametrize("spelling", sorted(REFUSED))
@pytest.mark.parametrize("parser", sorted(PARSERS))
def test_every_other_spelling_is_refused_naming_the_key(parser, spelling):
    parse, error, start = PARSERS[parser]
    with pytest.raises(error) as refused:
        parse(REFUSED[spelling])
    assert type(refused.value) is error
    assert str(refused.value).startswith(start)


@pytest.mark.parametrize("spelling", sorted(REFUSED))
def test_the_codec_itself_refuses_every_other_spelling(spelling):
    with pytest.raises(ValueError):
        base64url.decode(REFUSED[spelling], 65)


def test_a_nonce_is_twelve_bytes_in_sixteen_characters():
    nonces = NonceFactory(SIGNER.address)
    first, second = nonces.next(), nonces.next()
    assert first != second
    for nonce in (first, second):
        assert len(nonce) == 16
        assert base64url.encode(base64url.decode(nonce, 12)) == nonce


signatures = st.binary(min_size=65, max_size=65)


@settings(max_examples=200, deadline=None)
@given(signatures)
def test_the_signature_kind_round_trips_every_65_bytes(signature):
    from repro.messages import wire

    text = wire.signature.encode(signature)
    assert len(text) == 87
    assert wire.signature.decode(text) == signature


@settings(max_examples=60, deadline=None)
@given(signatures)
def test_an_envelope_round_trips_every_signature(signature):
    envelope = Envelope(payload=_envelope().payload, signature=signature, scheme="sim")
    raw = canonical_json.dump_bytes(envelope.to_wire())
    read = Envelope.from_wire(raw)
    assert read.signature == signature
    assert canonical_json.dump_bytes(read.to_wire()) == raw
    assert Envelope.from_wire(envelope.to_wire()).signature == signature


@settings(max_examples=60, deadline=None)
@given(signatures)
def test_a_link_envelope_round_trips_every_signature(signature):
    payload = Payload(
        sender=SIGNER.address, recipient=PEER, operation=Opcode.TX_SUBMIT,
        nonce=NonceFactory(PEER).next(), timestamp=2.5, data={"contract": "cas"},
    )
    envelope = Envelope(payload=payload, signature=signature)
    raw = envelope.link_bytes()
    read = Envelope.from_link(raw, PEER)
    assert read.signature == signature
    assert read.link_bytes() == raw
    assert LinkEnvelope.from_wire(envelope.to_link()).signature == signature
