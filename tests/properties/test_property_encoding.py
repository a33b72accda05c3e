"""Property-based tests for the encoding layers (hypothesis)."""

import dataclasses
import json
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.receipts import Confirmation
from repro.crypto.fingerprint import canonical_bytes, fingerprint_state
from repro.crypto import keys
from repro.crypto.ecdsa import Signature
from repro.crypto.keccak import keccak256
from repro.crypto.keys import Address, message_digest
from repro.encoding import canonical_json, rlp
from repro.messages import EcdsaSigner, Envelope, Opcode, SimulatedSigner
from repro.messages import signer as signer_module

# JSON-like values with string keys, bounded depth.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-10**12, max_value=10**12)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

rlp_values = st.recursive(
    st.binary(max_size=80) | st.integers(min_value=0, max_value=2**128),
    lambda children: st.lists(children, max_size=5),
    max_leaves=15,
)


def _normalize_rlp(value):
    """What RLP decoding is expected to give back (everything is bytes)."""
    if isinstance(value, int):
        if value == 0:
            return b""
        return value.to_bytes((value.bit_length() + 7) // 8, "big")
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    return [_normalize_rlp(item) for item in value]


@settings(max_examples=150, deadline=None)
@given(rlp_values)
def test_rlp_roundtrip(value):
    assert rlp.decode(rlp.encode(value)) == _normalize_rlp(value)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_canonical_json_roundtrip(value):
    assert canonical_json.loads(canonical_json.dumps(value)) == value


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=8), json_values, max_size=5))
def test_canonical_json_is_insertion_order_independent(mapping):
    reordered = dict(reversed(list(mapping.items())))
    assert canonical_json.dumps(mapping) == canonical_json.dumps(reordered)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=8), json_values, max_size=5))
def test_fingerprint_is_insertion_order_independent(mapping):
    reordered = dict(reversed(list(mapping.items())))
    assert fingerprint_state(mapping) == fingerprint_state(reordered)


@settings(max_examples=100, deadline=None)
@given(json_values, json_values)
def test_canonical_bytes_injective_enough(a, b):
    # Distinct values must not collide in their canonical encoding.
    if a != b:
        assert canonical_bytes(a) != canonical_bytes(b)


# ----------------------------------------------------------------------
# Encode-once wire path: carried bytes and the single-pass encoder
# ----------------------------------------------------------------------
SENDER = SimulatedSigner("prop-encoding-sender")
RECIPIENT = SimulatedSigner("prop-encoding-recipient").address

addresses = st.binary(min_size=20, max_size=20).map(Address)

# What a payload may carry beyond plain JSON: bytes, tuples, addresses.
rich_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-10**12, max_value=10**12)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=20)
    | st.binary(max_size=12) | addresses,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _reference_dumps(value):
    """The two-pass encoder this repository used to have: normalise, then dump."""

    def normalize(item):
        if item is None or isinstance(item, (bool, int, str, float)):
            return item
        if isinstance(item, (bytes, bytearray, memoryview)):
            return "0x" + bytes(item).hex()
        if isinstance(item, (list, tuple)):
            return [normalize(child) for child in item]
        if isinstance(item, dict):
            return {key: normalize(child) for key, child in item.items()}
        return item.hex()

    return json.dumps(normalize(value), sort_keys=True, separators=(",", ":"))


@settings(max_examples=200, deadline=None)
@given(rich_values)
def test_single_pass_dumps_equals_normalise_then_dump(value):
    assert canonical_json.dumps(value) == _reference_dumps(value)


payload_data = st.dictionaries(st.text(max_size=8), json_values, max_size=4)


@settings(max_examples=100, deadline=None)
@given(payload_data, st.floats(min_value=0, max_value=10**6))
def test_carried_bytes_equal_a_fresh_encoding_and_survive_the_wire(data, timestamp):
    envelope = Envelope.create(
        signer=SENDER, recipient=RECIPIENT, operation=Opcode.TX_SUBMIT,
        data=data, timestamp=timestamp, nonce="0x01",
    )
    payload = envelope.payload
    fresh = canonical_json.dump_bytes(payload.to_dict())
    assert payload.canonical_bytes() == fresh
    assert envelope.link_bytes() == canonical_json.dump_bytes(envelope.to_link())
    assert envelope.byte_size() == len(envelope.link_bytes())
    # Taking the id lets the bytes go; asking again gives the same ones.
    tx_id = payload.hash_hex()
    assert payload.canonical_bytes() == fresh and payload.hash_hex() == tx_id
    wire = canonical_json.dump_bytes(envelope.to_wire())
    for restored in (Envelope.from_wire(envelope.to_wire()), Envelope.from_wire(wire)):
        assert restored.payload.canonical_bytes() == fresh
        assert canonical_json.dump_bytes(restored.to_wire()) == wire
        assert restored.payload.hash_hex() == tx_id
        assert restored.verify()


@settings(max_examples=100, deadline=None)
@given(
    st.text(min_size=1, max_size=12), st.text(max_size=12),
    st.sampled_from(["executed", "rejected"]),
    st.floats(min_value=0, max_value=10**6), st.none() | st.text(max_size=12),
)
def test_confirmation_body_is_carried_and_survives_the_wire(
    tx_id, contract, status, timestamp, error
):
    confirmation = Confirmation.create(
        SENDER, tx_id, contract, "0x" + "ab" * 32, status, timestamp, error
    )
    unsigned = dict(confirmation.to_wire())
    del unsigned["signature"], unsigned["scheme"]
    assert confirmation.body() == canonical_json.dump_bytes(unsigned)
    assert confirmation.verify()
    restored = Confirmation.from_wire(confirmation.to_wire())
    assert restored.to_wire() == confirmation.to_wire()
    assert restored.body() == confirmation.body()
    assert restored.verify()
    tampered = dataclasses.replace(confirmation, status="forged")
    assert tampered.body() != confirmation.body() and not tampered.verify()


def test_rebuilt_envelope_with_altered_data_fails_verification():
    envelope = Envelope.create(
        signer=SENDER, recipient=RECIPIENT, operation=Opcode.TX_SUBMIT,
        data={"contract": "fastmoney", "args": {"amount": 1}}, timestamp=1.0, nonce="0x02",
    )
    assert envelope.verify()
    tx_id = envelope.payload.hash_hex()
    altered = dataclasses.replace(
        envelope.payload, data={"contract": "fastmoney", "args": {"amount": 1000}}
    )
    for forged in (
        Envelope(payload=altered, signature=envelope.signature, scheme=envelope.scheme),
        dataclasses.replace(envelope, payload=altered),
    ):
        assert not forged.verify()
        assert forged.payload.hash_hex() != tx_id
        assert forged.byte_size() == len(canonical_json.dump_bytes(forged.to_link()))
    # The original is untouched by the forgeries built from it.
    assert envelope.verify() and envelope.payload.hash_hex() == tx_id


# ----------------------------------------------------------------------
# The ECDSA verification memo: a hit vouches for exactly what was checked
# ----------------------------------------------------------------------
ECDSA_SENDER = EcdsaSigner.from_seed("prop-encoding-ecdsa-sender")
ECDSA_OTHER = EcdsaSigner.from_seed("prop-encoding-ecdsa-other")


def _counted_recoveries():
    """Patch that counts the curve recoveries of ``verify_signature`` (memo misses)."""
    return mock.patch.object(
        signer_module, "recover_address", wraps=signer_module.recover_address)


def _assert_never_vouched_for(forged, recover) -> None:
    """A forgery fails each time it is asked, at full price: no failure is kept."""
    before = recover.call_count
    assert not forged.verify() and not forged.verify()
    # (Only the ECDSA scheme recovers anything.)
    assert recover.call_count == before + (2 if forged.scheme == "ecdsa" else 0)


@settings(max_examples=10, deadline=None)
@given(payload_data)
def test_memo_hit_on_an_envelope_never_vouches_for_a_replaced_one(data):
    signer_module._VERIFIED_ECDSA.clear()
    envelope = Envelope.create(
        signer=ECDSA_SENDER, recipient=RECIPIENT, operation=Opcode.TX_SUBMIT,
        data=data, timestamp=1.0, nonce="0x03",
    )
    payload = envelope.payload
    with _counted_recoveries() as recover:
        assert envelope.verify() and envelope.verify()
        assert Envelope.from_wire(canonical_json.dump_bytes(envelope.to_wire())).verify()
        assert recover.call_count == 1  # the second and third check were memo hits
        # The signer hashed these bytes, so every forgery below that keeps
        # them finds their digest ready, and still pays the whole recovery.
        assert keys.MESSAGE_DIGESTS.get(payload.canonical_bytes()) is not None
        other_signature = ECDSA_OTHER.sign(payload.canonical_bytes())
        flipped = bytes([envelope.signature[0] ^ 1]) + envelope.signature[1:]
        for forged in (
            dataclasses.replace(envelope, payload=dataclasses.replace(
                payload, data={**data, "a key no strategy draws": 1})),
            dataclasses.replace(envelope, payload=dataclasses.replace(
                payload, sender=ECDSA_OTHER.address)),
            dataclasses.replace(envelope, payload=dataclasses.replace(payload, nonce="0x04")),
            dataclasses.replace(envelope, signature=other_signature),
            dataclasses.replace(envelope, signature=flipped),
            dataclasses.replace(envelope, scheme="sim"),
        ):
            _assert_never_vouched_for(forged, recover)
        assert envelope.verify()
    assert len(signer_module._VERIFIED_ECDSA) == 1


def test_memo_hit_on_a_confirmation_never_vouches_for_a_replaced_one():
    signer_module._VERIFIED_ECDSA.clear()
    confirmation = Confirmation.create(
        ECDSA_SENDER, "0x" + "cd" * 32, "fastmoney", "0x" + "ab" * 32, "executed", 2.0)
    with _counted_recoveries() as recover:
        assert confirmation.verify() and confirmation.verify()
        assert Confirmation.from_wire(confirmation.to_wire()).verify()
        assert recover.call_count == 1
        assert keys.MESSAGE_DIGESTS.get(confirmation.body()) is not None
        for forged in (
            dataclasses.replace(confirmation, status="rejected"),
            dataclasses.replace(confirmation, cell=ECDSA_OTHER.address),
            dataclasses.replace(confirmation, tx_id="0x" + "ce" * 32),
            dataclasses.replace(confirmation, signature=ECDSA_OTHER.sign(confirmation.body())),
            dataclasses.replace(confirmation, scheme="sim"),
        ):
            _assert_never_vouched_for(forged, recover)
    assert len(signer_module._VERIFIED_ECDSA) == 1


def test_memo_is_bounded_and_forgets_oldest_first(monkeypatch):
    signer_module._VERIFIED_ECDSA.clear()
    monkeypatch.setattr(signer_module._VERIFIED_ECDSA, "limit", 3)
    messages = [b"memo-bound-%d" % index for index in range(5)]
    for message in messages:
        assert signer_module.verify_signature(
            "ecdsa", ECDSA_SENDER.address, message, ECDSA_SENDER.sign(message))
    assert [key[1] for key in signer_module._VERIFIED_ECDSA] == messages[2:]
    registered = dict(SimulatedSigner._registry)  # other modules' signers live there
    try:
        assert len(keys.MESSAGE_DIGESTS) >= len(messages)
        SimulatedSigner.clear_registry()
        assert not signer_module._VERIFIED_ECDSA
        # A benchmark repeat that replays a seed must hash its messages again.
        assert not keys.MESSAGE_DIGESTS
    finally:
        SimulatedSigner._registry.update(registered)


# ----------------------------------------------------------------------
# The message-digest memo: keccak256 of the exact bytes, and nothing more
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300))
@example(b"")
@example(b"\x00" * 135)  # one byte short of a rate block: padding fits
@example(b"\x00" * 136)  # exactly one block: the padding takes a second one
@example(b"\x00" * 137)
def test_message_digest_is_keccak256_of_the_exact_bytes(message):
    keys.MESSAGE_DIGESTS.clear()
    digest = keccak256(message)
    assert message_digest(message) == digest and message_digest(message) == digest
    # Another buffer type with the same content is the same entry...
    assert message_digest(bytearray(message)) == digest
    assert message_digest(memoryview(message)) == digest
    assert list(keys.MESSAGE_DIGESTS) == [message]
    assert all(type(key) is bytes for key in keys.MESSAGE_DIGESTS)
    # ...and one different byte is a different one.
    flipped = bytes([message[0] ^ 1]) + message[1:] if message else b"\x01"
    for other in (message + b"\x00", flipped):
        assert message_digest(other) == keccak256(other) != digest
    assert len(keys.MESSAGE_DIGESTS) == 3


def test_message_digest_hashes_once_for_every_signer_and_verifier():
    keys.MESSAGE_DIGESTS.clear()
    signer_module._VERIFIED_ECDSA.clear()
    message = b"digest-memo: two signers, two verifiers"
    with mock.patch.object(keys, "keccak256", wraps=keccak256) as hashed:
        first, second = ECDSA_SENDER.sign(message), ECDSA_OTHER.sign(message)
        assert signer_module.verify_signature("ecdsa", ECDSA_SENDER.address, message, first)
        assert signer_module.verify_signature("ecdsa", ECDSA_OTHER.address, message, second)
        assert ECDSA_SENDER.key.public_key.verify(message, Signature.from_bytes(first))
    assert [call.args[0] for call in hashed.call_args_list].count(message) == 1


def test_a_ready_digest_never_vouches_for_a_signature():
    """The memo answers "what is the hash of these bytes", never "who signed them"."""
    keys.MESSAGE_DIGESTS.clear()
    signer_module._VERIFIED_ECDSA.clear()
    message = b"digest-memo: warm digest, wrong signer"
    signature = ECDSA_SENDER.sign(message)  # leaves the digest in the memo
    assert list(keys.MESSAGE_DIGESTS) == [message]
    with mock.patch.object(keys, "recover_public_key", wraps=keys.recover_public_key) as curve:
        for _ in range(2):  # a failure costs the whole recovery, every time
            assert not signer_module.verify_signature(
                "ecdsa", ECDSA_OTHER.address, message, signature)
            assert not signer_module.verify_signature(
                "ecdsa", ECDSA_SENDER.address, message + b"!", signature)
        assert curve.call_count == 4
    assert not signer_module._VERIFIED_ECDSA


# ----------------------------------------------------------------------
# The public-key address memo: keccak256 of the exact 64-byte key, once
# ----------------------------------------------------------------------
def test_recovered_addresses_are_unchanged_and_each_key_is_hashed_once():
    keys.PUBLIC_KEY_ADDRESSES.clear()
    signed = [
        (message, Signature.from_bytes(signer.sign(message)), signer.address)
        for signer in (ECDSA_SENDER, ECDSA_OTHER)
        for message in (b"address-memo-%d" % index for index in range(3))
    ]
    with mock.patch.object(keys, "keccak256", wraps=keccak256) as hashed:
        for message, signature, address in signed:
            assert keys.recover_address(message, signature) == address
    encodings = [signer.key.public_key.encode() for signer in (ECDSA_SENDER, ECDSA_OTHER)]
    hashed_inputs = [call.args[0] for call in hashed.call_args_list]
    assert [hashed_inputs.count(encoded) for encoded in encodings] == [1, 1]
    assert list(keys.PUBLIC_KEY_ADDRESSES) == encodings
    for encoded in encodings:
        assert len(encoded) == 64
        assert keys.PUBLIC_KEY_ADDRESSES.get(encoded).value == keccak256(encoded)[-20:]


def test_clear_registry_empties_the_address_memo():
    message = b"address-memo: cleared"
    keys.recover_address(message, Signature.from_bytes(ECDSA_SENDER.sign(message)))
    assert keys.PUBLIC_KEY_ADDRESSES
    registered = dict(SimulatedSigner._registry)  # other modules' signers live there
    try:
        SimulatedSigner.clear_registry()
        assert not keys.PUBLIC_KEY_ADDRESSES
    finally:
        SimulatedSigner._registry.update(registered)
    # Recovering again hashes again, to the same address.
    assert keys.recover_address(message, Signature.from_bytes(ECDSA_SENDER.sign(message))) \
        == ECDSA_SENDER.address


def test_message_digest_memo_is_bounded_and_forgets_oldest_first(monkeypatch):
    keys.MESSAGE_DIGESTS.clear()
    monkeypatch.setattr(keys.MESSAGE_DIGESTS, "limit", 3)
    messages = [b"digest-bound-%d" % index for index in range(5)]
    for message in messages:
        message_digest(message)
    assert list(keys.MESSAGE_DIGESTS) == messages[2:]
    assert message_digest(messages[0]) == keccak256(messages[0])  # hashed again, correctly
    assert list(keys.MESSAGE_DIGESTS) == messages[3:] + messages[:1]
