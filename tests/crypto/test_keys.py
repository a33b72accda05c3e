"""Key pairs and Ethereum-style addresses."""

import pytest

from repro.crypto.keys import Address, AddressError, PrivateKey, PublicKey, recover_address


def test_address_from_seed_is_deterministic():
    assert PrivateKey.from_seed("alice").address == PrivateKey.from_seed("alice").address


def test_distinct_seeds_distinct_addresses():
    assert PrivateKey.from_seed("alice").address != PrivateKey.from_seed("bob").address


def test_address_is_20_bytes_of_pubkey_hash():
    key = PrivateKey.from_seed("addr")
    from repro.crypto.keccak import keccak256

    expected = keccak256(key.public_key.encode())[-20:]
    assert key.address.value == expected


def test_address_hex_roundtrip():
    address = PrivateKey.from_seed("hex").address
    assert Address.from_hex(address.hex()) == address
    assert address.hex().startswith("0x") and len(address.hex()) == 42


def test_address_short_form():
    address = PrivateKey.from_seed("short").address
    short = address.short()
    assert short.startswith("0x") and ".." in short and len(short) < len(address.hex())


def test_address_rejects_bad_lengths():
    with pytest.raises(AddressError):
        Address(b"\x01" * 19)
    with pytest.raises(AddressError):
        Address.from_hex("0x1234")


@pytest.fixture
def parsed_addresses(monkeypatch):
    """An empty ``Address.from_hex`` memo of four entries, for one test."""
    from repro.crypto import keys
    from repro.crypto.memo import BoundedMemo

    memo: BoundedMemo = BoundedMemo(4)
    monkeypatch.setattr(keys, "_PARSED_ADDRESSES", memo)
    return memo


def test_from_hex_remembers_each_spelling_as_received(parsed_addresses):
    address = PrivateKey.from_seed("interned").address
    bare = address.value.hex()
    spellings = ["0x" + bare, "0X" + bare.upper(), bare]
    for text in spellings:
        first = Address.from_hex(text)  # validated on first sight
        assert first == address and Address.from_hex(text) is first
    assert list(parsed_addresses) == spellings


def test_from_hex_never_remembers_a_malformed_text(parsed_addresses):
    bare = "ab" * 20
    for malformed in ("0x1234", "0x" + "zz" * 20, "0x" + bare + "00", "0x" + " " * 40):
        for _ in range(2):
            with pytest.raises(ValueError):
                Address.from_hex(malformed)
    assert list(parsed_addresses) == []


def test_from_hex_memo_is_bounded_and_evicts_the_oldest_text(parsed_addresses):
    texts = [f"{index:040x}" for index in range(6)]
    for text in texts:
        Address.from_hex(text)
    assert list(parsed_addresses) == texts[2:]
    assert Address.from_hex(texts[0]).value == bytes(20)


def test_zero_address():
    assert Address.zero().value == b"\x00" * 20


def test_private_key_hex_roundtrip():
    key = PrivateKey.from_seed("roundtrip")
    assert PrivateKey.from_hex(key.to_hex()).address == key.address


def test_private_key_range_validation():
    with pytest.raises(ValueError):
        PrivateKey(0)


def test_public_key_encode_decode():
    key = PrivateKey.from_seed("pub")
    encoded = key.public_key.encode()
    assert PublicKey.decode(encoded).address() == key.address


def test_sign_and_recover_address():
    key = PrivateKey.from_seed("signer")
    signature = key.sign(b"message body")
    assert recover_address(b"message body", signature) == key.address


def test_recover_address_differs_for_tampered_message():
    key = PrivateKey.from_seed("signer")
    signature = key.sign(b"message body")
    try:
        recovered = recover_address(b"tampered body", signature)
    except Exception:
        return
    assert recovered != key.address


def test_public_key_verify():
    key = PrivateKey.from_seed("verify")
    signature = key.sign(b"hello")
    assert key.public_key.verify(b"hello", signature)
    assert not key.public_key.verify(b"hello!", signature)


def test_addresses_are_orderable_and_hashable():
    addresses = {PrivateKey.from_seed(str(i)).address for i in range(10)}
    assert len(addresses) == 10
    assert sorted(addresses)


def test_public_key_and_address_are_cached_per_instance():
    """Two alternating keys cost two multiplications and two address hashes.

    The cache used to be one ``lru_cache`` slot shared by every instance of
    the class, so alternating between two keys recomputed both every time.
    """
    from unittest import mock

    from repro.crypto import keys

    first, second = PrivateKey.from_seed("cache-a"), PrivateKey.from_seed("cache-b")
    with mock.patch.object(keys, "scalar_multiply", wraps=keys.scalar_multiply) as multiply, \
            mock.patch.object(keys, "keccak256", wraps=keys.keccak256) as digest:
        seen = set()
        for _ in range(100):
            seen.update((first.address, second.address, first.public_key.address()))
    assert len(seen) == 2
    assert (multiply.call_count, digest.call_count) == (2, 2)
