"""Canonical encoding and state fingerprinting."""

import enum
from collections import OrderedDict
from types import MappingProxyType
from typing import Any, Mapping

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.crypto import fingerprint as fingerprint_module
from repro.crypto.fingerprint import (
    canonical_bytes,
    fingerprint_state,
    fingerprint_state_hex,
    snapshot_fingerprint,
    snapshot_fingerprint_hex,
)


def test_dict_key_order_does_not_matter():
    a = {"x": 1, "y": [1, 2, 3], "z": {"nested": True}}
    b = {"z": {"nested": True}, "y": [1, 2, 3], "x": 1}
    assert fingerprint_state(a) == fingerprint_state(b)


def test_list_order_matters():
    assert fingerprint_state([1, 2, 3]) != fingerprint_state([3, 2, 1])


def test_type_distinctions():
    assert canonical_bytes(1) != canonical_bytes("1")
    assert canonical_bytes(True) != canonical_bytes(1)
    assert canonical_bytes(None) != canonical_bytes(0)
    assert canonical_bytes(b"ab") != canonical_bytes("ab")


def test_value_changes_change_fingerprint():
    assert fingerprint_state({"balance": 10}) != fingerprint_state({"balance": 11})


def test_nested_structures_supported():
    state = {"accounts": {"0xabc": {"balance": 5, "history": [1, 2]}}, "supply": 5}
    assert len(fingerprint_state(state)) == 32


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        canonical_bytes(object())


def test_fingerprint_hex_prefix():
    assert fingerprint_state_hex({"a": 1}).startswith("0x")


def test_snapshot_fingerprint_combines_contracts():
    parts = {"fastmoney": b"\x01" * 32, "system.cas": b"\x02" * 32}
    combined = snapshot_fingerprint(parts)
    assert len(combined) == 32
    assert combined != parts["fastmoney"]


def test_snapshot_fingerprint_is_order_independent():
    parts_a = {"a": b"\x01" * 32, "b": b"\x02" * 32}
    parts_b = {"b": b"\x02" * 32, "a": b"\x01" * 32}
    assert snapshot_fingerprint(parts_a) == snapshot_fingerprint(parts_b)


def test_snapshot_fingerprint_detects_excluded_contract():
    full = {"a": b"\x01" * 32, "b": b"\x02" * 32}
    partial = {"a": b"\x01" * 32}
    assert snapshot_fingerprint(full) != snapshot_fingerprint(partial)


def test_snapshot_fingerprint_hex():
    assert snapshot_fingerprint_hex({"a": b"\x01" * 32}).startswith("0x")


def test_float_and_string_lengths_disambiguated():
    # "ab" + "c" must not collide with "a" + "bc".
    assert canonical_bytes(["ab", "c"]) != canonical_bytes(["a", "bc"])


# ----------------------------------------------------------------------
# The byte format is frozen: golden bytes and the encoder they came from
# ----------------------------------------------------------------------
class Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


#: ``(value, hex of its encoding)``, recorded at commit c158b77 by the recursive
#: encoder kept below — ``canonical_bytes`` itself at the time — before the
#: single-pass encoder replaced it.  The format is inside every committed
#: digest, fingerprint and receipt: a row that stops matching is a broken
#: encoder, never a table to re-record.
GOLDEN_BYTES = [
    (None, "6e"),
    (True, "6231"),
    (False, "6230"),
    (0, "6930"),
    (-1, "692d31"),
    (7, "6937"),
    (-(2 ** 63), "692d39323233333732303336383534373735383038"),
    (2 ** 256 + 1, "69313135373932303839323337333136313935343233353730393835303038363837393037383533323639393834363635363430353634303339343537353834303037393133313239363339393337"),
    (0.0, "66302e30"),
    (-0.0, "662d302e30"),
    (1.5, "66312e35"),
    (-2.25, "662d322e3235"),
    (1e300, "6631652b333030"),
    (5e-324, "6635652d333234"),
    (float("nan"), "666e616e"),
    (float("inf"), "66696e66"),
    (float("-inf"), "662d696e66"),
    ("", "73303a"),
    ("a", "73313a61"),
    ("naïve ☃ 𝄞", "7331353a6e61c3af766520e2988320f09d849e"),
    ("0x" + "ab" * 20, "7334323a307861626162616261626162616261626162616261626162616261626162616261626162616261626162"),
    (b"", "79303a"),
    (b"\x00\xff raw", "79363a00ff20726177"),
    (bytearray(b"\x01\x02"), "79323a0102"),
    (memoryview(b"view"), "79343a76696577"),
    ([], "6c303a"),
    ((), "6c303a"),
    ({}, "64303a"),
    ([1, "two", None], "6c333a693173333a74776f6e"),
    ((1, "two", None), "6c333a693173333a74776f6e"),
    ([True, 1, False, 0], "6c343a6231693162306930"),
    ([[], [[]], ()], "6c333a6c303a6c313a6c303a6c303a"),
    (["ab", "c"], "6c323a73323a616273313a63"),
    ({"b": 1, "a": 2}, "64323a73313a61693273313a626931"),
    ({"é": 1, "z": 2, "Z": 3, "𝄞": 4, "": 5}, "64353a73303a693573313a5a693373313a7a693273323ac3a9693173343af09d849e6934"),
    ({"balance": 10, "history": [1, 2], "meta": {"frozen": False, "note": None}}, "64333a73373a62616c616e636569313073373a686973746f72796c323a6931693273343a6d65746164323a73363a66726f7a656e623073343a6e6f74656e"),
    ({"accounts": {"0xabc": {"balance": 5, "nonces": ["0x1", "0x2"]}}, "supply": 5}, "64323a73383a6163636f756e747364313a73353a307861626364323a73373a62616c616e6365693573363a6e6f6e6365736c323a73333a30783173333a30783273363a737570706c796935"),
    (Colour.BLUE, "6937"),
    ([Colour.RED, {"c": Colour.BLUE}], "6c323a693164313a73313a636937"),
    (MappingProxyType({"y": 1, "x": [2]}), "64323a73313a786c313a693273313a796931"),
    (OrderedDict([("y", 1), ("x", 2)]), "64323a73313a78693273313a796931"),
    ({10: "ten", 9: "nine", 2: "two"}, "64333a73323a313073333a74656e73313a3273333a74776f73313a3973343a6e696e65"),
    ({1: "int", "0": "text", 2.5: "float", None: "none"}, "64343a73313a3073343a7465787473313a3173333a696e7473333a322e3573353a666c6f617473343a4e6f6e6573343a6e6f6e65"),
    ({"k": b"raw", "t": (1, 2.0)}, "64323a73313a6b79333a72617773313a746c323a693166322e30"),
]


def reference_canonical_bytes(value: Any) -> bytes:
    """The encoder ``canonical_bytes`` replaced, verbatim: the differential reference."""
    if value is None:
        return b"n"
    if isinstance(value, bool):
        return b"b1" if value else b"b0"
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, float):
        return b"f" + repr(value).encode()
    if isinstance(value, str):
        encoded = value.encode()
        return b"s" + str(len(encoded)).encode() + b":" + encoded
    if isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        return b"y" + str(len(raw)).encode() + b":" + raw
    if isinstance(value, (list, tuple)):
        parts = b"".join(reference_canonical_bytes(item) for item in value)
        return b"l" + str(len(value)).encode() + b":" + parts
    if isinstance(value, Mapping):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        parts = b"".join(
            reference_canonical_bytes(str(key)) + reference_canonical_bytes(item)
            for key, item in items
        )
        return b"d" + str(len(items)).encode() + b":" + parts
    raise TypeError(f"cannot canonically encode value of type {type(value).__name__}")


def test_golden_bytes_recorded_before_the_encoder_was_replaced():
    moved = [
        repr(value) for value, expected in GOLDEN_BYTES
        if canonical_bytes(value).hex() != expected
    ]
    assert moved == []
    # The table was recorded by the reference, and stays a check on it too.
    assert all(reference_canonical_bytes(value).hex() == expected for value, expected in GOLDEN_BYTES)


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(), st.binary(max_size=8),
    st.sampled_from(Colour),
)
_keys = st.one_of(st.text(max_size=4), st.integers(-20, 20), st.booleans(), st.none())
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4).map(MappingProxyType),
    ),
    max_leaves=20,
)


def _keys_stay_distinct_as_text(value: Any) -> bool:
    if isinstance(value, Mapping):
        return len({str(key) for key in value}) == len(value) and all(
            _keys_stay_distinct_as_text(item) for item in value.values()
        )
    if isinstance(value, (list, tuple)):
        return all(_keys_stay_distinct_as_text(item) for item in value)
    return True


@settings(max_examples=500, deadline=None)
@given(_values)
def test_encoder_matches_the_reference_byte_for_byte(value):
    assume(_keys_stay_distinct_as_text(value))
    assert canonical_bytes(value) == reference_canonical_bytes(value)


@pytest.mark.parametrize("value", [0, -1, 2 ** 200, -(2 ** 200), "", "a", "naïve ☃ 𝄞"])
def test_scalar_fast_path_gives_the_generic_bytes(value):
    assert canonical_bytes(value) == reference_canonical_bytes(value)
    # Inside a container the same value is written by the generic encoder.
    assert canonical_bytes([value]) == b"l1:" + canonical_bytes(value)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(), st.text()))
def test_scalar_fast_path_matches_the_reference(value):
    assert canonical_bytes(value) == reference_canonical_bytes(value)


def test_only_an_exact_int_or_str_skips_the_generic_encoder(monkeypatch):
    entered = []
    generic = fingerprint_module._encode_each

    def counted(values, append):
        entered.append(values)
        generic(values, append)

    monkeypatch.setattr(fingerprint_module, "_encode_each", counted)
    for value in (7, -7, 2 ** 200, "", "text"):
        assert canonical_bytes(value) == reference_canonical_bytes(value)
    assert entered == []
    for value in (True, False, Colour.BLUE, 1.0, None):
        assert canonical_bytes(value) == reference_canonical_bytes(value)
    assert len(entered) == 5


def test_keys_that_collide_as_text_are_refused_whatever_the_insertion_order():
    """``{1: "a", "1": "b"}`` used to encode by insertion order: two cells
    building the same value in a different order disagreed on a fingerprint."""
    for colliding in ({1: "a", "1": "b"}, {"1": "b", 1: "a"}, {"state": [{True: 0, "True": 1}]}):
        with pytest.raises(TypeError):
            canonical_bytes(colliding)
    # What a JSON round trip does to an int key still encodes alike.
    assert canonical_bytes({1: "x", 2: ["y"]}) == canonical_bytes({"1": "x", "2": ["y"]})
