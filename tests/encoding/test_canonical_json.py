"""Canonical JSON serialization used for signed payloads."""

import pytest

from repro.crypto.keys import PrivateKey
from repro.encoding.canonical_json import CanonicalJSONError, dump_bytes, dumps, loads


def test_key_order_is_canonical():
    assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})


def test_no_whitespace():
    text = dumps({"a": [1, 2], "b": "x"})
    assert " " not in text and "\n" not in text


def test_bytes_rendered_as_hex():
    assert dumps({"sig": b"\x01\x02"}) == '{"sig":"0x0102"}'


def test_roundtrip_via_loads():
    value = {"a": 1, "b": [True, None, "text"], "c": {"nested": 2.5}}
    assert loads(dumps(value)) == value


def test_address_objects_use_hex_method():
    address = PrivateKey.from_seed("json").address
    assert dumps({"addr": address}) == f'{{"addr":"{address.hex()}"}}'


def test_nan_rejected():
    with pytest.raises(CanonicalJSONError):
        dumps({"x": float("nan")})


def test_non_string_keys_rejected():
    with pytest.raises(CanonicalJSONError):
        dumps({1: "a"})


def test_unsupported_object_rejected():
    with pytest.raises(CanonicalJSONError):
        dumps({"x": object()})


def test_dump_bytes_is_utf8_of_dumps():
    value = {"text": "héllo"}
    assert dump_bytes(value) == dumps(value).encode()


def test_loads_accepts_bytes():
    assert loads(dump_bytes({"a": 1})) == {"a": 1}


@pytest.mark.parametrize("text", ["NaN", "[Infinity]", '{"a": -Infinity}', "1e999", "[-1e999]"])
def test_loads_refuses_what_dumps_can_never_have_written(text):
    with pytest.raises(CanonicalJSONError):
        loads(text)
    assert loads("[1e308, -1.5, 0.0]") == [1e308, -1.5, 0.0]
