"""Fingerprinting helpers for bContract state and data snapshots.

A *data fingerprint* is the hash of a canonical encoding of a bContract's
state (Section III-A2).  A *data snapshot fingerprint* combines all
per-contract fingerprints into a single hash; we use a Merkle root over
``(contract_name, fingerprint)`` leaves so the combination is order-stable
and auditable per contract.  The hash function ``H`` is a deployment
invariant; this reproduction uses BLAKE2b-256 (see
:mod:`repro.crypto.hashing` for the rationale).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Mapping

from .hashing import fast_hash
from .merkle import MerkleTree


#: Exact builtin type -> the one-byte prefix its encoding starts with.
_PREFIX_OF_TYPE = {
    type(None): b"n", bool: b"b", int: b"i", float: b"f", str: b"s",
    bytes: b"y", list: b"l", tuple: b"l", dict: b"d",
}
_ONLY_STR = frozenset({str})


def canonical_bytes(value: Any) -> bytes:
    """Encode a JSON-like Python value into deterministic bytes.

    Supports None, bools, ints, floats, strings, bytes, and (possibly nested)
    lists/tuples and mappings.  Mapping keys are encoded as their ``str()``
    and sorted by it, so that two semantically equal states always produce
    the same fingerprint, regardless of insertion order — this is what lets
    independent cells agree on a fingerprint after executing the same
    transactions — and ``{1: x}`` encodes like the ``{"1": x}`` a JSON round
    trip turns it into.  Keys that are not distinct after ``str()`` have no
    canonical order and are refused with :class:`TypeError`, like a value
    of an unsupported type.

    **The byte format is frozen.**  It is inside every committed digest,
    state fingerprint and receipt; ``tests/crypto/test_fingerprint.py``
    holds golden bytes recorded by the encoder this one replaced, and that
    encoder itself as a differential reference.  The encoding is one pass:
    each value is classified once (by exact type; the ``isinstance`` ladder
    only sees what is not an exact builtin), every piece goes into one
    list, and the list is joined once.  An exact ``str`` or ``int`` — most
    stored values are balances — is answered without that machinery.
    """
    kind = type(value)
    if kind is str:
        raw = value.encode()
        return b"s%d:%b" % (len(raw), raw)
    if kind is int:
        return b"i%d" % value
    out: list[bytes] = []
    _encode_each((value,), out.append)
    return b"".join(out)


def _encode_each(values: Iterable[Any], append: Callable[[bytes], None]) -> None:
    """Append the encoding of each of ``values``, in order (one call per container)."""
    for value in values:
        try:
            prefix = _PREFIX_OF_TYPE[type(value)]
        except KeyError:
            prefix = _prefix_of(value)
        if prefix == b"s":
            raw = value.encode()
            append(b"s%d:%b" % (len(raw), raw))
        elif prefix == b"i":
            append(b"i" + str(value).encode())
        elif prefix == b"d":
            if type(value) is not dict or not set(map(type, value)) <= _ONLY_STR:
                by_text = {str(key): item for key, item in value.items()}
                if len(by_text) != len(value):
                    raise TypeError("cannot canonically encode a mapping whose keys collide after str()")
                value = by_text
            append(b"d%d:" % len(value))
            # Distinct str keys: sorting the pairs never compares two items.
            _encode_each(chain.from_iterable(sorted(value.items())), append)
        elif prefix == b"l":
            append(b"l%d:" % len(value))
            _encode_each(value, append)
        elif prefix == b"n":
            append(b"n")
        elif prefix == b"b":
            append(b"b1" if value else b"b0")
        elif prefix == b"f":
            append(b"f" + repr(value).encode())
        else:
            raw = bytes(value)
            append(b"y%d:%b" % (len(raw), raw))


def _prefix_of(value: Any) -> bytes:
    """Classify a value that is not an exact builtin (an ``IntEnum``, a proxy…)."""
    if isinstance(value, int):
        return b"i"
    if isinstance(value, float):
        return b"f"
    if isinstance(value, str):
        return b"s"
    if isinstance(value, (bytes, bytearray, memoryview)):
        return b"y"
    if isinstance(value, (list, tuple)):
        return b"l"
    if isinstance(value, Mapping):
        return b"d"
    raise TypeError(f"cannot canonically encode value of type {type(value).__name__}")


def fingerprint_state(state: Any) -> bytes:
    """Fingerprint an arbitrary JSON-like contract state."""
    return fast_hash(canonical_bytes(state))


def fingerprint_state_hex(state: Any) -> str:
    """Fingerprint a contract state and return 0x-prefixed hex."""
    return "0x" + fingerprint_state(state).hex()


def snapshot_fingerprint(contract_fingerprints: Mapping[str, bytes]) -> bytes:
    """Combine per-contract fingerprints into the data snapshot fingerprint.

    ``contract_fingerprints`` maps contract names to their 32-byte state
    fingerprints.  Contracts excluded from the snapshot (mismatching
    fingerprints, Section III-A3) are simply absent from the mapping.
    """
    leaves = [
        name.encode() + b"\x00" + digest
        for name, digest in sorted(contract_fingerprints.items())
    ]
    return MerkleTree(leaves, hash_function=fast_hash).root


def snapshot_fingerprint_hex(contract_fingerprints: Mapping[str, bytes]) -> str:
    """Hex form of :func:`snapshot_fingerprint`."""
    return "0x" + snapshot_fingerprint(contract_fingerprints).hex()
