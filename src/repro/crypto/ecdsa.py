"""Deterministic ECDSA (RFC 6979) over secp256k1 with public-key recovery.

Every Blockumulus message — client transactions, cell-to-cell forwards,
confirmation receipts, and Ethereum anchor transactions — carries an ECDSA
signature over the Keccak-256 hash of the canonical payload.  This module
implements signing, verification, and Ethereum-style ``(v, r, s)`` recovery
from scratch on top of :mod:`repro.crypto.secp256k1`.

Deterministic nonces (RFC 6979, HMAC-SHA256) make the whole simulation
reproducible from a seed: the same payload signed by the same key always
produces the same signature bytes, which matters for the byte-exact
communication accounting of Table II.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Iterator

from .keccak import keccak256
from .secp256k1 import (
    GENERATOR,
    N,
    P,
    Point,
    Table,
    double_scalar_multiply,
    known_key_multiply,
    recover_y,
    scalar_multiply,
)


class SignatureError(ValueError):
    """Raised for malformed or unverifiable signatures."""


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature with the Ethereum-style recovery id ``v``."""

    r: int
    s: int
    v: int

    def __post_init__(self) -> None:
        if not (1 <= self.r < N and 1 <= self.s < N):
            raise SignatureError("signature components out of range")
        if self.v not in (0, 1):
            raise SignatureError("recovery id must be 0 or 1")

    def to_bytes(self) -> bytes:
        """Serialize as 65 bytes: ``r || s || v``."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        """Parse a 65-byte ``r || s || v`` signature."""
        if len(data) != 65:
            raise SignatureError(f"expected 65 signature bytes, got {len(data)}")
        return cls(
            r=int.from_bytes(data[:32], "big"),
            s=int.from_bytes(data[32:64], "big"),
            v=data[64],
        )

    def to_hex(self) -> str:
        """Serialize as a 0x-prefixed hex string."""
        return "0x" + self.to_bytes().hex()

    @classmethod
    def from_hex(cls, text: str) -> "Signature":
        """Parse a 0x-prefixed hex signature."""
        if text.startswith("0x") or text.startswith("0X"):
            text = text[2:]
        return cls.from_bytes(bytes.fromhex(text))


def _rfc6979_nonces(private_key: int, message_hash: bytes) -> Iterator[int]:
    """The deterministic nonce candidates ``k`` of RFC 6979 with HMAC-SHA256.

    The first is the nonce; a signer that cannot use a candidate (``r`` or
    ``s`` is 0) takes the next, which continues the same HMAC-DRBG (section
    3.2 step h.3).  Both HMAC seeds take ``bits2octets(h1)``, the digest
    reduced mod ``N`` (section 2.3.4; step 3.2 d), which differs from the
    raw digest only when that is at least ``N``.
    """
    holder = private_key.to_bytes(32, "big")
    reduced = (int.from_bytes(message_hash, "big") % N).to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + holder + reduced, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + holder + reduced, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            yield candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign_hash(private_key: int, message_hash: bytes) -> Signature:
    """Sign a 32-byte hash with the given private scalar."""
    if len(message_hash) != 32:
        raise SignatureError("message hash must be exactly 32 bytes")
    if not (1 <= private_key < N):
        raise SignatureError("private key out of range")
    z = int.from_bytes(message_hash, "big")
    for k in _rfc6979_nonces(private_key, message_hash):
        point = scalar_multiply(k, GENERATOR)
        r = point.x % N
        s = (pow(k, -1, N) * (z + r * private_key)) % N
        if r and s:
            break
    recovery_id = point.y & 1
    # Enforce low-s form (as Ethereum does) and flip the recovery bit.
    if s > N // 2:
        s = N - s
        recovery_id ^= 1
    return Signature(r=r, s=s, v=recovery_id)


def sign_message(private_key: int, message: bytes) -> Signature:
    """Sign the Keccak-256 hash of ``message``."""
    return sign_hash(private_key, keccak256(message))


def verify_hash(public_key: Point, message_hash: bytes, signature: Signature) -> bool:
    """Verify ``signature`` over a 32-byte hash against ``public_key``."""
    if len(message_hash) != 32:
        raise SignatureError("message hash must be exactly 32 bytes")
    z = int.from_bytes(message_hash, "big")
    try:
        s_inv = pow(signature.s, -1, N)
    except ValueError:
        return False
    u1 = (z * s_inv) % N
    u2 = (signature.r * s_inv) % N
    point = double_scalar_multiply(u1, u2, public_key)
    if point.is_infinity():
        return False
    return point.x % N == signature.r


def recovers_to(table: Table, message_hash: bytes, signature: Signature) -> bool:
    """Whether ``recover_public_key(message_hash, signature)`` returns the key
    whose :func:`~repro.crypto.secp256k1.known_key_table` is ``table``.

    Recovery returns ``Q`` exactly when ``R = (r, y)`` with ``y & 1 == v`` is
    a curve point and ``r^-1 (s*R - z*G) = Q``, that is ``R = u1*G + u2*Q``
    with ``u1 = z/s`` and ``u2 = r/s``.  So the check computes ``R' = u1*G +
    u2*Q`` from the key's table and accepts iff ``R'`` is finite, ``R'.x ==
    r`` (not ``mod N``) and ``R'.y & 1 == v``: the same verdict without the
    square root and the doublings of a recovery.  :func:`verify_hash` is
    not this check: it ignores ``v`` and compares ``x mod N``, so it accepts
    ``(r, s, v ^ 1)``, which recovery maps to another key.
    """
    if len(message_hash) != 32:
        raise SignatureError("message hash must be exactly 32 bytes")
    s_inv = pow(signature.s, -1, N)
    z = int.from_bytes(message_hash, "big")
    point = known_key_multiply(z * s_inv, signature.r * s_inv, table)
    return (
        not point.is_infinity()
        and point.x == signature.r
        and point.y & 1 == signature.v
    )


def verify_message(public_key: Point, message: bytes, signature: Signature) -> bool:
    """Verify a signature over the Keccak-256 hash of ``message``."""
    return verify_hash(public_key, keccak256(message), signature)


def recover_public_key(message_hash: bytes, signature: Signature) -> Point:
    """Recover the signing public key from a hash and an ``(r, s, v)`` signature.

    This mirrors ``ecrecover`` in Ethereum and lets Blockumulus cells
    authenticate a transaction purely from its signature, without a key
    registry.
    """
    if len(message_hash) != 32:
        raise SignatureError("message hash must be exactly 32 bytes")
    r, s, v = signature.r, signature.s, signature.v
    if r >= P:
        raise SignatureError("r is not a valid field element")
    r_point = Point(r, recover_y(r, bool(v & 1)))
    z = int.from_bytes(message_hash, "big")
    r_inv = pow(r, -1, N)
    # Q = r^-1 (s*R - z*G), as one double-scalar pass.  That Q verifies the
    # signature is an identity (s^-1 (z*G + r*Q) = R), so it is not re-checked
    # here; tests/crypto/test_ecdsa.py holds it as a property.
    candidate = double_scalar_multiply(-z * r_inv, s * r_inv, r_point)
    if candidate.is_infinity():
        raise SignatureError("signature recovery produced the point at infinity")
    return candidate
