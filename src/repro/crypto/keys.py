"""Key pairs and Ethereum-style addresses.

Cells, clients, and auditors are all identified by the 160-bit Ethereum
address derived from their secp256k1 public key (the low 20 bytes of the
Keccak-256 hash of the uncompressed public key), exactly as described in
Section III-C3 of the paper.
"""

from __future__ import annotations

import secrets  # lint: disable=DET001 — entropy is quarantined in PrivateKey.generate below
from dataclasses import dataclass
from functools import cached_property

from .ecdsa import Signature, recover_public_key, recovers_to, sign_hash, verify_hash
from .keccak import keccak256
from .memo import BoundedMemo
from .secp256k1 import (
    GENERATOR,
    N,
    Point,
    Table,
    decode_point,
    known_key_table,
    scalar_multiply,
)


class AddressError(ValueError):
    """Raised for malformed addresses."""


@dataclass(frozen=True, order=True)
class Address:
    """A 20-byte account address, printed as 0x-prefixed hex."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != 20:
            raise AddressError("an address is exactly 20 bytes")

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        """Parse a 0x-prefixed (or bare) 40-character hex address.

        A deployment names a few dozen addresses tens of thousands of times,
        so a text that parsed once is remembered (exactly as received) and
        answered with the same frozen instance.  A malformed text raises
        every time and is never remembered.
        """
        known = _PARSED_ADDRESSES.get(text)
        if known is not None:
            return known
        digits = text[2:] if text.startswith("0x") or text.startswith("0X") else text
        if len(digits) != 40:
            raise AddressError(f"expected 40 hex characters, got {len(digits)}")
        address = cls(bytes.fromhex(digits))
        _PARSED_ADDRESSES.put(text, address)
        return address

    @classmethod
    def from_public_key(cls, public_key: Point) -> "Address":
        """Derive the address as the low 20 bytes of keccak256(pubkey).

        Every signature recovery ends here, and a deployment recovers the
        same few keys over and over, so each key is hashed once per process:
        :data:`PUBLIC_KEY_ADDRESSES` remembers the address by the exact
        64-byte encoding that was hashed.
        """
        encoded = public_key.encode()
        address = PUBLIC_KEY_ADDRESSES.get(encoded)
        if address is None:
            address = cls(keccak256(encoded)[-20:])
            PUBLIC_KEY_ADDRESSES.put(encoded, address)
        return address

    @classmethod
    def zero(cls) -> "Address":
        """The all-zero address, used as the contract-creation sentinel."""
        return cls(b"\x00" * 20)

    def hex(self) -> str:
        """Return the canonical 0x-prefixed lowercase hex form (built once per instance)."""
        return self._hex

    @cached_property
    def _hex(self) -> str:
        return "0x" + self.value.hex()

    def short(self) -> str:
        """Return an abbreviated form for logs: 0xabcd..ef01."""
        full = self.value.hex()
        return f"0x{full[:4]}..{full[-4:]}"

    def __str__(self) -> str:
        return self.hex()

    def __repr__(self) -> str:
        return f"Address({self.hex()!r})"


#: Process-wide memo of :meth:`Address.from_hex`, oldest entry evicted first.
_PARSED_ADDRESSES: BoundedMemo[str, Address] = BoundedMemo(4096)

#: Process-wide memo of :func:`message_digest`: message bytes -> Keccak-256.
MESSAGE_DIGESTS: BoundedMemo[bytes, bytes] = BoundedMemo(4096)

#: Process-wide memo of :meth:`Address.from_public_key`: the 64-byte public
#: key encoding -> its address (a pure function of those bytes, like
#: :data:`MESSAGE_DIGESTS`; emptied by the same ``clear_registry``).
PUBLIC_KEY_ADDRESSES: BoundedMemo[bytes, Address] = BoundedMemo(4096)


def message_digest(message: bytes) -> bytes:
    """``keccak256(message)``, hashed once per process.

    The cells of one simulated deployment share a process, so the bytes a
    signer hashed are hashed again, bit for bit, by every party that checks
    the signature.  This is a memo of a pure function on its whole input —
    the key is the exact bytes, so no check is weakened — bounded and evicted
    oldest-first.  :meth:`repro.messages.signer.SimulatedSigner.clear_registry`
    empties it between benchmark repeats, which would otherwise find every
    digest of a replayed seed already here.
    """
    if type(message) is not bytes:
        message = bytes(memoryview(message))  # the key is the content, never a mutable buffer
    digest = MESSAGE_DIGESTS.get(message)
    if digest is None:
        digest = keccak256(message)
        MESSAGE_DIGESTS.put(message, digest)
    return digest


@dataclass(frozen=True)
class PublicKey:
    """A secp256k1 public key with helpers for verification and addressing."""

    point: Point

    def address(self) -> Address:
        """The Ethereum-style address of this key (hashed once per instance)."""
        return self._address

    @cached_property
    def _address(self) -> Address:
        return Address.from_public_key(self.point)

    def encode(self, compressed: bool = False) -> bytes:
        """Serialize the underlying point."""
        return self.point.encode(compressed=compressed)

    @classmethod
    def decode(cls, data: bytes) -> "PublicKey":
        """Parse a SEC1-encoded public key."""
        return cls(decode_point(data))

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Verify an ECDSA signature over keccak256(message)."""
        return verify_hash(self.point, message_digest(message), signature)

    def is_recovered_from(self, message: bytes, signature: Signature) -> bool:
        """Whether recovering the signer of ``(message, signature)`` gives this key.

        The verdict of recover-and-compare (:func:`~.ecdsa.recovers_to`) at
        well under half its cost once this instance's table is built.
        The table (0.12 MiB) is built at the instance's first check and
        kept with it, so only a key that is checked again and again should
        be asked: the build costs as much as a few recoveries.
        """
        return recovers_to(self._table, message_digest(message), signature)

    @cached_property
    def _table(self) -> Table:
        return known_key_table(self.point)


class PrivateKey:
    """A secp256k1 private key.

    The secret scalar is kept on a private attribute; the public key and
    address are computed lazily and cached on the instance, because every
    signer reads its address for every message it creates.
    """

    def __init__(self, secret: int) -> None:
        if not (1 <= secret < N):
            raise ValueError("private key scalar out of range")
        self._secret = secret

    @classmethod
    def generate(cls) -> "PrivateKey":
        """Generate a key from the OS entropy pool (non-deterministic)."""
        # lint: disable=DET002 — real key generation wants real entropy; experiments use from_seed
        return cls(secrets.randbelow(N - 1) + 1)

    @classmethod
    def from_seed(cls, seed: bytes | str | int) -> "PrivateKey":
        """Derive a key deterministically from a seed.

        Workload generators use this so that every experiment run signs with
        the same keys, making byte counts and traces reproducible.
        """
        if isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        elif isinstance(seed, str):
            seed = seed.encode()
        scalar = int.from_bytes(keccak256(seed), "big") % (N - 1) + 1
        return cls(scalar)

    @classmethod
    def from_hex(cls, text: str) -> "PrivateKey":
        """Parse a 32-byte hex-encoded private key."""
        if text.startswith("0x") or text.startswith("0X"):
            text = text[2:]
        return cls(int(text, 16))

    def to_hex(self) -> str:
        """Serialize the secret scalar as 0x-prefixed hex (use with care)."""
        return "0x" + self._secret.to_bytes(32, "big").hex()

    @property
    def secret(self) -> int:
        """The raw secret scalar."""
        return self._secret

    @cached_property
    def public_key(self) -> PublicKey:
        """The corresponding public key."""
        return PublicKey(scalar_multiply(self._secret, GENERATOR))

    @property
    def address(self) -> Address:
        """The Ethereum-style address of this key."""
        return self.public_key.address()

    def sign(self, message: bytes) -> Signature:
        """Sign keccak256(message)."""
        return sign_hash(self._secret, message_digest(message))

    def sign_hash(self, message_hash: bytes) -> Signature:
        """Sign an already-computed 32-byte hash."""
        return sign_hash(self._secret, message_hash)

    def __repr__(self) -> str:
        return f"PrivateKey(address={self.address.hex()})"


def recover_address(message: bytes, signature: Signature) -> Address:
    """Recover the signer's address from a message and signature.

    This is how a Blockumulus cell authenticates a transaction: the sender
    field of the payload must equal the address recovered from the signature.
    """
    public = recover_public_key(message_digest(message), signature)
    return Address.from_public_key(public)
