"""Pure-Python Keccak-256 (the pre-standard Keccak used by Ethereum).

Ethereum addresses, transaction hashes, and the Blockumulus snapshot
fingerprints in the original paper are all derived from Keccak-256 (note:
*not* NIST SHA3-256, which uses a different padding byte).  The standard
library exposes SHA3 but not legacy Keccak, so this module implements the
Keccak-f[1600] permutation and the sponge construction from scratch.

Every signed message and every address in the real-ECDSA configuration
passes through this sponge once per process (a large share of such a
transaction's CPU, the curve arithmetic most of the rest; docs/BENCHMARKS.md,
"What a real-ECDSA transaction costs now", has the measured split), so the
permutation is written out lane by lane and blocks are
absorbed 17 lanes at a time: ~0.18 ms per permutation, 0.53 ms for a
400-byte message, 2.7x faster than the specification's loops over lane
tables, which are kept as the oracle in ``tests/crypto/test_keccak.py``.
"""

from __future__ import annotations

import struct

# Round constants for Keccak-f[1600] (24 rounds).
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

#: Sponge rate in bytes for Keccak-256 (1088 bits).
RATE_BYTES = 136
#: Digest size in bytes.
DIGEST_SIZE = 32

#: One rate block as its 17 little-endian lanes.
_BLOCK_LANES = struct.Struct("<17Q")


def _keccak_f1600(state: list[int]) -> list[int]:
    """Return the Keccak-f[1600] permutation of ``state`` (25 lanes, ``x + 5 * y``).

    The round is unrolled over 25 locals, which is what makes it ~2.7x faster
    than looping over lane tables: theta's column parities ``c`` and deltas
    ``d``; rho and pi fused, lane ``(x, y)`` rotated by its offset into lane
    ``(y, 2x + 3y)`` of ``b``; chi row by row; iota.  The lane indices and
    shift counts below are those maps written out; ``tests/crypto`` checks the
    result against the table-driven form.
    """
    M = (1 << 64) - 1
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = state
    for round_constant in _ROUND_CONSTANTS:
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (c1 << 1 & M | c1 >> 63)
        d1 = c0 ^ (c2 << 1 & M | c2 >> 63)
        d2 = c1 ^ (c3 << 1 & M | c3 >> 63)
        d3 = c2 ^ (c4 << 1 & M | c4 >> 63)
        d4 = c3 ^ (c0 << 1 & M | c0 >> 63)
        b0 = a0 ^ d0
        t = a5 ^ d0
        b16 = t << 36 & M | t >> 28
        t = a10 ^ d0
        b7 = t << 3 & M | t >> 61
        t = a15 ^ d0
        b23 = t << 41 & M | t >> 23
        t = a20 ^ d0
        b14 = t << 18 & M | t >> 46
        t = a1 ^ d1
        b10 = t << 1 & M | t >> 63
        t = a6 ^ d1
        b1 = t << 44 & M | t >> 20
        t = a11 ^ d1
        b17 = t << 10 & M | t >> 54
        t = a16 ^ d1
        b8 = t << 45 & M | t >> 19
        t = a21 ^ d1
        b24 = t << 2 & M | t >> 62
        t = a2 ^ d2
        b20 = t << 62 & M | t >> 2
        t = a7 ^ d2
        b11 = t << 6 & M | t >> 58
        t = a12 ^ d2
        b2 = t << 43 & M | t >> 21
        t = a17 ^ d2
        b18 = t << 15 & M | t >> 49
        t = a22 ^ d2
        b9 = t << 61 & M | t >> 3
        t = a3 ^ d3
        b5 = t << 28 & M | t >> 36
        t = a8 ^ d3
        b21 = t << 55 & M | t >> 9
        t = a13 ^ d3
        b12 = t << 25 & M | t >> 39
        t = a18 ^ d3
        b3 = t << 21 & M | t >> 43
        t = a23 ^ d3
        b19 = t << 56 & M | t >> 8
        t = a4 ^ d4
        b15 = t << 27 & M | t >> 37
        t = a9 ^ d4
        b6 = t << 20 & M | t >> 44
        t = a14 ^ d4
        b22 = t << 39 & M | t >> 25
        t = a19 ^ d4
        b13 = t << 8 & M | t >> 56
        t = a24 ^ d4
        b4 = t << 14 & M | t >> 50
        a0 = b0 ^ ~b1 & b2
        a1 = b1 ^ ~b2 & b3
        a2 = b2 ^ ~b3 & b4
        a3 = b3 ^ ~b4 & b0
        a4 = b4 ^ ~b0 & b1
        a5 = b5 ^ ~b6 & b7
        a6 = b6 ^ ~b7 & b8
        a7 = b7 ^ ~b8 & b9
        a8 = b8 ^ ~b9 & b5
        a9 = b9 ^ ~b5 & b6
        a10 = b10 ^ ~b11 & b12
        a11 = b11 ^ ~b12 & b13
        a12 = b12 ^ ~b13 & b14
        a13 = b13 ^ ~b14 & b10
        a14 = b14 ^ ~b10 & b11
        a15 = b15 ^ ~b16 & b17
        a16 = b16 ^ ~b17 & b18
        a17 = b17 ^ ~b18 & b19
        a18 = b18 ^ ~b19 & b15
        a19 = b19 ^ ~b15 & b16
        a20 = b20 ^ ~b21 & b22
        a21 = b21 ^ ~b22 & b23
        a22 = b22 ^ ~b23 & b24
        a23 = b23 ^ ~b24 & b20
        a24 = b24 ^ ~b20 & b21
        a0 ^= round_constant
    return [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
            a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24]


def _absorb(state: list[int], data: bytes | bytearray, offset: int) -> list[int]:
    """XOR the rate block at ``data[offset:]`` into ``state`` and permute."""
    lanes = _BLOCK_LANES.unpack_from(data, offset)
    return _keccak_f1600([lane ^ word for lane, word in zip(state, lanes)] + state[17:])


class Keccak256:
    """Incremental Keccak-256 hasher mirroring the ``hashlib`` interface."""

    digest_size = DIGEST_SIZE
    block_size = RATE_BYTES
    name = "keccak256"

    def __init__(self, data: bytes = b"") -> None:
        self._state = [0] * 25
        self._buffer = b""
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Keccak256":
        """Absorb ``data`` into the sponge, returning ``self`` for chaining."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"expected bytes-like input, got {type(data).__name__}")
        pending = self._buffer + bytes(data)
        whole = len(pending) - len(pending) % RATE_BYTES
        for offset in range(0, whole, RATE_BYTES):
            self._state = _absorb(self._state, pending, offset)
        self._buffer = pending[whole:]
        return self

    def digest(self) -> bytes:
        """Return the 32-byte digest without mutating the hasher."""
        padded = bytearray(self._buffer)
        padded.append(0x01)  # Keccak (pre-SHA3) domain padding.
        padded.extend(bytes(RATE_BYTES - len(padded)))
        padded[-1] |= 0x80
        return struct.pack("<4Q", *_absorb(self._state, padded, 0)[:4])

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "Keccak256":
        """Return an independent copy of the hasher state."""
        clone = Keccak256()
        clone._state = list(self._state)
        clone._buffer = self._buffer
        return clone


def keccak256(data: bytes) -> bytes:
    """Hash ``data`` with Keccak-256 and return the 32-byte digest."""
    return Keccak256(data).digest()


def keccak256_hex(data: bytes) -> str:
    """Hash ``data`` with Keccak-256 and return the hex digest."""
    return Keccak256(data).hexdigest()
