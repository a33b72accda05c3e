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
absorbed 17 lanes at a time: ~0.12 ms per permutation, 0.36 ms for a
400-byte message, 2.9x faster than the specification's loops over lane
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

    The round is unrolled over 25 locals, which is what makes it ~2.9x faster
    than looping over lane tables: theta's column parities ``c`` and deltas
    ``d``; rho and pi fused, lane ``(x, y)`` rotated by its offset into lane
    ``(y, 2x + 3y)`` of ``b``; chi row by row; iota.  The lane indices and
    shift counts below are those maps written out; ``tests/crypto`` checks the
    result against the table-driven form.

    Two rewrites keep every lane a non-negative 64-bit integer at fewer
    operations per round:

    * A rotation left by ``n`` is ``t * (2**64 + 1) >> (64 - n) & M``: the
      product holds ``t`` twice side by side, and the shift and the mask cut
      the rotated lane out of it.
    * Lanes 1, 2, 8, 12, 17 and 20 are held complemented between rounds
      (the lane-complementing transform of the Keccak team's *implementation
      overview*, section 2.2), which turns chi's ``~b & c`` into ``b | c``
      (or keeps it as ``b & c``) on all but five of the 25 lanes of a round:
      five ``^ M`` a round where chi had 25 ``~``.  The mask passes through
      theta, rho and pi as a fixed pattern and chi restores it, so the lanes
      are complemented once on entry and once on exit.
    """
    M = (1 << 64) - 1
    K = (1 << 64) + 1
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = state
    a1 ^= M
    a2 ^= M
    a8 ^= M
    a12 ^= M
    a17 ^= M
    a20 ^= M
    for round_constant in _ROUND_CONSTANTS:
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ c1 * K >> 63 & M
        d1 = c0 ^ c2 * K >> 63 & M
        d2 = c1 ^ c3 * K >> 63 & M
        d3 = c2 ^ c4 * K >> 63 & M
        d4 = c3 ^ c0 * K >> 63 & M
        b0 = a0 ^ d0
        b16 = (a5 ^ d0) * K >> 28 & M
        b7 = (a10 ^ d0) * K >> 61 & M
        b23 = (a15 ^ d0) * K >> 23 & M
        b14 = (a20 ^ d0) * K >> 46 & M
        b10 = (a1 ^ d1) * K >> 63 & M
        b1 = (a6 ^ d1) * K >> 20 & M
        b17 = (a11 ^ d1) * K >> 54 & M
        b8 = (a16 ^ d1) * K >> 19 & M
        b24 = (a21 ^ d1) * K >> 62 & M
        b20 = (a2 ^ d2) * K >> 2 & M
        b11 = (a7 ^ d2) * K >> 58 & M
        b2 = (a12 ^ d2) * K >> 21 & M
        b18 = (a17 ^ d2) * K >> 49 & M
        b9 = (a22 ^ d2) * K >> 3 & M
        b5 = (a3 ^ d3) * K >> 36 & M
        b21 = (a8 ^ d3) * K >> 9 & M
        b12 = (a13 ^ d3) * K >> 39 & M
        b3 = (a18 ^ d3) * K >> 43 & M
        b19 = (a23 ^ d3) * K >> 8 & M
        b15 = (a4 ^ d4) * K >> 37 & M
        b6 = (a9 ^ d4) * K >> 44 & M
        b22 = (a14 ^ d4) * K >> 25 & M
        b13 = (a19 ^ d4) * K >> 56 & M
        b4 = (a24 ^ d4) * K >> 50 & M
        a0 = b0 ^ (b1 | b2) ^ round_constant
        a1 = b1 ^ (b2 ^ M | b3)
        a2 = b2 ^ b3 & b4
        a3 = b3 ^ (b4 | b0)
        a4 = b4 ^ b0 & b1
        a5 = b5 ^ (b6 | b7)
        a6 = b6 ^ b7 & b8
        a7 = b7 ^ (b8 | b9 ^ M)
        a8 = b8 ^ (b9 | b5)
        a9 = b9 ^ b5 & b6
        t = b13 ^ M
        a10 = b10 ^ (b11 | b12)
        a11 = b11 ^ b12 & b13
        a12 = b12 ^ t & b14
        a13 = t ^ (b14 | b10)
        a14 = b14 ^ b10 & b11
        t = b18 ^ M
        a15 = b15 ^ b16 & b17
        a16 = b16 ^ (b17 | b18)
        a17 = b17 ^ (t | b19)
        a18 = t ^ b19 & b15
        a19 = b19 ^ (b15 | b16)
        t = b21 ^ M
        a20 = b20 ^ t & b22
        a21 = t ^ (b22 | b23)
        a22 = b22 ^ b23 & b24
        a23 = b23 ^ (b24 | b20)
        a24 = b24 ^ b20 & b21
    return [a0, a1 ^ M, a2 ^ M, a3, a4, a5, a6, a7, a8 ^ M, a9, a10, a11, a12 ^ M,
            a13, a14, a15, a16, a17 ^ M, a18, a19, a20 ^ M, a21, a22, a23, a24]


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
