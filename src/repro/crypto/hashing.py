"""Fast hashing for protocol-internal identifiers and fingerprints.

Two hash functions are used in the reproduction:

* **Keccak-256** (:mod:`repro.crypto.keccak`) wherever Ethereum
  compatibility matters: account addresses, transaction and block hashes,
  and the values anchored in the :class:`SnapshotRegistry` contract.
* **BLAKE2b-256** (``hashlib``, this module) for high-volume internal
  hashing: bContract state fingerprints, message ids, and the simulated
  signature scheme.  The paper leaves the fingerprinting hash ``H`` as a
  deployment invariant rather than mandating Keccak, and the pure-Python
  Keccak costs ~0.12 ms per 136-byte block (0.36 ms for 400 bytes) against
  ~0.7 us for the C BLAKE2b over the same 400 bytes (~500x), which would
  make the 20,000-transaction stress benchmarks wall-clock-bound on hashing
  rather than on the protocol being measured.
"""

from __future__ import annotations

import hashlib

#: Digest size used throughout (bytes).
DIGEST_SIZE = 32


def fast_hash(data: bytes) -> bytes:
    """BLAKE2b-256 digest of ``data``."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


def combine_hashes(*digests: bytes) -> bytes:
    """Hash a concatenation of digests (order-sensitive combiner)."""
    hasher = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for digest in digests:
        hasher.update(digest)
    return hasher.digest()
