"""Cryptographic primitives used across the Blockumulus stack.

This package implements, from scratch, everything the protocol needs:

* :mod:`repro.crypto.keccak` — Keccak-256 (Ethereum's hash).
* :mod:`repro.crypto.secp256k1` — elliptic-curve group arithmetic.
* :mod:`repro.crypto.ecdsa` — deterministic (RFC 6979) ECDSA with recovery.
* :mod:`repro.crypto.keys` — key pairs and 160-bit Ethereum-style addresses.
* :mod:`repro.crypto.merkle` — Merkle trees for snapshot fingerprints.
* :mod:`repro.crypto.fingerprint` — canonical state fingerprinting.
"""

from .ecdsa import Signature, SignatureError, recover_public_key, sign_message, verify_message
from .hashing import combine_hashes, fast_hash
from .fingerprint import (
    canonical_bytes,
    fingerprint_state,
    fingerprint_state_hex,
    snapshot_fingerprint,
    snapshot_fingerprint_hex,
)
from .keccak import Keccak256, keccak256, keccak256_hex
from .keys import Address, AddressError, PrivateKey, PublicKey, recover_address
from .merkle import EMPTY_ROOT, MerkleProof, MerkleTree, merkle_root

__all__ = [
    "Address",
    "AddressError",
    "EMPTY_ROOT",
    "Keccak256",
    "MerkleProof",
    "MerkleTree",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "SignatureError",
    "canonical_bytes",
    "combine_hashes",
    "fast_hash",
    "fingerprint_state",
    "fingerprint_state_hex",
    "keccak256",
    "keccak256_hex",
    "merkle_root",
    "recover_address",
    "recover_public_key",
    "sign_message",
    "snapshot_fingerprint",
    "snapshot_fingerprint_hex",
    "verify_message",
]
