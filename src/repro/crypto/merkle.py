"""Merkle trees with a pluggable hash function.

Blockumulus combines the per-bContract data fingerprints into a single
*data snapshot fingerprint* (Section III-A2).  The paper does not prescribe
the combiner; we use a Merkle tree so that auditors can verify the inclusion
of an individual contract fingerprint in an anchored snapshot without
downloading every contract's data, and so that contract exclusion (a
mismatching fingerprint dropped from the snapshot) changes the root in a
well-defined way.

The hash function defaults to Keccak-256 (used for Ethereum block
transaction roots); the snapshot layer passes BLAKE2b-256 for speed (see
:mod:`repro.crypto.hashing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .keccak import keccak256

HashFunction = Callable[[bytes], bytes]

#: Domain-separation prefixes so leaves can never be confused with nodes.
_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
_EMPTY_MARKER = b"blockumulus-empty-snapshot"

#: Root of the empty tree under the default (Keccak-256) hash.
EMPTY_ROOT = keccak256(_LEAF_PREFIX + _EMPTY_MARKER)


def hash_leaf(data: bytes, hash_function: HashFunction = keccak256) -> bytes:
    """Hash a leaf value with domain separation."""
    return hash_function(_LEAF_PREFIX + data)


def hash_node(left: bytes, right: bytes, hash_function: HashFunction = keccak256) -> bytes:
    """Hash an interior node with domain separation."""
    return hash_function(_NODE_PREFIX + left + right)


def empty_root(hash_function: HashFunction = keccak256) -> bytes:
    """Root of the empty tree under ``hash_function``."""
    return hash_function(_LEAF_PREFIX + _EMPTY_MARKER)


@dataclass(frozen=True)
class ProofStep:
    """One step of a Merkle inclusion proof."""

    sibling: bytes
    is_left: bool  # True when the sibling sits to the left of the path node.


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof for a single leaf."""

    leaf_index: int
    steps: tuple[ProofStep, ...]

    def verify(
        self, leaf_data: bytes, root: bytes, hash_function: HashFunction = keccak256
    ) -> bool:
        """Check that ``leaf_data`` is included under ``root``."""
        current = hash_leaf(leaf_data, hash_function)
        for step in self.steps:
            if step.is_left:
                current = hash_node(step.sibling, current, hash_function)
            else:
                current = hash_node(current, step.sibling, hash_function)
        return current == root


class MerkleTree:
    """A static Merkle tree built from an ordered list of byte leaves.

    Odd nodes at any level are promoted unchanged (no duplication), which
    keeps proofs unambiguous for any leaf count.
    """

    def __init__(
        self,
        leaves: list[bytes] | tuple[bytes, ...] = (),
        hash_function: HashFunction = keccak256,
    ) -> None:
        self._hash = hash_function
        self._leaves = [bytes(leaf) for leaf in leaves]
        self._levels = self._build_levels(self._leaves)

    def _build_levels(self, leaves: list[bytes]) -> list[list[bytes]]:
        if not leaves:
            return [[empty_root(self._hash)]]
        level = [hash_leaf(leaf, self._hash) for leaf in leaves]
        levels = [level]
        while len(level) > 1:
            next_level = []
            for index in range(0, len(level), 2):
                if index + 1 < len(level):
                    next_level.append(hash_node(level[index], level[index + 1], self._hash))
                else:
                    next_level.append(level[index])
            level = next_level
            levels.append(level)
        return levels

    @property
    def leaves(self) -> list[bytes]:
        """The raw leaf values in insertion order."""
        return list(self._leaves)

    @property
    def root(self) -> bytes:
        """The 32-byte Merkle root (empty-tree root for no leaves)."""
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self._leaves)

    def proof(self, leaf_index: int) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``leaf_index``."""
        if not self._leaves:
            raise IndexError("cannot prove inclusion in an empty tree")
        if not (0 <= leaf_index < len(self._leaves)):
            raise IndexError(f"leaf index {leaf_index} out of range")
        steps: list[ProofStep] = []
        index = leaf_index
        for level in self._levels[:-1]:
            sibling_index = index ^ 1
            if sibling_index < len(level):
                steps.append(
                    ProofStep(sibling=level[sibling_index], is_left=bool(sibling_index < index))
                )
            index //= 2
        return MerkleProof(leaf_index=leaf_index, steps=tuple(steps))

    def verify(self, leaf_index: int, leaf_data: bytes) -> bool:
        """Convenience: build and check a proof against this tree's root."""
        return self.proof(leaf_index).verify(leaf_data, self.root, self._hash)


def merkle_root(
    leaves: list[bytes] | tuple[bytes, ...], hash_function: HashFunction = keccak256
) -> bytes:
    """Convenience helper returning just the root of ``leaves``."""
    return MerkleTree(leaves, hash_function=hash_function).root
