"""Merkle trees and inclusion proofs."""

import pytest

from repro.crypto.hashing import fast_hash
from repro.crypto.keccak import keccak256
from repro.crypto.merkle import MerkleTree, empty_root, merkle_root


def leaves(count):
    return [f"leaf-{index}".encode() for index in range(count)]


def test_empty_tree_has_defined_root():
    assert MerkleTree([]).root == empty_root(keccak256)


def test_single_leaf_root_is_leaf_hash():
    tree = MerkleTree([b"only"])
    assert len(tree) == 1
    assert tree.root == keccak256(b"\x00" + b"only")


def test_root_changes_with_any_leaf():
    base = merkle_root(leaves(8))
    for index in range(8):
        mutated = leaves(8)
        mutated[index] = b"mutated"
        assert merkle_root(mutated) != base


def test_root_depends_on_order():
    items = leaves(4)
    assert merkle_root(items) != merkle_root(list(reversed(items)))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 8, 9, 16, 33])
def test_proofs_verify_for_every_leaf(count):
    items = leaves(count)
    tree = MerkleTree(items)
    for index, item in enumerate(items):
        assert tree.proof(index).verify(item, tree.root)
        assert tree.verify(index, item)


def test_proof_fails_for_wrong_leaf():
    items = leaves(6)
    tree = MerkleTree(items)
    proof = tree.proof(2)
    assert not proof.verify(b"not-the-leaf", tree.root)


def test_proof_fails_against_wrong_root():
    items = leaves(6)
    tree = MerkleTree(items)
    other = MerkleTree(leaves(7))
    assert not tree.proof(1).verify(items[1], other.root)


def test_proof_out_of_range():
    tree = MerkleTree(leaves(3))
    with pytest.raises(IndexError):
        tree.proof(3)
    with pytest.raises(IndexError):
        MerkleTree([]).proof(0)


def test_alternative_hash_function():
    items = leaves(5)
    fast_tree = MerkleTree(items, hash_function=fast_hash)
    keccak_tree = MerkleTree(items)
    assert fast_tree.root != keccak_tree.root
    for index, item in enumerate(items):
        assert fast_tree.proof(index).verify(item, fast_tree.root, fast_hash)
