import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismsim import merkle
from prismsim.crypto import sha256
from prismsim.merkle import MerkleProof, MerkleTree, merkle_prove, merkle_root, merkle_verify


def reference_root(leaves):
    """Independent recursive pairing implementation, written before the
    iterative one; duplicates the last node on odd layers."""
    nodes = [hashlib.sha256(leaf).digest() for leaf in leaves]

    def reduce(level):
        if len(level) == 1:
            return level[0]
        if len(level) % 2:
            level = level + [level[-1]]
        return reduce(
            [hashlib.sha256(level[i] + level[i + 1]).digest() for i in range(0, len(level), 2)]
        )

    return reduce(nodes)


def test_single_leaf_roots_to_leaf_hash():
    assert merkle_root([b"x"]) == sha256(b"x")


def test_two_leaf_construction():
    a, b = b"a", b"b"
    assert merkle_root([a, b]) == sha256(sha256(a) + sha256(b))


def test_matches_reference_on_four_leaves():
    leaves = [b"a", b"b", b"c", b"d"]
    assert merkle_root(leaves) == reference_root(leaves)


@given(st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_matches_reference_and_round_trips(leaves):
    root = merkle_root(leaves)
    assert root == reference_root(leaves)
    for i in range(len(leaves)):
        proof = merkle_prove(leaves, i)
        assert merkle_verify(root, leaves[i], proof)


def test_round_trip_all_indices_eight_leaves():
    leaves = [bytes([i]) * 8 for i in range(8)]
    root = merkle_root(leaves)
    for i in range(8):
        assert merkle_verify(root, leaves[i], merkle_prove(leaves, i))


def test_bit_flip_fails_verification():
    leaves = [bytes([i]) * 16 for i in range(8)]
    root = merkle_root(leaves)
    proof = merkle_prove(leaves, 3)
    tampered = bytes([leaves[3][0] ^ 1]) + leaves[3][1:]
    assert not merkle_verify(root, tampered, proof)


def test_perturbed_index_and_sibling_fail():
    leaves = [bytes([i]) * 16 for i in range(8)]
    root = merkle_root(leaves)
    proof = merkle_prove(leaves, 3)
    wrong_index = MerkleProof(leaf_index=4, siblings=proof.siblings)
    assert not merkle_verify(root, leaves[3], wrong_index)
    flipped = list(proof.siblings)
    flipped[0] = bytes([flipped[0][0] ^ 1]) + flipped[0][1:]
    assert not merkle_verify(root, leaves[3], MerkleProof(3, tuple(flipped)))


def test_out_of_tree_index_rejected():
    leaves = [bytes([i]) for i in range(5)]
    root = merkle_root(leaves)
    proof = merkle_prove(leaves, 2)
    shifted = MerkleProof(leaf_index=2 + 8, siblings=proof.siblings)
    assert not merkle_verify(root, leaves[2], shifted)


def test_proof_length_for_1002_leaves_is_10():
    # m + 2 committed slots with m = 1000
    leaves = [i.to_bytes(4, "little") for i in range(1002)]
    proof = merkle_prove(leaves, 577)
    assert len(proof.siblings) == 10
    assert merkle_verify(merkle_root(leaves), leaves[577], proof)


def test_empty_leaf_list_is_an_error():
    with pytest.raises(ValueError):
        merkle_root([])
    with pytest.raises(ValueError):
        MerkleTree([])
    with pytest.raises(IndexError):
        merkle_prove([b"a"], 1)


@st.composite
def edit_sequences(draw):
    """A start size and rounds of edits: leaf rewrites, sometimes a resize."""
    size = draw(st.sampled_from([1, 2, 3, 5, 7, 9, 102, 1002]) | st.integers(1, 40))
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 9)) == 0:
            size = draw(st.integers(1, 40))  # a new leaf count rebuilds the tree
        edits = draw(
            st.lists(st.tuples(st.integers(0, size - 1), st.binary(max_size=6)), max_size=6)
        )
        rounds.append((size, edits))
    return rounds


@settings(max_examples=60, deadline=None)
@given(edit_sequences())
def test_incremental_tree_equals_full_rebuild(rounds):
    tree = None
    leaves: list[bytes] = []
    for size, edits in rounds:
        # leaves keep their bytes across a resize where they still fit
        leaves = (leaves + [b"leaf%d" % i for i in range(len(leaves), size)])[:size]
        for index, value in edits:
            leaves[index] = value
        if tree is None or len(tree.leaves) != size:
            tree = MerkleTree(leaves)  # a new leaf count takes a new tree
        else:
            for index, value in edits:
                tree.leaves[index] = value
            tree.update({index for index, _ in edits})
        root = tree.root
        assert tree.leaves == leaves
        assert root == merkle_root(leaves) == reference_root(leaves)
        for i, leaf in enumerate(leaves):
            assert merkle_verify(root, leaf, tree.prove(i))


def test_update_rehashes_only_changed_paths(monkeypatch):
    tree = MerkleTree([i.to_bytes(4, "little") for i in range(1002)])
    hashed = []
    monkeypatch.setattr(merkle, "sha256", lambda data: hashed.append(data) or sha256(data))
    assert tree.update([]) == tree.root
    assert hashed == []  # nothing rewritten: nothing to rehash
    tree.leaves[1001] = b"changed"  # last leaf: its odd-level duplicates pair with themselves
    tree.update([1001])
    assert len(hashed) == 1 + 10  # the leaf and one node per level above it
    assert tree.root == reference_root(tree.leaves)


def test_build_and_update_hash_each_distinct_input_once(monkeypatch):
    """Equal leaves, and the equal pairs above them, are hashed once per
    build; ``update`` hashes each distinct rewritten leaf once."""
    leaves = [b"same"] * 1000 + [b"a", b"b"]
    hashed = []
    monkeypatch.setattr(merkle, "sha256", lambda data: hashed.append(data) or sha256(data))
    tree = MerkleTree(leaves)
    assert len(hashed) == len(set(hashed)) < 40
    assert tree.root == reference_root(leaves)
    hashed.clear()
    for i in range(0, 1000, 2):
        tree.leaves[i] = b"other"
    tree.update(range(0, 1000, 2))
    assert hashed.count(b"other") == 1
    assert tree.root == reference_root(tree.leaves)


def test_a_copy_updates_apart_from_its_original():
    leaves = [bytes([i]) * 4 for i in range(9)]
    tree = MerkleTree(leaves)
    levels = [list(level) for level in tree.levels]
    copy = tree.copy()
    copy.leaves[4] = b"changed"
    copy.update([4])
    assert tree.levels == levels and tree.leaves == leaves
    assert copy.root == reference_root(copy.leaves) != tree.root
