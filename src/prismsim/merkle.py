"""Merkle commitments used by block headers and sortition proofs.

Leaves are arbitrary byte strings; each is hashed before pairing.  Levels
with an odd node count duplicate their final node (Bitcoin convention), so
a proof for any of ``n`` leaves carries exactly ``ceil(log2(n))`` siblings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .crypto import sha256


@dataclass(frozen=True)
class MerkleProof:
    leaf_index: int
    siblings: tuple[bytes, ...]


class MerkleTree:
    """Every level of one Merkle tree, from the leaf hashes to the root.

    The tree is built once over its leaves and keeps their count.  A
    caller that rewrites some of ``leaves`` in place then names them to
    ``update``, which rehashes those leaves and the nodes on their paths.
    The root and all proofs are read from the stored levels.  A level of
    odd width keeps no copy of its last node: its parent pairs that node
    with itself.
    """

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise ValueError("merkle tree requires at least one leaf")
        self.leaves = list(leaves)
        hashes = _hash_each(self.leaves)
        self.levels = [hashes]  # leaf hashes first, root last
        while len(hashes) > 1:
            hashes = _pair_up(hashes)
            self.levels.append(hashes)

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def copy(self) -> MerkleTree:
        """The same tree over new leaf and level lists.  The hashes are
        immutable and shared; updating either tree leaves the other as
        it is."""
        tree = MerkleTree.__new__(MerkleTree)
        tree.leaves = list(self.leaves)
        tree.levels = [list(level) for level in self.levels]
        return tree

    def update(self, dirty: Collection[int]) -> bytes:
        """Rehash the leaves at the distinct indexes ``dirty``, rewritten
        in ``leaves`` since the last commit, and return the new root.

        Each distinct dirty leaf is hashed once, and a level of two or
        more nodes, all dirty, is rebuilt by ``_pair_up``.  A level with
        some nodes dirty hashes each of them: its pairs rarely repeat,
        and a memo there cost more than it saved."""
        leaves, hashes = self.leaves, self.levels[0]
        hashed: dict[bytes, bytes] = {}  # leaf bytes -> hash, for this call
        for i in dirty:
            leaf = leaves[i]
            digest = hashed.get(leaf)
            if digest is None:
                digest = hashed[leaf] = sha256(leaf)
            hashes[i] = digest
        for below, level in zip(self.levels, self.levels[1:]):
            dirty = {i // 2 for i in dirty}
            if not dirty:
                break
            if len(dirty) == len(level) > 1:
                level[:] = _pair_up(below)
                continue
            last = len(below) - 1
            for j in dirty:
                k = 2 * j
                level[j] = sha256(below[k] + below[k + 1 if k < last else k])
        return self.root

    def prove(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self.leaves):
            raise IndexError(f"leaf index {index} out of range for {len(self.leaves)} leaves")
        siblings = []
        pos = index
        for level in self.levels[:-1]:
            siblings.append(level[min(pos ^ 1, len(level) - 1)])
            pos //= 2
        return MerkleProof(leaf_index=index, siblings=tuple(siblings))


def _hash_each(inputs: list[bytes]) -> list[bytes]:
    """The hash of each input, hashing each distinct input once.

    Superblock leaves repeat: voter slots that owe the same votes hold
    equal bytes, and equal nodes pair into equal parents.  The memo
    lives for one call.
    """
    digests = dict.fromkeys(inputs)
    if len(digests) == len(inputs):
        return list(map(sha256, inputs))
    for data in digests:
        digests[data] = sha256(data)
    return list(map(digests.__getitem__, inputs))


def _pair_up(below: list[bytes]) -> list[bytes]:
    """The whole level above ``below``."""
    pairs = [left + right for left, right in zip(below[::2], below[1::2])]
    if len(below) % 2:
        pairs.append(below[-1] + below[-1])
    return _hash_each(pairs)


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    return MerkleTree(leaves).root


def merkle_prove(leaves: Sequence[bytes], index: int) -> MerkleProof:
    return MerkleTree(leaves).prove(index)


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    node = sha256(leaf)
    pos = proof.leaf_index
    if pos < 0:
        return False
    for sibling in proof.siblings:
        if pos % 2 == 0:
            node = sha256(node + sibling)
        else:
            node = sha256(sibling + node)
        pos //= 2
    # A valid proof must consume the index: leftover high bits mean the
    # claimed index lies outside the tree the proof describes.
    if pos != 0:
        return False
    return node == root
