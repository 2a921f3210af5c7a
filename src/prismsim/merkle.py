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
        hashes = list(map(sha256, self.leaves))
        self.levels = [hashes]  # leaf hashes first, root last
        while len(hashes) > 1:
            hashes = _pair_up(hashes)
            self.levels.append(hashes)

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def update(self, dirty: Collection[int]) -> bytes:
        """Rehash the leaves at the distinct indexes ``dirty``, rewritten
        in ``leaves`` since the last commit, and return the new root."""
        leaves, hashes = self.leaves, self.levels[0]
        for i in dirty:
            hashes[i] = sha256(leaves[i])
        for below, level in zip(self.levels, self.levels[1:]):
            dirty = {i // 2 for i in dirty}
            if not dirty:
                break
            if len(dirty) == len(level):
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


def _pair_up(below: list[bytes]) -> list[bytes]:
    """The whole level above ``below``."""
    above = [sha256(left + right) for left, right in zip(below[::2], below[1::2])]
    if len(below) % 2:
        above.append(sha256(below[-1] + below[-1]))
    return above


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
