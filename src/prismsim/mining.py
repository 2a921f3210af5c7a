"""Superblock assembly and simulated proof-of-work.

Mining completion times are exponential draws at the node's share of the
total rate, one draw per completion.  The superblock over all ``m + 2``
sub-blocks is assembled from the miner's state at completion, which by
memorylessness has the law of mining a superblock kept current
throughout.  It is then pruned to the sub-block the sortition draw
selected.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .blocks import (
    PROPOSER,
    Block,
    Content,
    Header,
    ProposerContent,
    SortitionParams,
    TransactionContent,
    VoterContent,
    serialize_content,
    sortition,
)
from .chain import ChainState
from .ledger import Transaction
from .merkle import MerkleTree
from .serialize import u32, u64


@dataclass
class MinerContext:
    """Materialized superblock inputs for one mining completion.

    An honest snapshot names its ``source`` state and that state's
    ``slot_epoch``, so a miner's kept superblock revisits only the voter
    slots the state reports changed since its last block.  A strategy
    changes a voter slot through ``replace_parent`` and ``replace_votes``,
    which name the slot for the miner; it never assigns into ``vt_parent``
    or ``votes`` directly, and never edits a vote list in place.  A
    context without a source is assembled afresh.
    """

    miner_id: int
    prp_parent: bytes
    prp_parent_level: int
    vt_parent: list[bytes]
    txs: list[Transaction]
    unref_prp_refs: tuple[bytes, ...]
    unref_tx_refs: tuple[bytes, ...]
    # per chain: (level, proposer digest)
    votes: list[list[tuple[int, bytes]]]
    source: ChainState | None = None
    epoch: int = 0
    replaced: set[int] = field(default_factory=set)  # voter slots a strategy replaced

    def replace_parent(self, chain: int, parent: bytes) -> None:
        self.vt_parent[chain] = parent
        self.replaced.add(chain)

    def replace_votes(self, chain: int, votes: list[tuple[int, bytes]]) -> None:
        self.votes[chain] = votes
        self.replaced.add(chain)


def honest_context(state: ChainState, miner_id: int, now: float, tx_capacity: int) -> MinerContext:
    """Snapshot a node's state the way an honest miner assembles it.

    Voter content carries one vote per unvoted level of that chain, in
    level order; proposer content references both unreferenced pools in
    arrival order; transaction content is a FIFO snapshot of released
    mempool entries.
    """
    # the mining target itself is the one ancestor the pool can still hold;
    # reference lists must not name the block's own ancestors
    prp_refs = tuple(d for d in state.unref_prp_pool if d != state.prp_parent)
    return MinerContext(
        miner_id=miner_id,
        prp_parent=state.prp_parent,
        prp_parent_level=state.prp_parent_level,
        vt_parent=list(state.voter_tips),
        txs=state.eligible_transactions(now, tx_capacity),
        unref_prp_refs=prp_refs,
        unref_tx_refs=tuple(state.unref_tx_pool),
        votes=list(state.vote_lists),
        source=state,
        epoch=state.slot_epoch,
    )


def schedule_mining(
    hash_power: float, total_rate: float, now: float, rng: np.random.Generator
) -> float | None:
    """Time of the next mining completion, or None for a powerless miner."""
    if total_rate <= 0:
        raise ValueError("total mining rate must be > 0")
    rate = total_rate * hash_power
    if rate <= 0:
        return None
    return now + rng.exponential(1.0 / rate)


class LastSuperblock:
    """One miner's last superblock: its (parents, contents) Merkle trees
    (None before its first block), the vote list object behind each voter
    content leaf, and where its context came from.

    The next context from the same source state rewrites only the voter
    slots that state reports changed since, and the slots either context
    replaced.  Each tree then rehashes only the leaves whose bytes moved.
    """

    def __init__(self) -> None:
        self.parents: MerkleTree | None = None
        self.contents: MerkleTree | None = None
        self.votes: list[list[tuple[int, bytes]] | None] = []
        self.source: ChainState | None = None
        self.epoch = 0
        self.replaced: set[int] = set()


def _content(ctx: MinerContext, index: int) -> Content:
    """The sub-block content at ``index`` of the committed layout."""
    m = len(ctx.votes)
    if index < m:
        return VoterContent(tuple(ctx.votes[index]))
    if index == m:
        return TransactionContent(tuple(ctx.txs))
    return ProposerContent(ctx.unref_prp_refs, ctx.unref_tx_refs)


def assemble_superblock(
    ctx: MinerContext, last: LastSuperblock | None = None
) -> tuple[list[bytes], list[bytes], bytes, bytes]:
    """Parent and content leaf lists in the committed index layout, with
    their roots.

    Index layout: voter chains at 0..m-1, transaction at m, proposer at
    m+1.  The transaction slot's parent is the proposer parent.  ``last``
    is the miner's previous superblock, which then holds this one; the
    leaf lists returned are its trees' own, valid until its next
    assembly.  A context from another source state, or of another width,
    is written over an empty superblock, as it is without ``last``.
    """
    last = last or LastSuperblock()
    m = len(ctx.votes)
    if ctx.source is not None and ctx.source is last.source and len(last.votes) == m:
        slots = set(ctx.source.slots_changed_since(min(ctx.epoch, last.epoch)))
        slots.update(ctx.replaced, last.replaced)
        dirty_parents, dirty_contents = _write_slots(
            ctx, slots, last.parents.leaves, last.contents.leaves, last.votes
        )
        last.parents.update(dirty_parents)
        last.contents.update(dirty_contents)
    else:
        parents, contents = [b""] * (m + 2), [b""] * (m + 2)
        last.votes = [None] * m
        _write_slots(ctx, range(m), parents, contents, last.votes)
        last.parents, last.contents = MerkleTree(parents), MerkleTree(contents)
    last.source = ctx.source
    last.epoch = ctx.epoch
    last.replaced = set(ctx.replaced)
    return last.parents.leaves, last.contents.leaves, last.parents.root, last.contents.root


def _write_slots(
    ctx: MinerContext,
    slots: Iterable[int],
    parents: list[bytes],
    contents: list[bytes],
    kept_lists: list[list[tuple[int, bytes]] | None],
) -> tuple[list[int], list[int]]:
    """Write ``ctx`` into the leaf lists over the voter ``slots`` and the
    transaction and proposer slots, and return the indexes whose bytes
    changed in each list.

    ``kept_lists`` holds the vote list behind each voter content leaf
    (None where there is none yet).  A vote list one vote longer than the
    one it follows extends that leaf's bytes instead of serializing the
    list again.
    """
    dirty_parents = []
    dirty_contents = []
    vt_parent, vote_lists = ctx.vt_parent, ctx.votes
    for i in slots:
        if vt_parent[i] != parents[i]:
            parents[i] = vt_parent[i]
            dirty_parents.append(i)
        votes = vote_lists[i]
        old = kept_lists[i]
        if votes is old:
            continue
        kept_lists[i] = votes
        if old is not None and len(votes) == len(old) + 1 and votes[:-1] == old:
            level, digest = votes[-1]
            leaf = u32(len(votes)) + contents[i][4:] + u64(level) + digest
        else:
            leaf = serialize_content(_content(ctx, i))
        if leaf != contents[i]:
            contents[i] = leaf
            dirty_contents.append(i)
    m = len(vote_lists)
    for i in (m, m + 1):
        if ctx.prp_parent != parents[i]:
            parents[i] = ctx.prp_parent
            dirty_parents.append(i)
        leaf = serialize_content(_content(ctx, i))
        if leaf != contents[i]:
            contents[i] = leaf
            dirty_contents.append(i)
    return dirty_parents, dirty_contents


def finish_mining(
    ctx: MinerContext,
    params: SortitionParams,
    u: float,
    nonce: int,
    last: LastSuperblock | None = None,
) -> Block:
    """Sortition the finished superblock and prune to the winning sub-block.

    ``last`` is the miner's previous superblock, updated in place so that
    only the sub-blocks changed since its last block are serialized and
    rehashed; a caller that mines once may omit it.
    """
    last = last or LastSuperblock()
    parents, _, parent_root, content_root = assemble_superblock(ctx, last)
    block_type = sortition(u, params)
    index = block_type.leaf_index(params.m)
    return Block(
        header=Header(parent_root, content_root, nonce),
        block_type=block_type,
        parent_leaf=parents[index],
        content=_content(ctx, index),
        parent_proof=last.parents.prove(index),
        content_proof=last.contents.prove(index),
        miner_id=ctx.miner_id,
        level=ctx.prp_parent_level + 1 if block_type.kind == PROPOSER else 0,
    )
