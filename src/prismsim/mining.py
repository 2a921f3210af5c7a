"""Superblock assembly and simulated proof-of-work.

A miner keeps parents and contents for all ``m + 2`` sub-blocks current;
mining completion times are exponential draws at the node's share of the
total rate, re-drawn whenever the superblock changes (memorylessness
makes the restart statistically free).  On completion the superblock is
pruned to the sub-block the sortition draw selected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    PROPOSER,
    TRANSACTION,
    Block,
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


@dataclass
class MinerContext:
    """Materialized superblock inputs for one mining completion."""

    miner_id: int
    hash_power: float
    prp_parent: bytes
    prp_parent_level: int
    vt_parent: list[bytes]
    txs: list[Transaction]
    unref_prp_refs: tuple[bytes, ...]
    unref_tx_refs: tuple[bytes, ...]
    # per chain: (level, proposer digest); replace a chain's list to change
    # it, never edit one in place, since the miner reuses the leaf bytes of
    # a list object it has serialized before
    votes: list[list[tuple[int, bytes]]]


def honest_context(
    state: ChainState, miner_id: int, hash_power: float, now: float, tx_capacity: int
) -> MinerContext:
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
        hash_power=hash_power,
        prp_parent=state.prp_parent,
        prp_parent_level=state.prp_parent_level,
        vt_parent=[t.tip for t in state.voter_trees],
        txs=state.eligible_transactions(now, tx_capacity),
        unref_prp_refs=prp_refs,
        unref_tx_refs=tuple(state.unref_tx_pool),
        votes=list(state.honest_votes()),
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
    and its voter vote lists with their content leaves.

    A vote list that is the same object as last time (vote lists are
    rebuilt, never edited) keeps its leaf bytes, so only the chains whose
    list changed are serialized again; the trees then rehash only the
    leaves whose bytes differ.
    """

    def __init__(self) -> None:
        self.parents = MerkleTree()
        self.contents = MerkleTree()
        self.votes: list[list[tuple[int, bytes]]] = []
        self.vote_leaves: list[bytes] = []


def _voter_leaf(votes: list[tuple[int, bytes]]) -> bytes:
    return serialize_content(VoterContent(tuple(votes)))


def assemble_superblock(
    ctx: MinerContext, params: SortitionParams, last: LastSuperblock | None = None
) -> tuple[list[bytes], list[bytes], bytes, bytes]:
    """Parent and content leaf lists in the committed index layout, with
    their roots.

    Index layout: voter chains at 0..m-1, transaction at m, proposer at
    m+1.  The transaction slot's parent is the proposer parent.  ``last``
    is the miner's previous superblock, which then holds this one;
    without it everything is built afresh.
    """
    last = last or LastSuperblock()
    parents = list(ctx.vt_parent)
    parents.append(ctx.prp_parent)  # transaction slot
    parents.append(ctx.prp_parent)  # proposer slot
    if len(last.votes) == len(ctx.votes):
        contents = [
            leaf if votes is old else _voter_leaf(votes)
            for votes, old, leaf in zip(ctx.votes, last.votes, last.vote_leaves)
        ]
    else:
        contents = [_voter_leaf(votes) for votes in ctx.votes]
    last.votes = list(ctx.votes)
    last.vote_leaves = list(contents)
    contents.append(serialize_content(TransactionContent(tuple(ctx.txs))))
    contents.append(
        serialize_content(ProposerContent(ctx.unref_prp_refs, ctx.unref_tx_refs))
    )
    return parents, contents, last.parents.update(parents), last.contents.update(contents)


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
    parents, _, parent_root, content_root = assemble_superblock(ctx, params, last)
    header = Header(parent_root, content_root, nonce)
    block_type = sortition(u, params)
    index = block_type.leaf_index(params.m)
    if block_type.kind == TRANSACTION:
        content = TransactionContent(tuple(ctx.txs))
        level = 0
    elif block_type.kind == PROPOSER:
        content = ProposerContent(ctx.unref_prp_refs, ctx.unref_tx_refs)
        level = ctx.prp_parent_level + 1
    else:
        content = VoterContent(tuple(ctx.votes[block_type.chain_index]))
        level = 0
    return Block(
        header=header,
        block_type=block_type,
        parent_leaf=parents[index],
        content=content,
        parent_proof=last.parents.prove(index),
        content_proof=last.contents.prove(index),
        miner_id=ctx.miner_id,
        level=level,
    )
