"""Shared scaffolding for protocol-level tests: a tiny bench that mines
blocks of a chosen type against a ChainState, plus UTXO workload helpers."""
from __future__ import annotations

import numpy as np

from prismsim.blocks import (
    SortitionParams,
    genesis_proposer_digest,
    genesis_voter_digest,
    validate_block,
)
from prismsim.chain import ChainState
from prismsim.crypto import get_scheme
from prismsim.ledger import TxInput, TxOutput, Utxo, signed_transaction
from prismsim.mining import LastSuperblock, MinerContext, finish_mining, honest_context

SCHEME = get_scheme("mock")
KEYS = [SCHEME.keypair(bytes([i])) for i in range(8)]


def make_params(m=4, f_v=1.0, f_t=1.0, f_p=1.0) -> SortitionParams:
    return SortitionParams(m=m, rate_tx=f_t, rate_prop=f_p, rate_voter=f_v)


def u_for(params: SortitionParams, kind: str, chain_index: int = 0) -> float:
    """Uniform draw landing mid-interval for the wanted block type."""
    f = params.total_rate
    if kind == "voter":
        return (chain_index + 0.5) * params.rate_voter / f
    if kind == "transaction":
        return (params.m * params.rate_voter + 0.5 * params.rate_tx) / f
    return (params.m * params.rate_voter + params.rate_tx + 0.5 * params.rate_prop) / f


class Bench:
    """One node's state plus a deterministic miner driving it; like a
    simulated node, the miner keeps its last superblock between blocks."""

    def __init__(self, m=4, f_v=1.0, f_t=1.0, f_p=1.0, vote_rule="first_seen", seed=0):
        self.params = make_params(m, f_v, f_t, f_p)
        self.state = ChainState(m, vote_rule=vote_rule)
        self.rng = np.random.default_rng(seed)
        self.now = 0.0
        self.last_superblock = LastSuperblock()

    def context(self, miner_id=0, tx_capacity=100) -> MinerContext:
        return honest_context(self.state, miner_id, self.now, tx_capacity)

    def mine(self, kind: str, chain_index: int = 0, miner_id: int = 0, deliver=True):
        """Mine a block of the given type from the current state."""
        ctx = self.context(miner_id)
        block = finish_mining(
            ctx,
            self.params,
            u_for(self.params, kind, chain_index),
            int(self.rng.integers(2**62)),
            self.last_superblock,
        )
        validate_block(block, self.params, SCHEME)
        if deliver:
            self.state.receive_block(block)
        return block


_FORGE_NONCE = [0]


def forge_tx_block(params: SortitionParams, txs, miner_id=0) -> "Block":
    """Mine a transaction block carrying exactly these transactions."""
    _FORGE_NONCE[0] += 1
    ctx = MinerContext(
        miner_id=miner_id,
        prp_parent=ChainState(params.m).proposer_genesis,
        prp_parent_level=0,
        vt_parent=[ChainState(params.m).voter_trees[i].genesis for i in range(params.m)],
        txs=list(txs),
        unref_prp_refs=(),
        unref_tx_refs=(),
        votes=[[] for _ in range(params.m)],
    )
    return finish_mining(ctx, params, u_for(params, "transaction"), _FORGE_NONCE[0])


def forge_proposer(params: SortitionParams, parent, level, prp_refs=(), tx_refs=(), miner_id=0):
    """Mine a proposer block with hand-picked parent and reference lists."""
    _FORGE_NONCE[0] += 1
    ctx = MinerContext(
        miner_id=miner_id,
        prp_parent=parent,
        prp_parent_level=level - 1,
        vt_parent=[ChainState(params.m).voter_trees[i].genesis for i in range(params.m)],
        txs=[],
        unref_prp_refs=tuple(prp_refs),
        unref_tx_refs=tuple(tx_refs),
        votes=[[] for _ in range(params.m)],
    )
    return finish_mining(ctx, params, u_for(params, "proposer"), _FORGE_NONCE[0])


def forge_voter(params, chain_index, parent):
    """Mine a voter block of one chain on a hand-picked parent digest."""
    vt_parent = [genesis_voter_digest(i) for i in range(params.m)]
    vt_parent[chain_index] = parent
    ctx = MinerContext(
        miner_id=0,
        prp_parent=genesis_proposer_digest(),
        prp_parent_level=0,
        vt_parent=vt_parent,
        txs=[],
        unref_prp_refs=(),
        unref_tx_refs=(),
        votes=[[] for _ in range(params.m)],
    )
    block = finish_mining(ctx, params, u_for(params, "voter", chain_index), 1000 + chain_index)
    validate_block(block, params, SCHEME)
    return block


def genesis_set(n_coins, value=10, owners=None):
    owners = owners or KEYS
    utxo_set = {}
    for i in range(n_coins):
        owner = owners[i % len(owners)]
        coin = Utxo(bytes(28) + i.to_bytes(4, "little"), 0, value, owner.public)
        utxo_set[coin.id] = coin
    return utxo_set


def spend(coin, recipient_kp, value=None, fee=0):
    owner_kp = next(k for k in KEYS if k.public == coin.owner)
    value = coin.value - fee if value is None else value
    outputs = [TxOutput(value, recipient_kp.public)]
    change = coin.value - value - fee
    if change > 0:
        outputs.append(TxOutput(change, owner_kp.public))
    return signed_transaction(SCHEME, [TxInput(*coin.id)], outputs, [owner_kp])
