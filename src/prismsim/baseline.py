"""Longest-chain protocol on the shared event core, plus reversal analytics.

The baseline validates transactions against the miner's current ledger
before inclusion, so its ledgers never need sanitization; confirmation
is the classic k-deep rule.  The analytic side provides the private-
attack reversal probability and the many-chain vote aggregation used to
compare both protocols' reliability-depth tradeoffs.
"""
from __future__ import annotations

import math

from .chain import drain_orphans
from .confirmation import LatencySample, _poisson_pmf_prefix
from .crypto import sha256
from .ledger import (
    APPLIED,
    Transaction,
    conservation_check,
    execute,
    execute_with_fee,
    total_value,
)
from .netsim import TX_RELAY, EventCore, Peer
from .serialize import u64

# --- analytics ------------------------------------------------------------------


def nakamoto_reversal(k: int, beta: float) -> float:
    """Probability a k-deep block is reverted by a private mining attack.

    Standard private-attack race: the attacker's head start while the
    honest chain grows k blocks is Poisson with mean k*beta/(1-beta);
    from a deficit of z it still catches up with probability
    (beta/(1-beta))**z.
    """
    if k < 1:
        raise ValueError("confirmation depth must be >= 1")
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 0.5)")
    ratio = beta / (1.0 - beta)
    lam = k * ratio
    pmf = _poisson_pmf_prefix(lam, k)
    log_ratio = math.log(ratio)
    acc = 0.0
    for j, f_j in enumerate(pmf):
        if f_j > 0.0:
            acc += f_j * (1.0 - math.exp((k - j) * log_ratio))
    return min(1.0, max(0.0, 1.0 - acc))


def prism_vote_aggregation(m: int, per_vote_reversal: float) -> float:
    """Probability the adversary reverses at least half of m votes.

    Exact binomial tail P[X >= ceil(m/2)], X ~ Bin(m, p), summed in log
    space.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 <= per_vote_reversal <= 1.0:
        raise ValueError("per-vote reversal must lie in [0, 1]")
    p = per_vote_reversal
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    threshold = (m + 1) // 2
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lg_m = math.lgamma(m + 1)
    acc = 0.0
    for j in range(threshold, m + 1):
        log_term = lg_m - math.lgamma(j + 1) - math.lgamma(m - j + 1) + j * log_p + (m - j) * log_q
        acc += math.exp(log_term)
    return min(1.0, acc)


# --- longest-chain client ----------------------------------------------------------


class LCBlock:
    """Single-chain block: parent link plus an ordered transaction list."""

    __slots__ = ("parent", "txs", "nonce", "miner_id", "digest")

    def __init__(self, parent: bytes, txs: tuple[Transaction, ...], nonce: int, miner_id: int):
        self.parent = parent
        self.txs = txs
        self.nonce = nonce
        self.miner_id = miner_id
        content_root = sha256(b"".join(t.digest for t in txs))
        self.digest = sha256(parent + content_root + u64(nonce))


LC_GENESIS = sha256(b"prismsim:genesis:longest-chain")


class LCState:
    """Longest-chain view: tree, tip, mempool, ledger state at the tip."""

    def __init__(self, genesis_utxo: dict, scheme):
        self.scheme = scheme
        self.genesis_utxo = genesis_utxo
        self.entries: dict[bytes, tuple[LCBlock, int]] = {}  # digest -> (block, chainlen)
        self.tip = LC_GENESIS
        self.tip_chainlen = 0
        self.orphans: dict[bytes, list[LCBlock]] = {}
        self.orphan_digests: set[bytes] = set()
        self.seen_txs: dict[bytes, Transaction] = {}  # arrival order preserved
        self.on_chain_txs: set[bytes] = set()
        self.tip_utxo = dict(genesis_utxo)

    def has(self, digest: bytes) -> bool:
        return digest == LC_GENESIS or digest in self.entries or digest in self.orphan_digests

    def add_transaction(self, tx: Transaction) -> bool:
        if tx.digest in self.seen_txs:
            return False
        if not tx.signatures_well_formed(self.scheme):
            return False
        self.seen_txs[tx.digest] = tx
        return True

    def main_chain(self) -> list[LCBlock]:
        chain = []
        digest = self.tip
        while digest != LC_GENESIS:
            block, _ = self.entries[digest]
            chain.append(block)
            digest = block.parent
        chain.reverse()
        return chain

    def receive_block(self, block: LCBlock) -> bool:
        """Insert; returns True when the block was new."""
        if block.digest in self.entries or block.digest in self.orphan_digests:
            return False
        parent_known = block.parent == LC_GENESIS or block.parent in self.entries
        if not parent_known:
            self.orphans.setdefault(block.parent, []).append(block)
            self.orphan_digests.add(block.digest)
            return True
        self._insert(block)
        return True

    def _insert(self, block: LCBlock) -> None:
        self._store(block)
        for child in drain_orphans(self.orphans, block.digest):
            self.orphan_digests.discard(child.digest)
            self._store(child)

    def _store(self, block: LCBlock) -> None:
        parent_len = 0 if block.parent == LC_GENESIS else self.entries[block.parent][1]
        chainlen = parent_len + 1
        self.entries[block.digest] = (block, chainlen)
        for tx in block.txs:
            self.seen_txs.setdefault(tx.digest, tx)
        if chainlen > self.tip_chainlen:
            if block.parent == self.tip:
                self.tip = block.digest
                self.tip_chainlen = chainlen
                for tx in block.txs:
                    execute(tx, self.tip_utxo, self.scheme)
                    self.on_chain_txs.add(tx.digest)
            else:
                self.tip = block.digest
                self.tip_chainlen = chainlen
                self._rebuild_tip_state()

    def _rebuild_tip_state(self) -> None:
        self.tip_utxo = dict(self.genesis_utxo)
        self.on_chain_txs = set()
        for block in self.main_chain():
            for tx in block.txs:
                if execute(tx, self.tip_utxo, self.scheme) is APPLIED:
                    self.on_chain_txs.add(tx.digest)

    def mineable_txs(self, capacity: int) -> list[Transaction]:
        """Mempool snapshot validated against the tip ledger state."""
        scratch = dict(self.tip_utxo)
        out = []
        for digest, tx in self.seen_txs.items():
            if digest in self.on_chain_txs:
                continue
            if execute(tx, scratch, self.scheme) is APPLIED:
                out.append(tx)
                if len(out) >= capacity:
                    break
        return out

    def mempool_size(self) -> int:
        return sum(1 for d in self.seen_txs if d not in self.on_chain_txs)

    def fork_rate(self) -> float:
        total = len(self.entries)
        if total == 0:
            return 0.0
        return 1.0 - self.tip_chainlen / total


class LCNode(Peer):
    def __init__(self, node_id: int, sim: "LongestChainSimulation", hash_power: float):
        super().__init__(node_id, sim, hash_power)
        self.state = LCState(sim.genesis_utxo, sim.scheme)

    def on_mining_complete(self, now: float) -> None:
        txs = tuple(self.state.mineable_txs(self.sim.capacity))
        block = LCBlock(self.state.tip, txs, self.rng.integers(2**62), self.id)
        self.sim.record_mined(block, now)
        self.state.receive_block(block)
        self.sim.broadcast(self.id, block, now, exclude=None)

    def on_block(self, block: LCBlock, from_peer: int, now: float) -> None:
        if self.state.has(block.digest):
            return
        self.state.receive_block(block)
        self.sim.broadcast(self.id, block, now, exclude=from_peer)

    def on_transaction(self, tx: Transaction, now: float, from_peer: int | None = None) -> None:
        if not self.state.add_transaction(tx):
            return
        # the longest-chain protocol gossips pending transactions
        sim = self.sim
        sim.send(self.id, sim.neighbors[self.id], TX_RELAY, tx, sim.tx_bytes, now, sim.held_txs, from_peer)


class LongestChainSimulation(EventCore):
    """k-deep-confirmation baseline on the shared event core."""

    protocol = "longest_chain"

    def __init__(self, cfg: dict, seed: int):
        lc = cfg["longest_chain"]
        super().__init__(cfg, seed, lc["rate"])
        self.capacity = lc["block_capacity"]
        self.confirm_depth = lc["confirm_depth"]
        self.tx_bytes = cfg["sizes"]["bytes_per_tx"]

        n = self.topology.n
        self.nodes = [LCNode(i, self, 1.0 / n) for i in range(n)]
        self.held_blocks = [node.state.entries for node in self.nodes]
        self.held_txs = [node.state.seen_txs for node in self.nodes]
        self.observer = 0

        self.block_count = 0
        self.confirmed_blocks: list[bytes] = []
        self.confirmed_utxo = dict(self.genesis_utxo)
        self.confirmed_count = 0
        self.fees: list[int] = []
        self.reversals = 0

    def _wire_size(self, block: LCBlock) -> int:
        return self.cfg["sizes"]["block_overhead_bytes"] + self.tx_bytes * len(block.txs)

    def _handle_event(self, kind: int, payload, now: float) -> None:
        if kind == TX_RELAY:
            receiver, tx, sender = payload
            self.in_flight.pop((receiver, tx.digest), None)
            self.nodes[receiver].on_transaction(tx, now, sender)

    def record_mined(self, block: LCBlock, now: float) -> None:
        self.mine_times[block.digest] = now
        self.block_count += 1

    def _confirm(self, block: LCBlock, now: float | None = None) -> None:
        """Apply a block to the confirmed ledger; with ``now``, record the
        latency of each transaction it applies."""
        mined_at = self.mine_times.get(block.digest, 0.0)
        for tx in block.txs:
            fee = execute_with_fee(tx, self.confirmed_utxo, self.scheme)
            if fee is None:
                continue
            self.confirmed_count += 1
            self.fees.append(fee)
            if now is not None:
                self.latency_samples.append(LatencySample(tx.digest, mined_at, now))

    def _checkpoint(self, now: float) -> None:
        state = self.nodes[self.observer].state
        chain = state.main_chain()
        deep = max(0, len(chain) - (self.confirm_depth - 1))  # blocks with depth >= k
        for i, confirmed in enumerate(self.confirmed_blocks):
            if i >= len(chain) or chain[i].digest != confirmed:
                # a confirmed block left the main chain: roll the confirmed
                # ledger back to the surviving prefix and replay
                self.reversals += 1
                self.confirmed_blocks = self.confirmed_blocks[:i]
                self.confirmed_utxo = dict(self.genesis_utxo)
                self.confirmed_count = 0
                self.fees = []
                for block in chain[:i]:
                    self._confirm(block)
                break
        for block in chain[len(self.confirmed_blocks):deep]:
            self.confirmed_blocks.append(block.digest)
            self._confirm(block, now)
        self.timeseries.append(
            {
                "time": now,
                "confirmed_raw": self.confirmed_count,
                "confirmed_sanitized": self.confirmed_count,
                "max_confirmed_level": len(self.confirmed_blocks),
                "alpha_voter": None,
                "alpha_proposer": None,
                "alpha_chain": state.fork_rate(),
                "mempool": state.mempool_size(),
                "blocks_mined": self.block_count,
            }
        )

    def _protocol_report(self) -> dict:
        cfg = self.cfg
        state = self.nodes[self.observer].state
        return dict(
            blocks={
                "transaction": 0,
                "proposer": 0,
                "voter": 0,
                "chain": self.block_count,
                "total": self.block_count,
            },
            forking={"voter": None, "proposer": None, "chain": state.fork_rate()},
            confirmation={
                "beta": cfg["prism"]["beta"],
                "epsilon": cfg["prism"]["epsilon"],
                "max_confirmed_level": None,
                "confirm_depth": self.confirm_depth,
                "reversals": self.reversals,
            },
            attack={
                "strategy": cfg["adversary"]["strategy"],
                "fraction": 0.0,
                "target_level": None,
                "released": None,
                "success": None,
            },
            spam={
                "enabled": False,
                "conflict_sets": 0,
                "inclusions": 0,
                "baseline_inclusions": None,
                "normalized": None,
            },
            mempool_final=state.mempool_size(),
            invalid_blocks=0,
            conservation_ok=conservation_check(
                total_value(self.genesis_utxo), self.confirmed_utxo, self.fees
            ),
        )
