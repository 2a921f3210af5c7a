"""Per-node blockchain state machine.

Ingests validated blocks into one store, derives the proposer levels and
the m voter trees' chain lengths and longest chains, keeps the miner-facing
pools and vote lists exact, and buffers blocks whose parents are missing.
``check_invariants`` recomputes the derived indexes for tests.  One
instance per simulated node; the simulator delivers events serially per
node.
"""
from __future__ import annotations

from dataclasses import dataclass

from .blocks import (
    PROPOSER,
    TRANSACTION,
    VOTER,
    Block,
    genesis_proposer_digest,
    genesis_voter_digest,
)
from .ledger import CoinId, Transaction

FIRST_SEEN = "first_seen"
MOST_VOTED = "most_voted"


def drain_orphans(orphans: dict[bytes, list], digest: bytes):
    """Pop and yield the blocks buffered below ``digest``, depth first.

    The caller inserts or refuses each block before the next one is
    drawn; refusing one must pop its buffered descendants.  A child and
    its own waiting descendants come before the child's next sibling, so
    the first arrival keeps a tip tie.  An explicit stack keeps deep
    chains clear of the recursion limit.
    """
    pending = [iter(orphans.pop(digest, ()))]
    while pending:
        block = next(pending[-1], None)
        if block is None:
            pending.pop()
            continue
        yield block
        waiting = orphans.pop(block.digest, None)
        if waiting:
            pending.append(iter(waiting))


def _expect_equal(what: str, kept, fresh) -> None:
    if kept != fresh:
        raise AssertionError(f"{what}: kept {kept!r}, recomputed {fresh!r}")


def _height_above(parent: bytes, genesis: bytes, heights: dict[bytes, int]) -> int | None:
    """``parent``'s height plus one, genesis being 0; None if it has none."""
    if parent == genesis:
        return 1
    return heights[parent] + 1 if parent in heights else None


@dataclass
class MempoolTx:
    tx: Transaction
    release_time: float  # spam jitter: ineligible for mining before this


class VoterTree:
    """One voter blocktree: each block's chain length, the longest-chain
    tip and main-chain votes.  Walks parents through the node's store."""

    def __init__(self, index: int, blocks: dict[bytes, Block]):
        self.genesis = genesis_voter_digest(index)
        self.blocks = blocks
        self.chainlens: dict[bytes, int] = {}
        self.tip: bytes = self.genesis
        self.tip_chainlen: int = 0
        # level -> (proposer digest, chainlen of the voting block), first
        # vote per level walking genesis -> tip
        self.main_votes: dict[int, tuple[bytes, int]] = {}

    def has(self, digest: bytes) -> bool:
        return digest == self.genesis or digest in self.chainlens

    def chainlen(self, digest: bytes) -> int:
        return 0 if digest == self.genesis else self.chainlens[digest]

    def insert(self, block: Block) -> tuple[bool, list[tuple[int, bytes]], list[tuple[int, bytes]]]:
        """Insert a stored voter block whose parent is in this tree.

        Returns (tip_changed, removed_votes, added_votes) where votes are
        (level, proposer digest) pairs entering/leaving the main chain.
        """
        parent = block.parent_leaf
        chainlen = self.chainlen(parent) + 1
        self.chainlens[block.digest] = chainlen
        if chainlen <= self.tip_chainlen:
            return False, [], []  # shorter or tie: first arrival keeps the tip
        added: list[tuple[int, bytes]] = []
        removed: list[tuple[int, bytes]] = []
        if parent == self.tip:
            for level, digest in block.content.votes:
                if level not in self.main_votes:
                    self.main_votes[level] = (digest, chainlen)
                    added.append((level, digest))
        else:
            old, self.main_votes = self.main_votes, {}
            for clen, chain_block in enumerate(self.walk_from_genesis(block.digest), 1):
                for level, digest in chain_block.content.votes:
                    if level not in self.main_votes:
                        self.main_votes[level] = (digest, clen)
            for level, (digest, _) in old.items():
                new = self.main_votes.get(level)
                if new is None or new[0] != digest:
                    removed.append((level, digest))
            for level, (digest, _) in self.main_votes.items():
                prev = old.get(level)
                if prev is None or prev[0] != digest:
                    added.append((level, digest))
        self.tip = block.digest
        self.tip_chainlen = chainlen
        return True, removed, added

    def walk_from_genesis(self, tip: bytes) -> list[Block]:
        chain = []
        digest = tip
        while digest != self.genesis:
            block = self.blocks[digest]
            chain.append(block)
            digest = block.parent_leaf
        chain.reverse()
        return chain

    def vote_and_depth(self, level: int) -> tuple[bytes, int] | None:
        hit = self.main_votes.get(level)
        if hit is None:
            return None
        digest, chainlen = hit
        return digest, self.tip_chainlen - chainlen + 1


@dataclass(frozen=True)
class Accepted:
    pass


@dataclass(frozen=True)
class TxRejected:
    reason: str  # BadSignature | Conflict


TX_ACCEPTED = Accepted()


class ChainState:
    """One node's view of the whole Prism block structure."""

    def __init__(self, m: int, vote_rule: str = FIRST_SEEN):
        if vote_rule not in (FIRST_SEEN, MOST_VOTED):
            raise ValueError(f"unknown vote rule {vote_rule!r}")
        self.m = m
        self.vote_rule = vote_rule
        self.proposer_genesis = genesis_proposer_digest()
        # every stored block of every kind, by digest; the trees keep heights only
        self.blocks: dict[bytes, Block] = {}
        self.voter_trees = [VoterTree(i, self.blocks) for i in range(m)]
        self.genesis_digests = frozenset(
            [self.proposer_genesis] + [t.genesis for t in self.voter_trees]
        )

        self.prp_levels: dict[bytes, int] = {}
        self.prp_by_level: dict[int, list[bytes]] = {}
        self.prp_parent: bytes = self.proposer_genesis
        self.prp_parent_level: int = 0

        self.unref_tx_pool: dict[bytes, None] = {}
        self.unref_prp_pool: dict[bytes, None] = {}

        self.mempool: dict[bytes, MempoolTx] = {}
        # every coin a pooled or stored transaction spends: the digest of
        # the mempool transaction spending it, or None once a stored
        # transaction block spends it
        self.spent_coins: dict[CoinId, bytes | None] = {}

        # main-chain vote tallies across all trees: level -> digest -> count
        self.votes_by_level: dict[int, dict[bytes, int]] = {}
        # vote_choice(level) for every proposer level
        self.vote_choices: dict[int, bytes] = {}
        # the honest miner's vote list per chain: (level, vote choice) for
        # every level its main chain has not voted, in level order.  A list
        # is replaced, never edited, so an unchanged list keeps its identity
        # between blocks; callers must not edit one
        self.vote_lists: list[list[tuple[int, bytes]]] = [[] for _ in range(m)]
        self.voter_tips: list[bytes] = [t.genesis for t in self.voter_trees]
        # voter slots by their last change of tip or vote list, oldest
        # first, each with the epoch of that change.  Never drained: every
        # reader remembers the epoch it has seen (``slots_changed_since``)
        self.slot_epoch = 0
        self.slot_changes: dict[int, int] = {}

        self.orphans: dict[bytes, list[Block]] = {}
        self.orphan_digests: set[bytes] = set()
        # blocks refused for their ancestry; the parent is committed, so
        # every copy of the digest is refused
        self.rejected: set[bytes] = set()

        # tx-block digests claimed by proposer blocks (including claims
        # that arrived before the tx block itself)
        self.referenced_tx_digests: set[bytes] = set()
        self.voter_blocks_stored = 0

    # --- transactions ---------------------------------------------------------

    def receive_transaction(
        self, tx: Transaction, now: float, scheme, release_time: float | None = None
    ) -> Accepted | TxRejected:
        """Admit to the mempool unless malformed or conflicting.

        A transaction conflicts if any coin it spends is in the coin index.
        A pooled or mined transaction has claimed all its coins, so a repeat
        of one conflicts too.  ``release_time`` carries the spam-jitter
        delay; until then the transaction is ineligible for inclusion in
        mined blocks.
        """
        if not tx.signatures_well_formed(scheme):
            return TxRejected("BadSignature")
        spent = self.spent_coins
        if not spent.keys().isdisjoint(tx.inputs):
            return TxRejected("Conflict")
        self.mempool[tx.digest] = MempoolTx(tx, release_time if release_time is not None else now)
        for coin in tx.inputs:
            spent[coin] = tx.digest
        return TX_ACCEPTED

    def eligible_transactions(self, now: float, capacity: int) -> list[Transaction]:
        """FIFO snapshot of released mempool transactions, up to capacity."""
        out = []
        for entry in self.mempool.values():
            if entry.release_time <= now:
                out.append(entry.tx)
                if len(out) >= capacity:
                    break
        return out

    # --- blocks ---------------------------------------------------------------

    def has_block(self, digest: bytes) -> bool:
        """Stored, or one of the m + 1 genesis digests."""
        return digest in self.blocks or digest in self.genesis_digests

    def get_block(self, digest: bytes) -> Block | None:
        """A stored block; None for genesis, orphans and unknown digests."""
        return self.blocks.get(digest)

    def seen(self, block: Block) -> bool:
        """Stored, genesis, buffered as an orphan, or rejected."""
        digest = block.digest
        return self.has_block(digest) or digest in self.orphan_digests or digest in self.rejected

    def receive_block(self, block: Block) -> list[str]:
        """Apply a validated block; returns the state changes it caused.

        Change tags: ``tx_block``, ``voter_stored:i``, ``voter_tip:i``,
        ``proposer_stored``, ``new_proposer_level:L``, ``prp_parent:L``,
        ``duplicate``, ``orphaned``, ``rejected:bad_parent``.  A block
        whose parent is missing is buffered until the parent arrives, and
        ``orphaned`` is its only tag.  A block whose parent is rejected or
        of another chain or kind is rejected with every block buffered
        below it: its tags start with its own ``rejected:bad_parent``,
        followed by one per descendant.  Rejections are remembered, so a
        repeat is a duplicate.  A proposer block's level is its stored
        parent's plus one; the level the block claims is not read.
        """
        if self.seen(block):
            return ["duplicate"]
        if block.block_type.kind == TRANSACTION:
            changes = self._receive_tx_block(block)
        else:
            parent = block.parent_leaf
            if not self.has_block(parent) and parent not in self.rejected:
                return self._buffer_orphan(block, parent)
            insert = self._insert_voter if block.block_type.kind == VOTER else self._insert_proposer
            changes = insert(block)
        # a refused block has already taken its buffered descendants with it
        changes.extend(self._resolve_orphans(block.digest))
        return changes

    def _buffer_orphan(self, block: Block, missing: bytes) -> list[str]:
        self.orphans.setdefault(missing, []).append(block)
        self.orphan_digests.add(block.digest)
        return ["orphaned"]

    def _resolve_orphans(self, digest: bytes) -> list[str]:
        changes: list[str] = []
        for block in drain_orphans(self.orphans, digest):
            self.orphan_digests.discard(block.digest)
            insert = self._insert_voter if block.block_type.kind == VOTER else self._insert_proposer
            changes.extend(insert(block))
        return changes

    def _reject(self, block: Block) -> list[str]:
        """Remember ``block`` as rejected for its parent, with every block
        buffered below it.

        The parent is committed by the parent proof, so the digest is
        refused for good.  The buffered descendants are taken out of the
        orphan buffer here, so an enclosing ``drain_orphans`` finds none
        to hand on.
        """
        changes = []
        pending = [block]
        while pending:
            rejected = pending.pop()
            self.rejected.add(rejected.digest)
            self.orphan_digests.discard(rejected.digest)
            changes.append("rejected:bad_parent")
            pending.extend(self.orphans.pop(rejected.digest, ()))
        return changes

    def _receive_tx_block(self, block: Block) -> list[str]:
        self.blocks[block.digest] = block
        # skip the pool if a proposer block already claimed it before arrival
        if block.digest not in self.referenced_tx_digests:
            self.unref_tx_pool[block.digest] = None
        # each coin the block spends is mined from here on, and the mempool
        # transaction that held it goes: the block's own transaction, or a
        # conflicting spend (spam rule)
        spent, mempool = self.spent_coins, self.mempool
        for tx in block.content.txs:
            for coin in tx.inputs:
                holder = spent.get(coin)
                if holder is not None:
                    for held in mempool.pop(holder).tx.inputs:
                        spent.pop(held, None)
                spent[coin] = None
        return ["tx_block"]

    def _insert_voter(self, block: Block) -> list[str]:
        index = block.block_type.chain_index
        tree = self.voter_trees[index]
        if not tree.has(block.parent_leaf):
            return self._reject(block)  # rejected, or of another chain or kind
        self.blocks[block.digest] = block  # a reorg walk reads it from the store
        tip_changed, removed, added = tree.insert(block)
        self.voter_blocks_stored += 1
        changes = [f"voter_stored:{index}"]
        if tip_changed:
            changes.append(f"voter_tip:{index}")
            self.voter_tips[index] = block.digest
            main_votes = tree.main_votes
            if removed:
                # reorg: every level up to the top the new main chain lacks
                choices = self.vote_choices
                self.vote_lists[index] = [
                    (level, choices[level])
                    for level in range(1, self.prp_parent_level + 1)
                    if level not in main_votes
                ]
            elif added:
                self.vote_lists[index] = [
                    vote for vote in self.vote_lists[index] if vote[0] not in main_votes
                ]
            for level, digest in removed:
                counts = self.votes_by_level.get(level)
                if counts is not None:
                    counts[digest] -= 1
                    if counts[digest] <= 0:
                        del counts[digest]
            for level, digest in added:
                counts = self.votes_by_level.setdefault(level, {})
                counts[digest] = counts.get(digest, 0) + 1
            if self.vote_rule == MOST_VOTED:
                for level in {level for level, _ in removed + added}:
                    self._recheck_choice(level)
            self._slots_changed((index,))
        return changes

    def _insert_proposer(self, block: Block) -> list[str]:
        parent = block.parent_leaf
        # the parent is committed by the parent proof; the claimed level is not
        level = _height_above(parent, self.proposer_genesis, self.prp_levels)
        if level is None:
            return self._reject(block)  # rejected, or not a proposer block
        self.prp_levels[block.digest] = level
        self.blocks[block.digest] = block
        changes = ["proposer_stored"]
        level_list = self.prp_by_level.setdefault(level, [])
        new_level = not level_list
        level_list.append(block.digest)
        self.unref_prp_pool[block.digest] = None
        # prune everything this block refers to: its parent plus both lists
        self.unref_prp_pool.pop(parent, None)
        for ref in block.content.prp_refs:
            self.unref_prp_pool.pop(ref, None)
        self.referenced_tx_digests.update(block.content.tx_refs)
        for ref in block.content.tx_refs:
            self.unref_tx_pool.pop(ref, None)
        if new_level:
            changes.append(f"new_proposer_level:{level}")
            self.vote_choices[level] = block.digest
            # its parent is stored one level down, so the new level is the
            # new top: every list that owes it gains it as its last vote
            vote = [(level, block.digest)]
            owing = [i for i, t in enumerate(self.voter_trees) if level not in t.main_votes]
            for i in owing:
                self.vote_lists[i] = self.vote_lists[i] + vote
            self._slots_changed(owing)
        elif self.vote_rule == MOST_VOTED:
            self._recheck_choice(level)
        if level > self.prp_parent_level:
            self.prp_parent = block.digest
            self.prp_parent_level = level
            changes.append(f"prp_parent:{level}")
        return changes

    def _recheck_choice(self, level: int) -> None:
        """Keep ``vote_choices[level]`` current; on a change, every chain
        whose main chain has not voted ``level`` gets a new vote list with
        that vote rewritten."""
        choice = self.vote_choice(level)
        if choice != self.vote_choices.get(level):
            self.vote_choices[level] = choice
            owing = [i for i, t in enumerate(self.voter_trees) if level not in t.main_votes]
            lists = self.vote_lists
            for i in owing:
                lists[i] = [(lvl, choice if lvl == level else d) for lvl, d in lists[i]]
            self._slots_changed(owing)

    def _slots_changed(self, indexes) -> None:
        """Move ``indexes`` to the end of the slot-change log under one
        new epoch."""
        self.slot_epoch += 1
        log = self.slot_changes
        for index in indexes:
            log.pop(index, None)
            log[index] = self.slot_epoch

    def slots_changed_since(self, epoch: int) -> list[int]:
        """Voter slots whose tip or honest vote list changed after
        ``epoch`` (a past ``slot_epoch``), newest change first."""
        changed = []
        for index, at in reversed(self.slot_changes.items()):
            if at <= epoch:
                break
            changed.append(index)
        return changed

    # --- queries ---------------------------------------------------------------

    def candidates_at(self, level: int) -> list[bytes]:
        """Proposer candidates at a level: stored blocks first (arrival
        order), then any digests known only through votes."""
        stored, voted = self.prp_by_level.get(level, ()), self.votes_by_level.get(level, ())
        return list(dict.fromkeys([*stored, *voted]))

    def first_seen_at(self, level: int) -> bytes | None:
        level_list = self.prp_by_level.get(level)
        return level_list[0] if level_list else None

    def vote_choice(self, level: int) -> bytes | None:
        """Which proposer block a fresh vote at this level should name."""
        level_list = self.prp_by_level.get(level)
        if not level_list:
            return None
        if self.vote_rule == FIRST_SEEN or len(level_list) == 1:
            return level_list[0]
        counts = self.votes_by_level.get(level, {})
        return max(level_list, key=lambda d: (counts.get(d, 0), -level_list.index(d)))

    def check_invariants(self) -> None:
        """Recompute the derived indexes from scratch and compare them
        with the kept ones; raise AssertionError on the first mismatch.

        Covers the chain lengths and levels (from each block's parent), the
        vote tallies (from every tree's main-chain votes), the vote choices,
        the coin index (from the mempool and every stored transaction
        block), the voter tips and the honest vote lists.
        Costs a pass over the whole state: for tests, not runs.
        """
        # a stored block is a transaction block, a proposer block with a
        # level or a voter block in its own chain, and no other has a height
        fresh_levels: dict[bytes, int | None] = {}
        fresh_chainlens: list[dict[bytes, int | None]] = [{} for _ in self.voter_trees]
        for digest, block in self.blocks.items():
            kind, parent = block.block_type.kind, block.parent_leaf
            if kind == PROPOSER:
                fresh_levels[digest] = _height_above(parent, self.proposer_genesis, self.prp_levels)
            elif kind == VOTER:
                i = block.block_type.chain_index
                tree = self.voter_trees[i]
                fresh_chainlens[i][digest] = _height_above(parent, tree.genesis, tree.chainlens)
        _expect_equal("prp_levels", self.prp_levels, fresh_levels)
        for i, tree in enumerate(self.voter_trees):
            _expect_equal(f"chain lengths of chain {i}", tree.chainlens, fresh_chainlens[i])
        tallies: dict[int, dict[bytes, int]] = {}
        for tree in self.voter_trees:
            for level, (digest, _) in tree.main_votes.items():
                counts = tallies.setdefault(level, {})
                counts[digest] = counts.get(digest, 0) + 1
        kept = {level: counts for level, counts in self.votes_by_level.items() if counts}
        _expect_equal("votes_by_level", kept, tallies)
        levels = range(1, self.prp_parent_level + 1)
        choices = {level: self.vote_choice(level) for level in levels}
        _expect_equal("vote_choices", self.vote_choices, choices)
        coins: dict[CoinId, bytes | None] = {
            coin: digest for digest, entry in self.mempool.items() for coin in entry.tx.inputs
        }
        for block in self.blocks.values():
            if block.block_type.kind == TRANSACTION:
                coins.update((coin, None) for tx in block.content.txs for coin in tx.inputs)
        _expect_equal("spent_coins", self.spent_coins, coins)
        _expect_equal("voter_tips", self.voter_tips, [t.tip for t in self.voter_trees])
        for i, tree in enumerate(self.voter_trees):
            fresh = [(level, choices[level]) for level in levels if level not in tree.main_votes]
            _expect_equal(f"honest vote list of chain {i}", self.vote_lists[i], fresh)

    def voter_fork_rate(self) -> float:
        total = self.voter_blocks_stored
        if total == 0:
            return 0.0
        on_main = sum(t.tip_chainlen for t in self.voter_trees)
        return 1.0 - on_main / total

    def proposer_fork_rate(self) -> float:
        total = len(self.prp_levels)
        if total == 0:
            return 0.0
        return 1.0 - self.prp_parent_level / total
