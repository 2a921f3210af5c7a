"""Per-node blockchain state machine.

Ingests validated blocks into one store, derives the proposer levels and,
in flat per-chain lists, the m voter chains' heights, longest-chain tips
and main-chain votes, keeps the miner-facing pools and vote lists exact,
and buffers blocks whose parents are missing.
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


class Genesis:
    """The genesis digests of an m-chain structure: the proposer genesis,
    one voter genesis per chain, and all m + 1 as a set.  They never
    change, so one instance serves every node of a run."""

    def __init__(self, m: int):
        self.proposer = genesis_proposer_digest()
        self.voters = tuple(genesis_voter_digest(i) for i in range(m))
        self.digests = frozenset((self.proposer, *self.voters))


@dataclass
class MempoolTx:
    tx: Transaction
    release_time: float  # spam jitter: ineligible for mining before this


@dataclass(frozen=True)
class Accepted:
    pass


@dataclass(frozen=True)
class TxRejected:
    reason: str  # BadSignature | Conflict


TX_ACCEPTED = Accepted()


class VoterSlots:
    """The voter slots a miner fills, one per chain: a tip to extend and
    a vote list to cast, with a log of when each slot last changed.

    A superblock kept from an earlier context of the same source rewrites
    only the slots ``slots_changed_since`` the epoch it saw.  A node's
    ``ChainState`` is one source and a strategy that keeps its own slots
    another.  A vote list is replaced, never edited, so an unchanged list
    keeps its identity between blocks; callers must not edit one.  Slots
    rewritten together from equal lists share one new list.
    """

    def __init__(self, tips: list[bytes], lists: list[list[tuple[int, bytes]]]) -> None:
        self.voter_tips = tips
        # per chain: (level, proposer digest)
        self.vote_lists = lists
        # voter slots by their last change of tip or vote list, oldest
        # first, each with the epoch of that change.  Never drained: every
        # reader remembers the epoch it has seen (``slots_changed_since``)
        self.slot_epoch = 0
        self.slot_changes: dict[int, int] = {}

    def _slots_changed(self, indexes) -> None:
        """Move ``indexes`` to the end of the slot-change log under one
        new epoch."""
        self.slot_epoch += 1
        log = self.slot_changes
        for index in indexes:
            log.pop(index, None)
            log[index] = self.slot_epoch

    def slots_changed_since(self, epoch: int) -> list[int]:
        """Voter slots whose tip or vote list changed after ``epoch`` (a
        past ``slot_epoch``), newest change first."""
        changed = []
        for index, at in reversed(self.slot_changes.items()):
            if at <= epoch:
                break
            changed.append(index)
        return changed


class ChainState(VoterSlots):
    """One node's view of the whole Prism block structure.

    Its voter slots are the honest miner's: each chain's longest-chain
    tip, and (level, vote choice) for every level that chain's main chain
    has not voted, in level order."""

    def __init__(self, m: int, vote_rule: str = FIRST_SEEN, genesis: Genesis | None = None):
        """``genesis`` is the run's shared ``Genesis(m)``; without one the
        state computes its own."""
        if vote_rule not in (FIRST_SEEN, MOST_VOTED):
            raise ValueError(f"unknown vote rule {vote_rule!r}")
        genesis = genesis or Genesis(m)
        if len(genesis.voters) != m:
            raise ValueError(f"genesis of {len(genesis.voters)} voter chains for m = {m}")
        super().__init__(list(genesis.voters), [[] for _ in range(m)])
        self.m = m
        self.vote_rule = vote_rule
        self.proposer_genesis = genesis.proposer
        # every stored block of every kind, by digest
        self.blocks: dict[bytes, Block] = {}
        self.genesis_digests = genesis.digests
        self.voter_genesis = genesis.voters
        # voter chains: every stored voter block's height (a chain's
        # genesis is 0; digests are unique across chains), each chain's
        # tip height beside its tip in ``voter_tips``, and each main
        # chain's votes: level -> (proposer digest, height of the voting
        # block), the first vote per level walking genesis -> tip
        self.voter_heights: dict[bytes, int] = {}
        self.voter_tip_heights = [0] * m
        self.main_votes: list[dict[int, tuple[bytes, int]]] = [{} for _ in range(m)]

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

        # main-chain vote tallies across all chains: level -> digest -> count
        self.votes_by_level: dict[int, dict[bytes, int]] = {}
        # vote_choice(level) for every proposer level
        self.vote_choices: dict[int, bytes] = {}

        self.orphans: dict[bytes, list[Block]] = {}
        self.orphan_digests: set[bytes] = set()
        # blocks refused for their ancestry; the parent is committed, so
        # every copy of the digest is refused
        self.rejected: set[bytes] = set()

        # tx-block digests claimed by proposer blocks (including claims
        # that arrived before the tx block itself)
        self.referenced_tx_digests: set[bytes] = set()

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
        return (
            digest in self.blocks
            or digest in self.genesis_digests
            or digest in self.orphan_digests
            or digest in self.rejected
        )

    def receive_block(self, block: Block) -> list[str]:
        """Apply a validated block; returns the state changes it caused,
        ``["duplicate"]`` for a block already ``seen``.  See
        ``receive_new_block`` for the other tags."""
        if self.seen(block):
            return ["duplicate"]
        return self.receive_new_block(block)

    def receive_new_block(self, block: Block) -> list[str]:
        """Apply a validated block the caller found not ``seen``; returns
        the state changes it caused.

        Change tags: ``tx_block``, ``voter_stored:i``, ``voter_tip:i``,
        ``proposer_stored``, ``new_proposer_level:L``, ``prp_parent:L``,
        ``orphaned``, ``rejected:bad_parent``.  A block
        whose parent is missing is buffered until the parent arrives, and
        ``orphaned`` is its only tag.  A block whose parent is rejected or
        of another chain or kind is rejected with every block buffered
        below it: its tags start with its own ``rejected:bad_parent``,
        followed by one per descendant.  Rejections are remembered, so a
        repeat is a duplicate.  A proposer block's level is its stored
        parent's plus one; the level the block claims is not read.
        """
        if block.block_type.kind == TRANSACTION:
            changes = self._receive_tx_block(block)
        else:
            parent = block.parent_leaf
            if not self.has_block(parent) and parent not in self.rejected:
                return self._buffer_orphan(block, parent)
            insert = self._insert_voter if block.block_type.kind == VOTER else self._insert_proposer
            changes = insert(block)
        # a refused block has already taken its buffered descendants with it
        if block.digest in self.orphans:
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
        """Store a voter block whose parent is its chain's genesis or a
        stored block of its chain, and reject any other.  A block longer
        than the tip becomes the tip; the first arrival keeps a tie."""
        index = block.block_type.chain_index
        parent = block.parent_leaf
        height = self._voter_height_above(parent, index)
        if height is None:
            return self._reject(block)  # rejected, or of another chain or kind
        self.voter_heights[block.digest] = height
        self.blocks[block.digest] = block
        changes = [f"voter_stored:{index}"]
        if height <= self.voter_tip_heights[index]:
            return changes
        changes.append(f"voter_tip:{index}")
        # (level, proposer digest) votes entering and leaving the main chain
        added: list[tuple[int, bytes]] = []
        removed: list[tuple[int, bytes]] = []
        main_votes = self.main_votes[index]
        if parent == self.voter_tips[index]:
            for level, digest in block.content.votes:
                if level not in main_votes:
                    main_votes[level] = (digest, height)
                    added.append((level, digest))
        else:
            old = main_votes
            main_votes = self.main_votes[index] = self._main_votes(index, block.digest)
            for level, (digest, _) in old.items():
                new = main_votes.get(level)
                if new is None or new[0] != digest:
                    removed.append((level, digest))
            for level, (digest, _) in main_votes.items():
                prev = old.get(level)
                if prev is None or prev[0] != digest:
                    added.append((level, digest))
        self.voter_tips[index] = block.digest
        self.voter_tip_heights[index] = height
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

    def _voter_height_above(self, parent: bytes, index: int) -> int | None:
        """``parent``'s height on voter chain ``index`` plus one; None
        unless it is that chain's genesis or a stored block of it."""
        if parent == self.voter_genesis[index]:
            return 1
        height = self.voter_heights.get(parent)
        if height is None or self.blocks[parent].block_type.chain_index != index:
            return None
        return height + 1

    def _main_votes(self, index: int, tip: bytes) -> dict[int, tuple[bytes, int]]:
        """The first vote per level on voter chain ``index`` walking its
        genesis -> ``tip``, a stored block: level -> (proposer digest,
        height of the voting block)."""
        genesis, blocks = self.voter_genesis[index], self.blocks
        chain = []
        while tip != genesis:
            block = blocks[tip]
            chain.append(block)
            tip = block.parent_leaf
        votes: dict[int, tuple[bytes, int]] = {}
        for height, block in enumerate(reversed(chain), 1):
            for level, digest in block.content.votes:
                if level not in votes:
                    votes[level] = (digest, height)
        return votes

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
            self._rewrite_owing(level, lambda votes: votes + vote)
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
            self._rewrite_owing(
                level, lambda votes: [(lvl, choice if lvl == level else d) for lvl, d in votes]
            )

    def _rewrite_owing(self, level: int, rewrite) -> None:
        """Give every chain whose main chain has not voted ``level`` the
        list ``rewrite(its list)``.  Chains that held equal lists share one
        new list, so a superblock serializes it once."""
        owing = [i for i, votes in enumerate(self.main_votes) if level not in votes]
        lists = self.vote_lists
        rewritten: dict[tuple, list[tuple[int, bytes]]] = {}
        for i in owing:
            key = tuple(lists[i])
            new = rewritten.get(key)
            if new is None:
                new = rewritten[key] = rewrite(lists[i])
            lists[i] = new
        self._slots_changed(owing)

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

        Covers the levels and voter heights (from each block's parent),
        the voter tips and their heights (from the heights in arrival
        order), each chain's main-chain votes (walking genesis -> tip), the
        vote tallies (from those votes), the vote choices, the coin index
        (from the mempool and every stored transaction block) and the
        honest vote lists.
        Costs a pass over the whole state: for tests, not runs.
        """
        # a stored block is a transaction block, a proposer block with a
        # level or a voter block in its own chain, and no other has a
        # height.  A chain's tip is its first stored block of the greatest
        # height: the first arrival keeps a tie
        fresh_levels: dict[bytes, int | None] = {}
        fresh_heights: dict[bytes, int | None] = {}
        tips, tip_heights = list(self.voter_genesis), [0] * self.m
        for digest, block in self.blocks.items():
            kind, parent = block.block_type.kind, block.parent_leaf
            if kind == PROPOSER:
                fresh_levels[digest] = _height_above(parent, self.proposer_genesis, self.prp_levels)
            elif kind == VOTER:
                i = block.block_type.chain_index
                height = fresh_heights[digest] = self._voter_height_above(parent, i)
                if height is not None and height > tip_heights[i]:
                    tips[i], tip_heights[i] = digest, height
        _expect_equal("prp_levels", self.prp_levels, fresh_levels)
        _expect_equal("voter_heights", self.voter_heights, fresh_heights)
        _expect_equal("voter_tip_heights", self.voter_tip_heights, tip_heights)
        _expect_equal("voter_tips", self.voter_tips, tips)
        for i, tip in enumerate(tips):
            _expect_equal(f"main votes of chain {i}", self.main_votes[i], self._main_votes(i, tip))
        tallies: dict[int, dict[bytes, int]] = {}
        for main_votes in self.main_votes:
            for level, (digest, _) in main_votes.items():
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
        for i, main_votes in enumerate(self.main_votes):
            fresh = [(level, choices[level]) for level in levels if level not in main_votes]
            _expect_equal(f"honest vote list of chain {i}", self.vote_lists[i], fresh)

    def voter_fork_rate(self) -> float:
        total = len(self.voter_heights)
        if total == 0:
            return 0.0
        return 1.0 - sum(self.voter_tip_heights) / total

    def proposer_fork_rate(self) -> float:
        total = len(self.prp_levels)
        if total == 0:
            return 0.0
        return 1.0 - self.prp_parent_level / total
