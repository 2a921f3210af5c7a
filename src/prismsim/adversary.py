"""Adversarial mining strategies.

Every strategy produces structurally valid blocks through the regular
mining path; attacks differ only in which parents they extend, what the
blocks say, and when they are published.  A strategy's ``handle_*``
hooks return the blocks to publish now: withholding strategies return
nothing until release, then the whole backlog.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .blocks import Block, PROPOSER, TRANSACTION
from .chain import ChainState, VoterSlots, _expect_equal
from .mining import MinerContext, honest_context


def _compete_with(ctx: MinerContext, state: ChainState, digest: bytes) -> None:
    """Aim the proposer sub-block at the parent of the stored proposer
    block ``digest``, so it competes with that block at its level."""
    parent = state.blocks[digest].parent_leaf
    ctx.prp_parent = parent
    ctx.prp_parent_level = state.prp_levels[digest] - 1
    ctx.unref_prp_refs = tuple(d for d in ctx.unref_prp_refs if d != parent)


class Strategy:
    def attach(self, sim, node) -> None:
        """Bind to ``node`` of ``sim``.  Both are held as weak proxies:
        the node holds its strategy (and its last superblock may hold it as
        a slot source), so strong references back would make a cycle."""
        self.sim = weakref.proxy(sim)
        self.node = weakref.proxy(node)

    def build_context(self, now: float) -> MinerContext | None:
        return None  # honest assembly

    def handle_mined(self, block: Block, now: float) -> list[Block]:
        return [block]

    def handle_block(self, block: Block, now: float) -> list[Block]:
        return []


class CensorshipStrategy(Strategy):
    """Mine structurally valid but empty transaction and proposer content;
    vote and extend chains honestly otherwise."""

    def build_context(self, now: float) -> MinerContext:
        node = self.node
        ctx = honest_context(node.state, node.id, now, self.sim.tx_capacity)
        ctx.txs = []
        ctx.unref_prp_refs = ()
        ctx.unref_tx_refs = ()
        return ctx


class BalancingStrategy(Strategy):
    """Keep proposer levels contested: mine a competitor wherever a level
    has a single candidate, and always vote for the runner-up."""

    def _runner_up(self, level: int) -> bytes | None:
        state = self.node.state
        candidates = state.prp_by_level.get(level)
        if not candidates:
            return None
        counts = state.votes_by_level.get(level, {})
        # stable: ties keep arrival order
        ranked = sorted(candidates, key=lambda d: -counts.get(d, 0))
        return ranked[1] if len(ranked) >= 2 else ranked[0]

    def build_context(self, now: float) -> MinerContext:
        node = self.node
        state = node.state
        ctx = honest_context(node.state, node.id, now, self.sim.tx_capacity)
        runner_up: dict[int, bytes | None] = {}
        for i, honest in enumerate(ctx.votes):
            # the honest list holds each unvoted level once, in order
            votes = []
            for level, _ in honest:
                if level not in runner_up:
                    runner_up[level] = self._runner_up(level)
                if runner_up[level] is not None:
                    votes.append((level, runner_up[level]))
            if votes != honest:
                ctx.replace_votes(i, votes)
        top = state.prp_parent_level
        if top >= 1 and len(state.prp_by_level.get(top, ())) == 1:
            _compete_with(ctx, state, state.prp_by_level[top][0])
        return ctx


@dataclass
class _PrivateFork:
    tip: bytes
    length: int
    voted: set[int] = field(default_factory=set)


class PrivateDoubleSpendStrategy(Strategy, VoterSlots):
    """Withhold a competing proposer block at the target level and race
    every voter chain privately to shift votes onto it.

    Release fires when the private chain is strictly longer than the
    public one (so it wins the fork choice) and votes for the private
    candidate on at least m/2 + margin chains, or at the timeout.

    Once attacking, the strategy is the source of its own voter slots.
    Per chain it keeps its fork, the fork's tip in ``voter_tips`` and the
    fork's vote list in ``vote_lists``: (level, first-seen candidate) for
    every level up to the top the fork has not voted, the private block
    standing for the target level once it exists.  A list changes only
    when its fork votes, and every list when ``votes_for``, the top
    proposer level and whether the private block exists, moves; the
    slot-change log names just those slots, so a superblock rewrites
    only them.  ``target_voters`` holds the chains whose fork voted the
    target level.
    """

    def __init__(self, target_level: int, release_margin: int, release_timeout: float):
        VoterSlots.__init__(self, [], [])
        self.target_level = target_level
        self.release_margin = release_margin
        self.release_timeout = release_timeout
        self.phase = "waiting"
        self.private_block: Block | None = None
        self.forks: list[_PrivateFork] = []
        self.target_voters: set[int] = set()
        self.withheld: list[Block] = []
        self.released = False
        # the (top proposer level, private block exists) the lists are built for
        self.votes_for: tuple[int, bool] = (0, False)

    # --- fork bookkeeping -------------------------------------------------------

    def _fork(self, state: ChainState, index: int) -> _PrivateFork:
        """A private fork of public voter chain ``index`` as it stands now."""
        base = state.voter_tips[index]
        base_len = state.voter_tip_heights[index]
        main_votes = state.main_votes[index]
        voted = set(main_votes)
        target_vote = main_votes.get(self.target_level)
        if target_vote is not None:
            # fork below the public vote for the target level so the
            # private chain can recast it: from the main-chain block just
            # under the voting one
            _, vote_height = target_vote
            for _ in range(base_len - vote_height + 1):
                base = state.blocks[base].parent_leaf
            base_len = vote_height - 1
            voted = {
                level
                for level, (_, height) in main_votes.items()
                if height <= base_len
            }
        return _PrivateFork(tip=base, length=base_len, voted=voted)

    def _start(self) -> None:
        """Fork every voter chain from the public chains as they stand.
        Attacking means a block at the target level (>= 1) is stored, so
        ``votes_for`` moves next and every list is built."""
        state = self.node.state
        self.forks = [self._fork(state, i) for i in range(state.m)]
        self.target_voters = {
            i for i, fork in enumerate(self.forks) if self.target_level in fork.voted
        }
        self.voter_tips = [fork.tip for fork in self.forks]

    def _votes(self, fork: _PrivateFork) -> list[tuple[int, bytes]]:
        """The fork's vote list as of ``votes_for``.  First-seen choices
        below the top level are fixed, so the list depends on nothing
        else."""
        state = self.node.state
        top, private = self.votes_for
        votes = []
        for level in range(1, top + 1):
            if level in fork.voted:
                continue
            if level == self.target_level:
                if private:
                    votes.append((level, self.private_block.digest))
            else:
                choice = state.first_seen_at(level)
                if choice is not None:
                    votes.append((level, choice))
        return votes

    def _rebuild_lists(self) -> None:
        """Rebuild every fork's list; forks with equal lists share one."""
        shared: dict[tuple, list[tuple[int, bytes]]] = {}
        self.vote_lists = []
        for fork in self.forks:
            votes = self._votes(fork)
            self.vote_lists.append(shared.setdefault(tuple(votes), votes))
        self._slots_changed(range(len(self.forks)))

    def check_invariants(self) -> None:
        """Compare the kept tips, vote lists and target voters with a
        rebuild from the forks, the lists as of ``votes_for``; raise
        AssertionError on the first mismatch.  For tests, not runs."""
        _expect_equal("private tips", self.voter_tips, [fork.tip for fork in self.forks])
        for i, fork in enumerate(self.forks):
            _expect_equal(f"private vote list of chain {i}", self.vote_lists[i], self._votes(fork))
        voters = {i for i, fork in enumerate(self.forks) if self.target_level in fork.voted}
        _expect_equal("target voters", self.target_voters, voters)

    # --- mining ------------------------------------------------------------------

    def build_context(self, now: float) -> MinerContext | None:
        if self.phase == "waiting":
            return None
        node = self.node
        state = node.state
        if not self.forks:
            self._start()
        votes_for = (state.prp_parent_level, self.private_block is not None)
        if votes_for != self.votes_for:
            self.votes_for = votes_for
            self._rebuild_lists()
        ctx = honest_context(state, node.id, now, self.sim.tx_capacity, slots=self)
        if self.private_block is None:
            public = state.prp_by_level.get(self.target_level)
            if public:
                _compete_with(ctx, state, public[0])
        return ctx

    def handle_mined(self, block: Block, now: float) -> list[Block]:
        if self.phase == "waiting":
            return [block]
        kind = block.block_type.kind
        if kind == TRANSACTION:
            return [block] + self._maybe_release(now)
        if kind == PROPOSER:
            if (
                self.phase == "attacking"
                and self.private_block is None
                and block.level == self.target_level
            ):
                self.private_block = block
                self.withheld.append(block)
                return self._maybe_release(now)
            return [block] + self._maybe_release(now)
        chain = block.block_type.chain_index
        fork = self.forks[chain]
        fork.tip = self.voter_tips[chain] = block.digest
        fork.length += 1
        fork.voted.update(level for level, _ in block.content.votes)
        if self.target_level in fork.voted:
            self.target_voters.add(chain)
        self.vote_lists[chain] = self._votes(fork)
        self._slots_changed((chain,))
        if self.phase == "released":
            return [block]
        self.withheld.append(block)
        return self._maybe_release(now)

    # --- public events --------------------------------------------------------------

    def handle_block(self, block: Block, now: float) -> list[Block]:
        if self.phase == "waiting":
            if self.node.state.prp_by_level.get(self.target_level):
                self.phase = "attacking"
            return []
        return self._maybe_release(now)

    def _winning(self, threshold: float) -> bool:
        """Whether at least ``threshold`` forks that voted the target are
        longer than their public chains.  Only those forks can win, and
        counting stops once the answer is known."""
        public = self.node.state.voter_tip_heights
        forks = self.forks
        need = threshold
        left = len(self.target_voters)
        for i in self.target_voters:
            if need <= 0 or left < need:
                break
            left -= 1
            if forks[i].length > public[i]:
                need -= 1
        return need <= 0

    def _maybe_release(self, now: float) -> list[Block]:
        if self.phase != "attacking" or not self.withheld:
            return []
        if self._winning(self.node.state.m / 2 + self.release_margin) or now >= self.release_timeout:
            self.phase = "released"
            self.released = True
            backlog = self.withheld
            self.withheld = []
            return backlog
        return []


def install_strategies(sim) -> None:
    """Instantiate and attach the configured strategy on every adversarial node."""
    adv = sim.cfg["adversary"]
    for node in sim.nodes:
        if not node.adversarial:
            continue
        if adv["strategy"] == "censorship":
            node.strategy = CensorshipStrategy()
        elif adv["strategy"] == "balancing":
            node.strategy = BalancingStrategy()
        elif adv["strategy"] == "private_double_spend":
            node.strategy = PrivateDoubleSpendStrategy(
                target_level=adv["target_level"],
                release_margin=adv["release_margin"],
                release_timeout=adv["release_timeout_fraction"] * sim.cfg["duration"],
            )
        if node.strategy is not None:
            node.strategy.attach(sim, node)


def spam_bound_exponential(rate: float, delta: float) -> float:
    """Upper bound on normalized spam under exponential jitter: the chance
    another node's jitter lands within one network delay of the first."""
    if rate < 0 or delta < 0:
        raise ValueError("rate and delta must be >= 0")
    import math

    return 1.0 - math.exp(-rate * delta)
