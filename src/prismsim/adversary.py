"""Adversarial mining strategies.

Every strategy produces structurally valid blocks through the regular
mining path; attacks differ only in which parents they extend, what the
blocks say, and when they are published.  A strategy's ``handle_*``
hooks return the blocks to publish now: withholding strategies return
nothing until release, then the whole backlog.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import Block, PROPOSER, TRANSACTION
from .chain import ChainState
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
        self.sim = sim
        self.node = node

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
    base_public_len: int
    tip: bytes
    length: int
    voted: set[int] = field(default_factory=set)


class PrivateDoubleSpendStrategy(Strategy):
    """Withhold a competing proposer block at the target level and race
    every voter chain privately to shift votes onto it.

    Release fires when the private chain is strictly longer than the
    public one (so it wins the fork choice) and votes for the private
    candidate on at least m/2 + margin chains, or at the timeout.
    """

    def __init__(self, target_level: int, release_margin: int, release_timeout: float):
        self.target_level = target_level
        self.release_margin = release_margin
        self.release_timeout = release_timeout
        self.phase = "waiting"
        self.private_block: Block | None = None
        self.forks: dict[int, _PrivateFork] = {}
        self.withheld: list[Block] = []
        self.released = False
        # per chain, the private vote list as of ``votes_for``; a chain's
        # list is dropped when its fork votes, all of them when either
        # part of ``votes_for`` moves
        self.private_votes: dict[int, list[tuple[int, bytes]]] = {}
        self.votes_for: tuple[int, bool] = (0, False)

    # --- fork bookkeeping -------------------------------------------------------

    def _fork(self, chain: int) -> _PrivateFork:
        fork = self.forks.get(chain)
        if fork is not None:
            return fork
        tree = self.node.state.voter_trees[chain]
        base = tree.tip
        base_len = tree.tip_chainlen
        voted = {level for level in tree.main_votes}
        target_vote = tree.main_votes.get(self.target_level)
        if target_vote is not None:
            # fork below the public vote for the target level so the
            # private chain can recast it: from the main-chain block just
            # under the voting one
            _, vote_chainlen = target_vote
            while tree.chainlen(base) >= vote_chainlen:
                base = tree.blocks[base].parent_leaf
            base_len = vote_chainlen - 1
            voted = {
                level
                for level, (_, clen) in tree.main_votes.items()
                if clen <= base_len
            }
        fork = _PrivateFork(base_public_len=base_len, tip=base, length=base_len, voted=voted)
        self.forks[chain] = fork
        return fork

    def _private_votes(self, chain: int) -> list[tuple[int, bytes]]:
        """The fork's vote list, rebuilt only when it may have changed.

        Its inputs are the fork's voted levels, the top proposer level and
        whether the private block exists; first-seen choices below the top
        level are fixed.  A rebuild makes a new list, so an unchanged list
        keeps its identity and its leaf bytes in the miner.
        """
        state = self.node.state
        votes_for = (state.prp_parent_level, self.private_block is not None)
        if votes_for != self.votes_for:
            self.votes_for = votes_for
            self.private_votes.clear()
        votes = self.private_votes.get(chain)
        if votes is not None:
            return votes
        fork = self._fork(chain)
        votes = self.private_votes[chain] = []
        for level in range(1, state.prp_parent_level + 1):
            if level in fork.voted:
                continue
            if level == self.target_level:
                if self.private_block is not None:
                    votes.append((level, self.private_block.digest))
            else:
                choice = state.first_seen_at(level)
                if choice is not None:
                    votes.append((level, choice))
        return votes

    # --- mining ------------------------------------------------------------------

    def build_context(self, now: float) -> MinerContext | None:
        if self.phase == "waiting":
            return None
        node = self.node
        state = node.state
        ctx = honest_context(state, node.id, now, self.sim.tx_capacity)
        for i in range(state.m):
            ctx.replace_parent(i, self._fork(i).tip)
            ctx.replace_votes(i, self._private_votes(i))
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
        fork = self._fork(chain)
        fork.tip = block.digest
        fork.length += 1
        fork.voted.update(level for level, _ in block.content.votes)
        self.private_votes.pop(chain, None)
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

    def _winning_chains(self) -> int:
        state = self.node.state
        count = 0
        for i, fork in self.forks.items():
            if self.target_level not in fork.voted:
                continue
            if fork.length > state.voter_trees[i].tip_chainlen:
                count += 1
        return count

    def _maybe_release(self, now: float) -> list[Block]:
        if self.phase != "attacking" or not self.withheld:
            return []
        threshold = self.node.state.m / 2 + self.release_margin
        if self._winning_chains() >= threshold or now >= self.release_timeout:
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
