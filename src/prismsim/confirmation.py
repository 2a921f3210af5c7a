"""Confidence-interval confirmation, leader election and ledger formation.

The rule bounds, for every proposer candidate at a level, the number of
its votes that will stay permanent, assuming an adversary with hash
fraction ``beta`` races each voter chain privately.  A leader confirms
when its lower vote bound beats every other candidate's upper bound and
the bound on a fully private, unreleased candidate.

Poisson terms are accumulated iteratively in log space so the numbers
stay stable for private-chain depth estimates up to 1e4 (absolute error
below 1e-12 against a reference CDF).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable

from .blocks import PROPOSER, TRANSACTION
from .chain import ChainState
from .crypto import SignatureScheme
from .ledger import CoinId, Transaction, Utxo, execute_with_fee, total_value


class ConfirmationError(Exception):
    pass


class MissingBlockError(ConfirmationError):
    """A referenced block is not in the local store; sync before building."""


def adversary_depth(mean_depth: float, fork_rate: float, beta: float) -> float:
    """Estimated average depth of a private voter chain racing the public one.

    The public mean vote depth proxies the time since the candidate was
    released; scaling by the hash-power ratio and correcting for public
    forking gives the expected private progress in the same time.
    """
    if not 0.0 <= fork_rate < 1.0:
        raise ValueError("fork rate must lie in [0, 1)")
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 0.5)")
    if mean_depth < 0:
        raise ValueError("mean depth must be >= 0")
    return beta * mean_depth / ((1.0 - fork_rate) * (1.0 - beta))


def _poisson_pmf_prefix(lam: float, d: int) -> list[float]:
    """Poisson pmf values f(0..d; lam), accumulated in log space."""
    if lam < 0:
        raise ValueError("rate must be >= 0")
    if lam == 0.0:
        return [1.0] + [0.0] * d
    log_lam = math.log(lam)
    terms = []
    log_f = -lam
    for k in range(d + 1):
        if k > 0:
            log_f += log_lam - math.log(k)
        terms.append(math.exp(log_f))
    return terms


def vote_permanence(depth: int, private_depth: float, beta: float) -> float:
    """Probability that a vote at this main-chain depth is never reverted.

    Cumulative Poisson mass that the private chain is still behind, minus
    the catch-up mass: for a private chain of length k the adversary must
    still win a deficit of depth + 1 - k, which it does with probability
    (beta / (1 - beta)) ** (depth + 1 - k).
    """
    if depth < 1:
        raise ValueError("vote depth must be >= 1")
    if private_depth < 0:
        raise ValueError("private depth must be >= 0")
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 0.5)")
    ratio = beta / (1.0 - beta)
    log_ratio = math.log(ratio)
    pmf = _poisson_pmf_prefix(private_depth, depth)
    cdf = 0.0
    catch_up = 0.0
    for k, f_k in enumerate(pmf):
        cdf += f_k
        if f_k > 0.0:
            catch_up += math.exp(math.log(f_k) + (depth + 1 - k) * log_ratio)
    return min(1.0, max(0.0, cdf - catch_up))


def quantile_radius(epsilon: float) -> float:
    """Multiplier r such that mu - r * sigma approximates the epsilon-quantile.

    Uses the closed-form approximation of the normal quantile; for
    epsilon too large for that form (about 0.234 and up) the exact
    inverse CDF of the standard library, `statistics.NormalDist().inv_cdf`,
    is used instead.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    log_inv = math.log(1.0 / epsilon**2)
    # the closed form only tracks the lower tail: require ln(1/eps^2) > 1
    # and a positive radicand, otherwise fall back to the exact quantile
    if log_inv <= 1.0 or log_inv - math.log(log_inv) - math.log(2 * math.pi) <= 0.0:
        return -NormalDist().inv_cdf(epsilon)
    return math.sqrt(log_inv - math.log(log_inv) - math.log(2 * math.pi))


@dataclass(frozen=True)
class VoteCandidate:
    digest: bytes
    depths: tuple[int, ...]  # main-chain depth of each vote

    @property
    def votes(self) -> int:
        return len(self.depths)


@dataclass(frozen=True)
class VoteTally:
    """All votes cast on one proposer level, plus confirmation parameters."""

    level: int
    candidates: tuple[VoteCandidate, ...]
    fork_rate: float
    beta: float
    epsilon: float
    m: int

    def __post_init__(self):
        if sum(c.votes for c in self.candidates) > self.m:
            raise ValueError("more votes than voter chains")

    @property
    def mean_depth(self) -> float:
        total = sum(c.votes for c in self.candidates)
        if total == 0:
            return 0.0
        return sum(sum(c.depths) for c in self.candidates) / total


@dataclass(frozen=True)
class CandidateBounds:
    digest: bytes
    votes: int
    mu: float
    sigma: float
    lower: float
    upper: float


@dataclass(frozen=True)
class ConfidenceBounds:
    candidates: tuple[CandidateBounds, ...]
    adversary_upper: float


def candidate_stats(
    depths: Iterable[int], private_depth: float, beta: float
) -> tuple[float, float]:
    """Mean and standard deviation of a candidate's permanent-vote count,
    modelling each vote as an independent Bernoulli of its permanence."""
    memo: dict[int, float] = {}
    mu = 0.0
    var = 0.0
    for d in depths:
        p = memo.get(d)
        if p is None:
            p = vote_permanence(d, private_depth, beta)
            memo[d] = p
        mu += p
        var += p * (1.0 - p)
    return mu, math.sqrt(var)


def confidence_bounds(tally: VoteTally) -> ConfidenceBounds:
    """Per-candidate permanent-vote bounds plus the private-block bound.

    Lower bounds are floored at zero before the adversary's remainder is
    computed, so the private bound never exceeds m.
    """
    radius = quantile_radius(tally.epsilon)
    private_depth = adversary_depth(tally.mean_depth, tally.fork_rate, tally.beta)
    partial = []
    for cand in tally.candidates:
        mu, sigma = candidate_stats(cand.depths, private_depth, tally.beta)
        lower = max(0.0, mu - sigma * radius)
        partial.append((cand, mu, sigma, lower))
    adversary_upper = tally.m - sum(lower for *_ , lower in partial)
    bounds = tuple(
        CandidateBounds(
            digest=cand.digest,
            votes=cand.votes,
            mu=mu,
            sigma=sigma,
            lower=lower,
            upper=lower + adversary_upper,
        )
        for cand, mu, sigma, lower in partial
    )
    return ConfidenceBounds(candidates=bounds, adversary_upper=adversary_upper)


@dataclass(frozen=True)
class LeaderDecision:
    confirmed: bool
    leader: bytes | None
    bounds: ConfidenceBounds


@dataclass(frozen=True)
class ProposerSetDecision:
    confirmed: bool
    candidates: tuple[bytes, ...]
    bounds: ConfidenceBounds


def try_confirm_leader(tally: VoteTally) -> LeaderDecision:
    """Confirm the most-voted candidate when its lower bound clears every
    other candidate's upper bound and the private-block bound.

    Vote-count ties break toward the smaller digest.
    """
    bounds = confidence_bounds(tally)
    if not bounds.candidates:
        return LeaderDecision(False, None, bounds)
    leader = min(bounds.candidates, key=lambda c: (-c.votes, c.digest))
    for other in bounds.candidates:
        if other.digest != leader.digest and leader.lower <= other.upper:
            return LeaderDecision(False, leader.digest, bounds)
    if leader.lower <= bounds.adversary_upper:
        return LeaderDecision(False, leader.digest, bounds)
    return LeaderDecision(True, leader.digest, bounds)


def try_confirm_proposer_set(tally: VoteTally) -> ProposerSetDecision:
    """List-decoding variant: every candidate whose upper bound reaches the
    best lower bound, confirmed once no unreleased private block can enter."""
    bounds = confidence_bounds(tally)
    if not bounds.candidates:
        return ProposerSetDecision(False, (), bounds)
    best_lower = max(c.lower for c in bounds.candidates)
    if bounds.adversary_upper >= best_lower:
        return ProposerSetDecision(False, (), bounds)
    members = tuple(
        c.digest for c in bounds.candidates if c.upper >= best_lower
    )
    return ProposerSetDecision(True, members, bounds)


def make_tally(state: ChainState, level: int, beta: float, epsilon: float) -> VoteTally:
    """Collect main-chain votes and depths for one level of a node's view.

    The fork rate is the instantaneous empirical rate across the node's
    voter chains at call time.
    """
    depths: dict[bytes, list[int]] = {}
    for main_votes, tip_height in zip(state.main_votes, state.voter_tip_heights):
        hit = main_votes.get(level)
        if hit is not None:
            digest, height = hit
            depths.setdefault(digest, []).append(tip_height - height + 1)
    order = {d: i for i, d in enumerate(state.candidates_at(level))}
    candidates = tuple(
        VoteCandidate(digest, tuple(d)) for digest, d in
        sorted(depths.items(), key=lambda kv: order.get(kv[0], len(order)))
    )
    return VoteTally(
        level=level,
        candidates=candidates,
        fork_rate=state.voter_fork_rate(),
        beta=beta,
        epsilon=epsilon,
        m=state.m,
    )


def raw_leader(state: ChainState, level: int) -> bytes | None:
    """Most-voted candidate by current main-chain votes; ties break toward
    the smaller digest."""
    counts = state.votes_by_level.get(level)
    if not counts:
        return None
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


# --- ledger formation ---------------------------------------------------------


def expand_proposer(
    digest: bytes, state: ChainState, included_prp: set[bytes], included_tx: set[bytes]
) -> list[tuple[Transaction, bytes]]:
    """Ledger entries one proposer block adds on top of the included sets.

    Depth first with an explicit stack: a not-yet-included proposer block
    expands its parent, then its referenced proposer blocks in reference
    order, then contributes its not-yet-included transaction blocks in
    reference order.  Both sets are updated in place, so every block
    enters at most once across calls that share them.  Returns
    (transaction, id of its containing transaction block) pairs.
    """
    ledger: list[tuple[Transaction, bytes]] = []
    blocks = state.blocks
    # proposer digests still to visit, and the contents of visited blocks
    # whose transaction blocks come due once everything above them is done
    stack: list = [digest]
    while stack:
        item = stack.pop()
        if isinstance(item, bytes):
            if item == state.proposer_genesis or item in included_prp:
                continue
            block = blocks.get(item)
            if block is None or block.block_type.kind != PROPOSER:
                raise MissingBlockError(f"proposer block {item.hex()} not stored")
            included_prp.add(item)
            stack.append(block.content)
            stack.extend(reversed((block.parent_leaf, *block.content.prp_refs)))
            continue
        for ref in item.tx_refs:
            if ref in included_tx:
                continue
            tx_block = blocks.get(ref)
            if tx_block is None or tx_block.block_type.kind != TRANSACTION:
                raise MissingBlockError(f"transaction block {ref.hex()} not stored")
            included_tx.add(ref)
            ledger.extend((tx, ref) for tx in tx_block.content.txs)
    return ledger


def build_ledger(
    leader_sequence: Iterable[bytes], state: ChainState
) -> list[tuple[Transaction, bytes]]:
    """Expansion of the leader sequence into an ordered tx list.

    Each leader in level order adds what :func:`expand_proposer` gives
    it, so every proposer and transaction block enters at most once.
    Returns (transaction, id of its containing transaction block) pairs
    in ledger order.
    """
    included_prp: set[bytes] = set()
    included_tx: set[bytes] = set()
    ledger: list[tuple[Transaction, bytes]] = []
    for leader in leader_sequence:
        ledger += expand_proposer(leader, state, included_prp, included_tx)
    return ledger


# --- incremental engine for simulation runs -----------------------------------


@dataclass
class LatencySample:
    tx_digest: bytes
    mined_at: float
    confirmed_at: float


class ConfirmationEngine:
    """Incrementally confirms levels of one observer's view over a run.

    Expanding leaders one at a time with shared included-sets produces
    exactly the ledger ``build_ledger`` would build from the whole
    prefix, so the confirmed ledger is prefix-stable by construction.
    The engine also watches already-confirmed levels for leader changes
    (reversals) and keeps a JSON-ready trace of every decision.
    """

    def __init__(
        self,
        state: ChainState,
        beta: float,
        epsilon: float,
        scheme: SignatureScheme,
        initial_utxo: dict[CoinId, Utxo],
        mine_times: dict[bytes, float] | None = None,
    ):
        self.state = state
        self.beta = beta
        self.epsilon = epsilon
        self.scheme = scheme
        self.utxo = dict(initial_utxo)
        self.genesis_total = total_value(initial_utxo)
        # block digest -> mining time; a block missing from it counts as mined at 0
        self.mine_times = {} if mine_times is None else mine_times

        self.leaders: list[bytes] = []
        self.included_prp: set[bytes] = set()
        self.included_tx: set[bytes] = set()
        self.raw_count = 0
        self.sanitized_count = 0
        self.fees: list[int] = []
        self.latency_samples: list[LatencySample] = []
        self.reversals: list[dict] = []
        self._reversed_levels: set[int] = set()
        self.trace: list[dict] = []

    def _expand_leader(self, leader: bytes, now: float) -> None:
        pending = expand_proposer(leader, self.state, self.included_prp, self.included_tx)
        self.raw_count += len(pending)
        for tx, block_digest in pending:
            fee = execute_with_fee(tx, self.utxo, self.scheme)
            if fee is not None:
                self.sanitized_count += 1
                self.fees.append(fee)
                self.latency_samples.append(
                    LatencySample(tx.digest, self.mine_times.get(block_digest, 0.0), now)
                )

    def check_invariants(self) -> None:
        """Raise AssertionError unless the confirmed ledger conserves
        value: its UTXO total plus the fees it collected equals the
        genesis total.  A pass over the UTXO set: for tests, not runs."""
        total, fees = total_value(self.utxo), sum(self.fees)
        if total + fees != self.genesis_total:
            raise AssertionError(
                f"value: UTXO total {total} plus fees {fees}, genesis total {self.genesis_total}"
            )

    def evaluate(self, now: float) -> None:
        """One confirmation pass: extend the confirmed prefix as far as the
        rule allows, then audit confirmed levels for reversals."""
        while True:
            level = len(self.leaders) + 1
            if level > self.state.prp_parent_level:
                break
            tally = make_tally(self.state, level, self.beta, self.epsilon)
            decision = try_confirm_leader(tally)
            self.trace.append(self._trace_record(now, tally, decision))
            if not decision.confirmed:
                break
            self.leaders.append(decision.leader)
            self._expand_leader(decision.leader, now)
        for level0, confirmed_digest in enumerate(self.leaders):
            level = level0 + 1
            if level in self._reversed_levels:
                continue
            current = raw_leader(self.state, level)
            if current is not None and current != confirmed_digest:
                self._reversed_levels.add(level)
                self.reversals.append(
                    {
                        "time": now,
                        "level": level,
                        "confirmed": confirmed_digest.hex(),
                        "usurper": current.hex(),
                    }
                )

    def _trace_record(self, now: float, tally: VoteTally, decision: LeaderDecision) -> dict:
        return {
            "time": now,
            "level": tally.level,
            "alpha": tally.fork_rate,
            "mean_depth": tally.mean_depth,
            "adv_upper": decision.bounds.adversary_upper,
            "candidates": [
                {
                    "digest": c.digest.hex(),
                    "votes": c.votes,
                    "mu": c.mu,
                    "sigma": c.sigma,
                    "lower": c.lower,
                    "upper": c.upper,
                }
                for c in decision.bounds.candidates
            ],
            "verdict": "confirmed" if decision.confirmed else "unconfirmed",
            "leader": decision.leader.hex() if decision.leader else None,
        }
