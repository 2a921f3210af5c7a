import math
from itertools import product

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from helpers import (
    KEYS,
    SCHEME,
    Bench,
    forge_proposer,
    forge_tx_block,
    forge_voter,
    genesis_set,
    make_params,
    spend,
)

from prismsim.chain import ChainState
from prismsim.confirmation import (
    ConfirmationEngine,
    MissingBlockError,
    VoteCandidate,
    VoteTally,
    adversary_depth,
    build_ledger,
    candidate_stats,
    confidence_bounds,
    make_tally,
    quantile_radius,
    try_confirm_leader,
    try_confirm_proposer_set,
    vote_permanence,
)
from prismsim.ledger import sanitize


def candidate_lower_bound(depths, private_depth, beta, epsilon):
    """Epsilon-quantile lower bound on permanent votes, floored at zero,
    as ``confidence_bounds`` computes it for each candidate."""
    mu, sigma = candidate_stats(depths, private_depth, beta)
    return max(0.0, mu - sigma * quantile_radius(epsilon))


def confirmed_ledger(state, beta, epsilon, scheme, initial_utxo):
    """Walk levels until the first unconfirmed leader, then build and
    sanitize the ledger of the confirmed prefix: a from-scratch oracle for
    the confirmation engine.

    Returns (leaders, raw ledger, sanitized ledger, final UTXO set).
    """
    leaders = []
    for level in range(1, state.prp_parent_level + 1):
        decision = try_confirm_leader(make_tally(state, level, beta, epsilon))
        if not decision.confirmed:
            break
        leaders.append(decision.leader)
    raw = [tx for tx, _ in build_ledger(leaders, state)]
    sanitized, final = sanitize(raw, dict(initial_utxo), scheme)
    return leaders, raw, sanitized, final


class ListDecodingCapExceeded(Exception):
    """The proposer-set cross product exceeds the ledger cap."""


def is_tx_confirmed(tx, state, beta, epsilon, scheme, initial_utxo, max_ledgers=256):
    """Fast list-decoding confirmation by brute force: True iff the
    transaction survives sanitization in every ledger built from the cross
    product of the per-level confirmed proposer sets."""
    level_sets = []
    for level in range(1, state.prp_parent_level + 1):
        decision = try_confirm_proposer_set(make_tally(state, level, beta, epsilon))
        if not decision.confirmed:
            break
        level_sets.append(decision.candidates)
    if not level_sets:
        return False
    count = math.prod(len(s) for s in level_sets)
    if count > max_ledgers:
        raise ListDecodingCapExceeded(f"{count} ledgers exceed the cap of {max_ledgers}")
    for combo in product(*level_sets):
        raw = [t for t, _ in build_ledger(combo, state)]
        applied, _ = sanitize(raw, dict(initial_utxo), scheme)
        if not any(t.digest == tx.digest for t in applied):
            return False
    return True


# --- private-chain depth estimate ----------------------------------------------


def test_adversary_depth_exact_values():
    assert adversary_depth(2.0, 0.0, 0.3) == pytest.approx(0.6 / 0.7)
    assert adversary_depth(2.0, 0.1, 0.3) == pytest.approx(0.6 / (0.9 * 0.7))


def test_adversary_depth_vanishes_with_beta():
    assert adversary_depth(2.0, 0.0, 1e-9) == pytest.approx(0.0, abs=1e-8)


def test_adversary_depth_domain_errors():
    with pytest.raises(ValueError):
        adversary_depth(2.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        adversary_depth(2.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        adversary_depth(-1.0, 0.0, 0.3)


# --- vote permanence ------------------------------------------------------------


def test_vote_permanence_zero_private_depth_closed_form():
    # Poisson mass collapses to k=0: P = 1 - (beta/(1-beta))**(d+1)
    for beta in (0.2, 0.3, 0.45):
        r = beta / (1 - beta)
        for d in (1, 2, 5):
            assert vote_permanence(d, 0.0, beta) == pytest.approx(1 - r ** (d + 1))


def test_vote_permanence_small_beta_approaches_poisson_cdf():
    for d in (1, 3, 6):
        for lam in (0.5, 2.0):
            expected = stats.poisson.cdf(d, lam)
            assert vote_permanence(d, lam, 1e-9) == pytest.approx(expected, abs=1e-6)


def test_vote_permanence_monotone_in_depth():
    for lam in (0.3, 1.0, 4.0):
        for beta in (0.2, 0.35, 0.49):
            values = [vote_permanence(d, lam, beta) for d in range(1, 40)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)


def test_vote_permanence_matches_scipy_composition():
    # same quantity assembled from scipy pmf/cdf, tolerance 1e-12
    for d, lam, beta in [(3, 0.8, 0.3), (6, 2.0, 0.2), (10, 9.5, 0.45), (5, 1e4, 0.3)]:
        r = beta / (1 - beta)
        expected = stats.poisson.cdf(d, lam) - sum(
            stats.poisson.pmf(k, lam) * r ** (d + 1 - k) for k in range(d + 1)
        )
        expected = min(1.0, max(0.0, expected))
        assert vote_permanence(d, lam, beta) == pytest.approx(expected, abs=1e-12)


def test_vote_permanence_domain_errors():
    with pytest.raises(ValueError):
        vote_permanence(0, 1.0, 0.3)
    with pytest.raises(ValueError):
        vote_permanence(2, -1.0, 0.3)
    with pytest.raises(ValueError):
        vote_permanence(2, 1.0, 0.6)


def mc_race_reversal(d, lam, beta, n, rng, cap=40):
    """Monte-Carlo oracle for the private race: Poisson(lam) head start,
    then a biased random walk; the adversary wins when it makes up a
    deficit of d + 1 - (head start)."""
    head = rng.poisson(lam, n)
    deficit = d + 1 - head
    wins = int(np.sum(deficit <= 0))
    active = deficit[deficit > 0].astype(np.int64)
    while active.size:
        steps = rng.random(active.size) < beta
        active = np.where(steps, active - 1, active + 1)
        wins += int(np.sum(active == 0))
        active = active[(active > 0) & (active < cap)]
    return wins / n


def test_vote_permanence_against_monte_carlo_race():
    rng = np.random.default_rng(2024)
    n = 10**5
    for d in range(1, 7):
        for lam in (0.5, 1.0, 2.0):
            for beta in (0.2, 0.3):
                p_reversal = 1.0 - vote_permanence(d, lam, beta)
                observed = mc_race_reversal(d, lam, beta, n, rng)
                sigma = math.sqrt(max(p_reversal * (1 - p_reversal), 1e-12) / n)
                assert abs(observed - p_reversal) < max(3 * sigma, 2e-4), (
                    d,
                    lam,
                    beta,
                    observed,
                    p_reversal,
                )


# --- confidence bounds -----------------------------------------------------------


def test_quantile_radius_closed_form_vs_exact():
    # mu=100, sigma=5, eps=1e-3: closed form within 0.5 of the exact quantile
    eps = 1e-3
    closed = 100 - 5 * quantile_radius(eps)
    exact = 100 + 5 * ndtri(eps)
    assert abs(closed - exact) < 0.5


def test_quantile_radius_guard_and_fallback():
    # the closed form stops applying near 0.234; above it the radius is
    # the exact quantile, checked against scipy's inverse normal CDF
    for eps in np.linspace(0.2342, 0.99, 757):
        assert quantile_radius(eps) == pytest.approx(-ndtri(eps), rel=1e-14)
    with pytest.raises(ValueError):
        quantile_radius(1.5)


def deep_tally(m=1000, votes=1000, depth=50, beta=0.3, epsilon=1e-3, level=1):
    cand = VoteCandidate(b"\x01" * 32, tuple([depth] * votes))
    return VoteTally(level, (cand,), 0.0, beta, epsilon, m)


def test_bounds_degenerate_when_all_votes_permanent():
    # infinitely deep votes: P ~ 1, sigma ~ 0, lower ~ votes
    tally = deep_tally(m=100, votes=100, depth=500)
    bounds = confidence_bounds(tally)
    cand = bounds.candidates[0]
    assert cand.mu == pytest.approx(100.0, abs=1e-6)
    assert cand.sigma == pytest.approx(0.0, abs=1e-3)
    assert cand.lower == pytest.approx(100.0, abs=1e-2)
    assert bounds.adversary_upper == pytest.approx(0.0, abs=1e-2)


def test_no_votes_leaves_everything_to_the_adversary():
    tally = VoteTally(1, (), 0.0, 0.3, 1e-3, 100)
    bounds = confidence_bounds(tally)
    assert bounds.adversary_upper == 100


def test_lower_bound_monotone_in_any_depth():
    rng = np.random.default_rng(5)
    for _ in range(200):
        depths = list(rng.integers(1, 15, size=rng.integers(1, 30)))
        lam = float(rng.uniform(0, 3))
        beta = float(rng.uniform(0.05, 0.45))
        base = candidate_lower_bound(depths, lam, beta, 1e-3)
        j = int(rng.integers(len(depths)))
        depths[j] += int(rng.integers(1, 5))
        assert candidate_lower_bound(depths, lam, beta, 1e-3) >= base - 1e-9


def test_leader_confirms_with_unanimous_deep_votes():
    decision = try_confirm_leader(deep_tally())
    assert decision.confirmed
    assert decision.leader == b"\x01" * 32


def test_balanced_shallow_candidates_unconfirmed():
    a = VoteCandidate(b"\x01" * 32, tuple([1] * 500))
    b = VoteCandidate(b"\x02" * 32, tuple([1] * 500))
    tally = VoteTally(1, (a, b), 0.0, 0.3, 1e-3, 1000)
    assert not try_confirm_leader(tally).confirmed


def test_zero_candidates_unconfirmed():
    tally = VoteTally(1, (), 0.0, 0.3, 1e-3, 1000)
    decision = try_confirm_leader(tally)
    assert not decision.confirmed and decision.leader is None


def test_leader_tie_breaks_to_smaller_digest():
    a = VoteCandidate(b"\x02" * 32, (500, 500))
    b = VoteCandidate(b"\x01" * 32, (500, 500))
    tally = VoteTally(1, (a, b), 0.0, 0.3, 1e-3, 1000)
    assert try_confirm_leader(tally).leader == b"\x01" * 32


def test_proposer_set_is_singleton_when_leader_confirms():
    tally = deep_tally()
    leader = try_confirm_leader(tally)
    prop_set = try_confirm_proposer_set(tally)
    assert leader.confirmed and prop_set.confirmed
    assert prop_set.candidates == (leader.leader,)


def test_proposer_set_holds_both_balanced_deep_candidates():
    a = VoteCandidate(b"\x01" * 32, tuple([50] * 500))
    b = VoteCandidate(b"\x02" * 32, tuple([50] * 500))
    tally = VoteTally(1, (a, b), 0.0, 0.3, 1e-3, 1000)
    assert not try_confirm_leader(tally).confirmed
    prop_set = try_confirm_proposer_set(tally)
    assert prop_set.confirmed
    assert set(prop_set.candidates) == {a.digest, b.digest}


def test_proposer_set_unconfirmed_when_votes_shallow():
    a = VoteCandidate(b"\x01" * 32, tuple([1] * 600))
    tally = VoteTally(1, (a,), 0.0, 0.3, 1e-3, 1000)
    assert not try_confirm_proposer_set(tally).confirmed


def test_leader_implies_singleton_set_over_random_tallies():
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = 60
        n_cands = int(rng.integers(1, 4))
        remaining = m
        cands = []
        for i in range(n_cands):
            v = int(rng.integers(0, remaining + 1))
            remaining -= v
            depths = tuple(int(d) for d in rng.integers(1, 12, size=v))
            cands.append(VoteCandidate(bytes([i + 1]) * 32, depths))
        tally = VoteTally(
            1, tuple(cands), float(rng.uniform(0, 0.3)), 0.3, 1e-3, m
        )
        leader = try_confirm_leader(tally)
        if leader.confirmed:
            prop_set = try_confirm_proposer_set(tally)
            assert prop_set.confirmed
            assert prop_set.candidates == (leader.leader,)


# --- ledger formation -------------------------------------------------------------


def figure_ledger_fixture():
    """Two-level DAG mirroring the worked ledger-formation example: one
    transaction per transaction block, duplicate a, conflicting c and d."""
    params = make_params(m=2)
    state = ChainState(2)
    coins = list(genesis_set(4).values())
    tx_a = spend(coins[0], KEYS[1])
    tx_b = spend(coins[1], KEYS[2])
    conflict_coin = coins[2]
    tx_d = spend(conflict_coin, KEYS[3])
    tx_c = spend(conflict_coin, KEYS[4])  # conflicts with d

    t_a1 = forge_tx_block(params, [tx_a], miner_id=1)
    t_a2 = forge_tx_block(params, [tx_a], miner_id=2)  # second block, same tx
    t_b = forge_tx_block(params, [tx_b], miner_id=3)
    t_d = forge_tx_block(params, [tx_d], miner_id=4)
    t_c = forge_tx_block(params, [tx_c], miner_id=5)

    genesis = state.proposer_genesis
    leader1 = forge_proposer(params, genesis, 1, tx_refs=[t_a1.digest], miner_id=1)
    right1 = forge_proposer(params, genesis, 1, tx_refs=[t_a2.digest, t_b.digest], miner_id=2)
    leader2 = forge_proposer(
        params, right1.digest, 2, prp_refs=[leader1.digest], tx_refs=[t_d.digest, t_c.digest]
    )
    for block in (t_a1, t_a2, t_b, t_d, t_c, leader1, right1, leader2):
        state.receive_block(block)
    txs = {"a": tx_a, "b": tx_b, "c": tx_c, "d": tx_d}
    utxo = genesis_set(4)
    return state, [leader1.digest, leader2.digest], txs, utxo


def test_build_ledger_matches_figure_trace():
    state, leaders, txs, _ = figure_ledger_fixture()
    ledger = [tx for tx, _ in build_ledger(leaders, state)]
    names = {txs[k].digest: k for k in txs}
    assert [names[t.digest] for t in ledger] == ["a", "a", "b", "d", "c"]


def test_sanitize_discards_duplicate_and_conflict():
    state, leaders, txs, utxo = figure_ledger_fixture()
    ledger = [tx for tx, _ in build_ledger(leaders, state)]
    applied, _ = sanitize(ledger, dict(utxo), SCHEME)
    names = {txs[k].digest: k for k in txs}
    assert [names[t.digest] for t in applied] == ["a", "b", "d"]


def test_single_leader_single_tx_block():
    params = make_params(m=2)
    state = ChainState(2)
    coins = list(genesis_set(3).values())
    txs = [spend(c, KEYS[1]) for c in coins]
    t = forge_tx_block(params, txs)
    leader = forge_proposer(params, state.proposer_genesis, 1, tx_refs=[t.digest])
    state.receive_block(t)
    state.receive_block(leader)
    ledger = [tx for tx, _ in build_ledger([leader.digest], state)]
    assert [x.digest for x in ledger] == [x.digest for x in txs]


def test_build_ledger_missing_block_errors():
    """A reference to a block that is not stored, or is stored as another
    kind, cannot be expanded."""
    params = make_params(m=2)
    state = ChainState(2)
    stored = forge_proposer(params, state.proposer_genesis, 1)
    voter = forge_voter(params, 0, state.voter_genesis[0])
    for block in (stored, voter):
        state.receive_block(block)
    for refs in (
        {"tx_refs": [b"\x77" * 32]},
        {"tx_refs": [stored.digest]},  # a proposer block named as a transaction block
        {"prp_refs": [voter.digest]},  # a voter block named as a proposer block
    ):
        leader = forge_proposer(params, stored.digest, 2, **refs)
        assert "proposer_stored" in state.receive_block(leader)
        with pytest.raises(MissingBlockError):
            build_ledger([leader.digest], state)


def test_build_ledger_on_deep_proposer_chain():
    """5000 proposer levels expand without recursing once per level; the
    level-1 transaction block still comes first."""
    params = make_params(m=1)
    state = ChainState(1)
    coins = list(genesis_set(2).values())
    first = forge_tx_block(params, [spend(coins[0], KEYS[1])])
    last = forge_tx_block(params, [spend(coins[1], KEYS[2])])
    state.receive_block(first)
    state.receive_block(last)
    tip = state.proposer_genesis
    for level in range(1, 5001):
        refs = {1: [first.digest], 5000: [last.digest]}.get(level, [])
        block = forge_proposer(params, tip, level, tx_refs=refs)
        state.receive_block(block)
        tip = block.digest
    ledger = build_ledger([tip], state)
    assert [ref for _, ref in ledger] == [first.digest, last.digest]

def reference_expansion(leaders, state):
    """Brute-force DAG-walk oracle written independently from the
    iterative engine: parent first, then proposer references in order,
    then own transaction blocks in order, each block once."""
    seen_prp, seen_tx, out = set(), set(), []

    def visit(d):
        if d == state.proposer_genesis or d in seen_prp:
            return
        seen_prp.add(d)
        block = state.blocks[d]
        visit(block.parent_leaf)
        for r in block.content.prp_refs:
            visit(r)
        for r in block.content.tx_refs:
            if r not in seen_tx:
                seen_tx.add(r)
                out.extend(state.blocks[r].content.txs)

    for d in leaders:
        visit(d)
    return out


def random_dag_state(rng, levels=4):
    params = make_params(m=2)
    state = ChainState(2)
    coins = list(genesis_set(60).values())
    tx_blocks = []
    coin_iter = iter(coins)
    all_blocks = []
    level_blocks = {0: [state.proposer_genesis]}
    leaders = []
    for level in range(1, levels + 1):
        level_blocks[level] = []
        for _ in range(int(rng.integers(1, 3))):
            n_txb = int(rng.integers(0, 3))
            refs = []
            for _ in range(n_txb):
                txs = [spend(next(coin_iter), KEYS[int(rng.integers(8))]) for _ in range(2)]
                t = forge_tx_block(params, txs, miner_id=int(rng.integers(100)))
                tx_blocks.append(t)
                all_blocks.append(t)
                refs.append(t.digest)
            parent = level_blocks[level - 1][int(rng.integers(len(level_blocks[level - 1])))]
            older = [
                b for lvl in range(1, level) for b in level_blocks[lvl]
            ]
            prp_refs = [b for b in older if rng.random() < 0.4]
            block = forge_proposer(
                params, parent, level, prp_refs=prp_refs, tx_refs=refs,
                miner_id=int(rng.integers(100)),
            )
            level_blocks[level].append(block.digest)
            all_blocks.append(block)
        leaders.append(level_blocks[level][0])
    for b in all_blocks:
        state.receive_block(b)
    return state, leaders


def test_build_ledger_matches_reference_on_random_dags():
    rng = np.random.default_rng(71)
    for _ in range(25):
        state, leaders = random_dag_state(rng)
        got = [t.digest for t, _ in build_ledger(leaders, state)]
        want = [t.digest for t in reference_expansion(leaders, state)]
        assert got == want


def test_build_ledger_deterministic_and_prefix_stable():
    rng = np.random.default_rng(73)
    state, leaders = random_dag_state(rng, levels=5)
    once = [t.digest for t, _ in build_ledger(leaders, state)]
    twice = [t.digest for t, _ in build_ledger(leaders, state)]
    assert once == twice
    prefix = [t.digest for t, _ in build_ledger(leaders[:3], state)]
    assert once[: len(prefix)] == prefix


# --- end-to-end confirmation -------------------------------------------------------


def voting_bench(m=20, beta=0.3, epsilon=1e-3):
    bench = Bench(m=m, f_v=1.0, f_t=1.0, f_p=1.0, seed=101)
    return bench, beta, epsilon


def deepen_all_chains(bench, rounds):
    for _ in range(rounds):
        for i in range(bench.params.m):
            bench.mine("voter", chain_index=i)


def test_confirmed_ledger_empty_chain():
    bench, beta, eps = voting_bench()
    utxo = genesis_set(4)
    leaders, raw, sanitized, _ = confirmed_ledger(bench.state, beta, eps, SCHEME, utxo)
    assert leaders == [] and raw == [] and sanitized == []


def test_confirmed_ledger_matches_sequential_oracle():
    bench, beta, eps = voting_bench()
    utxo = genesis_set(12)
    coins = list(utxo.values())
    for c in coins[:6]:
        bench.state.receive_transaction(spend(c, KEYS[1]), 0.0, SCHEME)
    bench.mine("transaction")
    bench.mine("proposer")  # level 1 references the tx block
    for c in coins[6:]:
        bench.state.receive_transaction(spend(c, KEYS[2]), 0.0, SCHEME)
    bench.mine("transaction")
    bench.mine("proposer")  # level 2
    bench.mine("proposer")  # level 3
    deepen_all_chains(bench, 12)  # deep unanimous votes on all levels

    leaders, raw, sanitized, final = confirmed_ledger(bench.state, beta, eps, SCHEME, utxo)
    assert len(leaders) == 3
    expected_applied, expected_final = sanitize(raw, dict(utxo), SCHEME)
    assert [t.digest for t in sanitized] == [t.digest for t in expected_applied]
    assert final == expected_final
    assert len(sanitized) == 12


def test_prefix_rule_stops_at_unconfirmed_level():
    bench, beta, eps = voting_bench()
    utxo = genesis_set(6)
    coins = list(utxo.values())
    for c in coins[:3]:
        bench.state.receive_transaction(spend(c, KEYS[1]), 0.0, SCHEME)
    bench.mine("transaction")
    bench.mine("proposer")  # level 1
    deepen_all_chains(bench, 10)  # level 1 well voted
    for c in coins[3:]:
        bench.state.receive_transaction(spend(c, KEYS[2]), 0.0, SCHEME)
    bench.mine("transaction")
    bench.mine("proposer")  # level 2, votes stay shallow
    bench.mine("voter", chain_index=0)

    leaders, raw, sanitized, _ = confirmed_ledger(bench.state, beta, eps, SCHEME, utxo)
    assert len(leaders) == 1
    assert len(sanitized) == 3  # only the level-1 closure


def test_is_tx_confirmed_collapses_to_membership_when_singletons():
    bench, beta, eps = voting_bench()
    utxo = genesis_set(8)
    coins = list(utxo.values())
    txs = [spend(c, KEYS[3]) for c in coins]
    for t in txs[:4]:
        bench.state.receive_transaction(t, 0.0, SCHEME)
    bench.mine("transaction")
    bench.mine("proposer")
    deepen_all_chains(bench, 12)
    _, _, sanitized, _ = confirmed_ledger(bench.state, beta, eps, SCHEME, utxo)
    confirmed_ids = {t.digest for t in sanitized}
    for t in txs:
        assert is_tx_confirmed(t, bench.state, beta, eps, SCHEME, utxo) == (
            t.digest in confirmed_ids
        )


def first_stored_tx(state):
    """The first transaction of the first transaction block stored."""
    blocks = state.blocks.values()
    return next(b for b in blocks if b.block_type.kind == "transaction").content.txs[0]


def two_way_level_state(tx_factory):
    """Level 1 has two balanced deep candidates; returns state and both
    candidates' tx payload choices via tx_factory(kind)."""
    m = 40
    params = make_params(m=m)
    state = ChainState(m)
    utxo = genesis_set(8)
    tx_left, tx_right = tx_factory(utxo)

    t_left = forge_tx_block(params, tx_left, miner_id=1)
    t_right = forge_tx_block(params, tx_right, miner_id=2)
    left = forge_proposer(params, state.proposer_genesis, 1, tx_refs=[t_left.digest], miner_id=1)
    right = forge_proposer(params, state.proposer_genesis, 1, tx_refs=[t_right.digest], miner_id=2)
    for b in (t_left, t_right, left, right):
        state.receive_block(b)

    # split the voter chains between the two candidates, then deepen
    from prismsim.mining import MinerContext, finish_mining
    from helpers import u_for

    for i in range(m):
        target = left.digest if i < m // 2 else right.digest
        parent = state.voter_genesis[i]
        for depth in range(30):
            ctx = MinerContext(
                miner_id=3,
                prp_parent=left.digest,
                prp_parent_level=1,
                vt_parent=[
                    parent if j == i else state.voter_tips[j] for j in range(m)
                ],
                txs=[],
                unref_prp_refs=(),
                unref_tx_refs=(),
                votes=[[(1, target)] if depth == 0 and j == i else [] for j in range(m)],
            )
            block = finish_mining(ctx, params, u_for(params, "voter", i), 9000 + i * 100 + depth)
            state.receive_block(block)
            parent = block.digest
    return state, utxo


def test_is_tx_confirmed_two_way_level():
    def shared_tx(utxo):
        coins = list(utxo.values())
        t = spend(coins[0], KEYS[5])
        other = spend(coins[1], KEYS[6])
        return [t, other], [t]  # tx present and valid in both ledgers

    state, utxo = two_way_level_state(shared_tx)
    prop_set = try_confirm_proposer_set(make_tally(state, 1, 0.3, 1e-3))
    assert prop_set.confirmed and len(prop_set.candidates) == 2
    shared = first_stored_tx(state)
    assert is_tx_confirmed(shared, state, 0.3, 1e-3, SCHEME, utxo)


def test_is_tx_confirmed_rejects_double_spend_split():
    def conflicting(utxo):
        coins = list(utxo.values())
        a = spend(coins[0], KEYS[5])
        b = spend(coins[0], KEYS[6])  # double spend of the same coin
        return [a], [b]

    state, utxo = two_way_level_state(conflicting)
    left_tx = first_stored_tx(state)
    assert not is_tx_confirmed(left_tx, state, 0.3, 1e-3, SCHEME, utxo)


def test_list_decoding_cap_enforced():
    def shared_tx(utxo):
        coins = list(utxo.values())
        t = spend(coins[0], KEYS[5])
        return [t], [t]

    state, utxo = two_way_level_state(shared_tx)
    tx = first_stored_tx(state)
    with pytest.raises(ListDecodingCapExceeded):
        is_tx_confirmed(tx, state, 0.3, 1e-3, SCHEME, utxo, max_ledgers=1)


def test_engine_confirms_and_traces():
    bench, beta, eps = voting_bench()
    utxo = genesis_set(6)
    coins = list(utxo.values())
    for c in coins:
        bench.state.receive_transaction(spend(c, KEYS[1]), 0.0, SCHEME)
    tx_block = bench.mine("transaction")
    bench.mine("proposer")
    mine_times = {tx_block.digest: 3.5}
    engine = ConfirmationEngine(bench.state, beta, eps, SCHEME, utxo, mine_times=mine_times)
    engine.evaluate(5.0)
    assert engine.leaders == []  # shallow votes
    deepen_all_chains(bench, 12)
    engine.evaluate(30.0)
    assert len(engine.leaders) == 1
    assert engine.sanitized_count == 6
    assert all(s.mined_at == 3.5 and s.confirmed_at == 30.0 for s in engine.latency_samples)
    assert engine.trace[-1]["verdict"] == "confirmed"
    assert engine.reversals == []
    # engine ledger equals the from-scratch path
    leaders, raw, sanitized, _ = confirmed_ledger(bench.state, beta, eps, SCHEME, utxo)
    assert leaders == engine.leaders
    assert engine.raw_count == len(raw)
    assert engine.sanitized_count == len(sanitized)
