import math

import numpy as np
import pytest
from scipy import stats

from prismsim.baseline import (
    LCBlock,
    LCState,
    nakamoto_reversal,
    prism_vote_aggregation,
)
from prismsim.config import resolve
from prismsim.crypto import get_scheme
from prismsim.netsim import run

SCHEME = get_scheme("mock")


def test_nakamoto_reversal_matches_scipy_composition():
    # independent assembly of the race formula from scipy pieces
    for k, beta in [(2, 0.3), (6, 0.3), (24, 0.3), (10, 0.45), (4, 0.2)]:
        r = beta / (1 - beta)
        lam = k * r
        expected = 1.0 - sum(
            stats.poisson.pmf(j, lam) * (1 - r ** (k - j)) for j in range(k + 1)
        )
        assert nakamoto_reversal(k, beta) == pytest.approx(expected, abs=1e-12)


def test_nakamoto_reversal_paper_operating_points():
    # ~1e-3 at depth 24 and ~0.45 at depth 2 for a 30% adversary
    assert 5e-4 <= nakamoto_reversal(24, 0.30) <= 2e-3
    assert 0.40 <= nakamoto_reversal(2, 0.30) <= 0.50


def test_nakamoto_reversal_monotone():
    for beta in (0.2, 0.3, 0.45):
        values = [nakamoto_reversal(k, beta) for k in range(1, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))
    for k in (2, 6, 12):
        values = [nakamoto_reversal(k, b) for b in (0.1, 0.2, 0.3, 0.4, 0.45)]
        assert all(b > a for a, b in zip(values, values[1:]))


def mc_nakamoto_race(k, beta, n, rng, cap=40):
    """Monte-Carlo private-race oracle: Poisson head start while the honest
    chain grows k deep, then a biased walk; reaching a tie wins."""
    head = rng.poisson(k * beta / (1 - beta), n)
    deficit = k - head
    wins = int(np.sum(deficit <= 0))
    active = deficit[deficit > 0].astype(np.int64)
    while active.size:
        steps = rng.random(active.size) < beta
        active = np.where(steps, active - 1, active + 1)
        wins += int(np.sum(active == 0))
        active = active[(active > 0) & (active < cap)]
    return wins / n


def test_nakamoto_reversal_against_monte_carlo_grid():
    rng = np.random.default_rng(7)
    n = 10**5
    for k in (1, 2, 4, 6, 10):
        for beta in (0.2, 0.3, 0.4):
            p = nakamoto_reversal(k, beta)
            observed = mc_nakamoto_race(k, beta, n, rng)
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(observed - p) < max(3 * sigma, 3e-4), (k, beta, observed, p)


def test_nakamoto_beta_point_three_k6_monte_carlo_tight():
    rng = np.random.default_rng(11)
    n = 10**6
    p = nakamoto_reversal(6, 0.3)
    observed = mc_nakamoto_race(6, 0.3, n, rng)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(observed - p) < 3 * sigma


def test_nakamoto_domain_errors():
    with pytest.raises(ValueError):
        nakamoto_reversal(0, 0.3)
    with pytest.raises(ValueError):
        nakamoto_reversal(5, 0.5)


def test_vote_aggregation_exact_tail():
    # oracle: scipy's survival function for the same tail
    for m, p in [(1000, 0.45), (2000, 0.45), (101, 0.3), (11, 0.49)]:
        threshold = (m + 1) // 2
        expected = float(stats.binom.sf(threshold - 1, m, p))
        assert prism_vote_aggregation(m, p) == pytest.approx(expected, rel=1e-10)


def test_vote_aggregation_known_values():
    # exact tail at the paper's operating point; the prose rounds it to
    # "about 0.001"
    value = prism_vote_aggregation(1000, 0.45)
    assert value == pytest.approx(8.4655e-4, rel=1e-3)
    assert 5e-4 < value < 1.5e-3
    # doubling the chains crushes the tail by orders of magnitude
    double = prism_vote_aggregation(2000, 0.45)
    assert double < 1e-5
    assert double < value / 100


def test_vote_aggregation_edges():
    assert prism_vote_aggregation(1000, 0.0) == 0.0
    assert prism_vote_aggregation(1000, 1.0) == 1.0
    assert prism_vote_aggregation(1, 0.25) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        prism_vote_aggregation(0, 0.5)
    with pytest.raises(ValueError):
        prism_vote_aggregation(10, 1.5)


# --- longest-chain client ------------------------------------------------------


def lc_config(**overrides):
    base = {
        "protocol": "longest_chain",
        "duration": 60.0,
        "topology": {"nodes": 6, "degree": 4, "delay_s": 0.1},
        "longest_chain": {"rate": 0.5, "block_capacity": 50, "confirm_depth": 3},
        "workload": {"tps": 10.0},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            base[key] = {**base.get(key, {}), **value}
        else:
            base[key] = value
    return resolve(base)


def test_single_node_k1_confirms_every_extension():
    cfg = lc_config(
        topology={"kind": "complete", "nodes": 1},
        longest_chain={"confirm_depth": 1, "rate": 0.5},
        workload={"tps": 5.0},
    )
    report = run(cfg, seed=1).report
    assert report.forking["chain"] == 0.0  # no contention, no forks
    assert report.confirmation["reversals"] == 0
    assert report.blocks["chain"] > 10
    # k=1: every main-chain block confirms as soon as it is observed
    assert report.latency["samples"] > 0


def test_lc_throughput_bounded_by_rate_times_capacity():
    cfg = lc_config(workload={"tps": 200.0}, longest_chain={"rate": 0.5, "block_capacity": 40})
    result = run(cfg, seed=2)
    report = result.report
    # by construction: confirmed txs never outrun mined blocks times capacity
    total_confirmed = len(result.sim.latency_samples)
    assert total_confirmed <= result.sim.block_count * 40
    assert total_confirmed / report.duration <= (result.sim.block_count / report.duration) * 40


def test_lc_forking_rate_tracks_f_delta():
    # f*Delta = 0.1: measured forking should sit near 0.09
    cfg = lc_config(
        duration=400.0,
        topology={"nodes": 10, "degree": 4, "delay_s": 0.15},
        longest_chain={"rate": 0.55, "block_capacity": 20, "confirm_depth": 3},
        workload={"tps": 5.0},
    )
    report = run(cfg, seed=3).report
    assert 0.03 <= report.forking["chain"] <= 0.17


def test_lc_ledger_valid_and_conserving():
    cfg = lc_config(workload={"tps": 30.0})
    report = run(cfg, seed=4).report
    assert report.conservation_ok
    assert report.confirmation["reversals"] == 0


def test_lc_state_reorg_and_tie_break():
    from prismsim.baseline import LC_GENESIS

    state = LCState({}, SCHEME)
    a = LCBlock(parent=LC_GENESIS, txs=(), nonce=1, miner_id=0)
    state.receive_block(a)
    assert state.tip == a.digest
    b = LCBlock(parent=LC_GENESIS, txs=(), nonce=2, miner_id=1)
    state.receive_block(b)
    assert state.tip == a.digest  # first arrival wins the tie
    c = LCBlock(parent=b.digest, txs=(), nonce=3, miner_id=1)
    state.receive_block(c)
    assert state.tip == c.digest  # longer fork overtakes
    assert state.fork_rate() == pytest.approx(1 / 3)


def test_lc_orphan_buffer_drains():
    state = LCState({}, SCHEME)
    from prismsim.baseline import LC_GENESIS

    a = LCBlock(parent=LC_GENESIS, txs=(), nonce=1, miner_id=0)
    b = LCBlock(parent=a.digest, txs=(), nonce=2, miner_id=0)
    state.receive_block(b)  # parent unknown: buffered
    assert state.tip == LC_GENESIS
    state.receive_block(a)
    assert state.tip == b.digest


def test_lc_deep_chain_delivered_tip_first():
    from prismsim.baseline import LC_GENESIS

    chain = []
    parent = LC_GENESIS
    for nonce in range(5000):
        block = LCBlock(parent=parent, txs=(), nonce=nonce, miner_id=0)
        chain.append(block)
        parent = block.digest
    state = LCState({}, SCHEME)
    for block in reversed(chain):
        state.receive_block(block)
    assert not state.orphans and not state.orphan_digests
    assert state.tip == chain[-1].digest and state.tip_chainlen == 5000
