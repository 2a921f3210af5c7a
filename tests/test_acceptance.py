"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured values (run with ``pytest -v -s tests/test_acceptance.py``).

Statistical criteria use fixed seeds; simulation arms that are compared
against each other share seeds (common random numbers).  Throughput
ratios are computed from the checkpoint series normalized to the last
confirmation instant, which removes the confirmation-horizon tail noise
from single runs.
"""
import math
import time

import numpy as np
from scipy import stats

from prismsim.baseline import nakamoto_reversal, prism_vote_aggregation
from prismsim.cli import run_batch
from prismsim.config import resolve
from prismsim.crypto import get_scheme
from prismsim.ledger import sanitize, sanitize_parallel
from prismsim.netsim import run

SCHEME = get_scheme("mock")


def _ok(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


# --- helpers -------------------------------------------------------------------


def horizon_tps(timeseries, steady_start: float) -> float:
    """Sanitized confirmations per second between the steady-state cutoff
    and the last confirmation instant."""
    start_row = next(r for r in timeseries if r["time"] >= steady_start)
    last_row = start_row
    for row in timeseries:
        if row["confirmed_sanitized"] > last_row["confirmed_sanitized"]:
            last_row = row
    span = last_row["time"] - start_row["time"]
    if span <= 0:
        return 0.0
    return (last_row["confirmed_sanitized"] - start_row["confirmed_sanitized"]) / span


def pooled_median_latency(results) -> float:
    values = []
    for result in results:
        steady = result.report.steady_state_start
        samples = (
            result.sim.engine.latency_samples
            if hasattr(result.sim, "engine")
            else result.sim.latency_samples
        )
        values.extend(
            s.confirmed_at - s.mined_at for s in samples if s.mined_at >= steady
        )
    assert values, "no latency samples collected"
    return float(np.median(values))


def pooled_horizon_tps(results) -> float:
    return float(
        np.mean(
            [horizon_tps(r.sim.timeseries, r.report.steady_state_start) for r in results]
        )
    )


# --- criterion 1 -----------------------------------------------------------------


def test_criterion_01_nakamoto_depths():
    t0 = time.time()
    deep = nakamoto_reversal(24, 0.30)
    shallow = nakamoto_reversal(2, 0.30)
    assert 5e-4 <= deep <= 2e-3
    assert 0.40 <= shallow <= 0.50
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(
        "criterion 1 (Nakamoto depths)",
        f"reversal(24, 0.30)={deep:.3e} in [5e-4, 2e-3]; "
        f"reversal(2, 0.30)={shallow:.4f} in [0.40, 0.50]; {elapsed:.2f}s",
    )


# --- criterion 2 -----------------------------------------------------------------


def test_criterion_02_vote_aggregation():
    t0 = time.time()
    value = prism_vote_aggregation(1000, 0.45)
    # independent exact-tail oracle
    oracle = float(stats.binom.sf(499, 1000, 0.45))
    assert abs(value - oracle) / oracle < 1e-10
    # the exact tail is 8.4655e-4; the spec sheet's printed 8.8e-4 is off
    # by 3.8% against its own oracle (see decisions ledger), so the exact
    # value is asserted here, within 1% of the oracle and consistent with
    # the prose figure "about 0.001"
    assert abs(value - 8.4655e-4) / 8.4655e-4 < 0.01
    assert 5e-4 < value < 1.5e-3
    double = prism_vote_aggregation(2000, 0.45)
    # exact tail 4.07e-6 (prose rounds to 1e-6): orders-of-magnitude drop
    assert double < 1e-5
    assert double < value / 100
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(
        "criterion 2 (vote aggregation)",
        f"tail(1000, 0.45)={value:.4e} == exact oracle; tail(2000)={double:.2e}; {elapsed:.2f}s",
    )


# --- criterion 3 -----------------------------------------------------------------


SAFETY_CFG = {
    "duration": 25.0,
    "checkpoint_interval": 0.5,
    "topology": {"nodes": 6, "degree": 4, "delay_s": 0.1},
    "prism": {
        "m": 100,
        "rate_voter_per_chain": 0.5,
        "rate_tx": 0.5,
        "rate_prop": 0.4,
        "tx_block_capacity": 50,
        "beta": 0.30,
        "epsilon": 1e-3,
        "vote_rule": "most_voted",
    },
    "workload": {"tps": 2.0},
    "adversary": {
        "strategy": "private_double_spend",
        "fraction": 0.30,
        "target_level": 1,
        "release_timeout_fraction": 0.85,
    },
}


def _count_safety_violations(reports) -> tuple[int, int]:
    violations = sum(1 for r in reports if r["confirmation"]["reversals"] > 0)
    confirmed = sum(1 for r in reports if r["confirmation"]["max_confirmed_level"] >= 1)
    return violations, confirmed


def test_criterion_03_confirmation_safety():
    t0 = time.time()
    cfg = resolve(SAFETY_CFG)
    runs = 300
    aggregate, reports = run_batch(cfg, list(range(runs)), workers=2)
    violations, confirmed = _count_safety_violations(reports)
    released = sum(1 for r in reports if r["attack"]["released"])
    assert confirmed >= 0.95 * runs, f"only {confirmed}/{runs} runs reached confirmation"
    if violations > 0:
        # escalation path: a reversal within epsilon is possible; rerun at
        # 3000 seeds and bound the count at 3 + 3*sqrt(3)
        aggregate, reports = run_batch(cfg, list(range(3000)), workers=2)
        violations, confirmed = _count_safety_violations(reports)
        assert violations <= 3 + math.ceil(3 * math.sqrt(3)), (
            f"{violations} reversals in 3000 runs exceed the epsilon budget"
        )
    elapsed = time.time() - t0
    assert elapsed < 1800
    _ok(
        "criterion 3 (confirmation safety)",
        f"{violations} post-confirmation reversals in {runs} runs "
        f"({confirmed} confirmed, {released} attacks released); {elapsed:.0f}s",
    )


# --- criterion 4 -----------------------------------------------------------------


LATENCY_CFG = {
    "duration": 150.0,
    "checkpoint_interval": 0.25,
    "topology": {"nodes": 10, "degree": 4, "delay_s": 0.12},
    "prism": {
        "m": 100,
        "rate_voter_per_chain": 0.25,
        "rate_tx": 2.0,
        "rate_prop": 0.4,
        "tx_block_capacity": 50,
        "beta": 0.30,
        "epsilon": 1e-3,
        "vote_rule": "most_voted",
    },
    "workload": {"tps": 20.0},
}


def matched_lc_depth(beta: float, epsilon: float) -> int:
    k = 1
    while nakamoto_reversal(k, beta) > epsilon:
        k += 1
    return k


def test_criterion_04_latency_decoupling():
    t0 = time.time()
    seeds = [1, 2, 3]
    m100 = [run(resolve(LATENCY_CFG), seed=s) for s in seeds]
    cfg200 = resolve({**LATENCY_CFG, "prism": {**LATENCY_CFG["prism"], "m": 200}})
    m200 = [run(cfg200, seed=s) for s in seeds]
    med100 = pooled_median_latency(m100)
    med200 = pooled_median_latency(m200)
    assert med200 <= med100, f"m=200 median {med200:.2f}s > m=100 median {med100:.2f}s"

    k = matched_lc_depth(0.30, 1e-3)
    lc_cfg = resolve(
        {
            "protocol": "longest_chain",
            "duration": 400.0,
            "topology": LATENCY_CFG["topology"],
            "longest_chain": {"rate": 0.25, "block_capacity": 50, "confirm_depth": k},
            "workload": {"tps": 20.0},
        }
    )
    lc = [run(lc_cfg, seed=s) for s in seeds]
    lc_median = pooled_median_latency(lc)
    ratio = med100 / lc_median
    assert ratio < 0.2, f"prism/lc latency ratio {ratio:.3f} >= 0.2"
    elapsed = time.time() - t0
    assert elapsed < 1200
    _ok(
        "criterion 4 (latency decoupling)",
        f"median m=100 {med100:.1f}s >= m=200 {med200:.1f}s; "
        f"lc k={k} median {lc_median:.1f}s, ratio {ratio:.3f} < 0.2; {elapsed:.0f}s",
    )


# --- criterion 5 -----------------------------------------------------------------


THROUGHPUT_CFG = {
    "duration": 150.0,
    "checkpoint_interval": 0.5,
    "topology": {"nodes": 8, "degree": 4, "delay_s": 0.1},
    "prism": {
        "m": 20,
        "rate_voter_per_chain": 0.5,
        "rate_tx": 1.0,
        "rate_prop": 0.6,
        "tx_block_capacity": 50,
        "beta": 0.30,
        "epsilon": 1e-3,
        "vote_rule": "most_voted",
    },
    "workload": {"tps": 150.0},
}


def pooled_tree_forking(results) -> tuple[float, float, float]:
    """(voter rate, proposer rate, combined rate) pooled over runs.

    Pooling block counts across seeds keeps the estimator fine enough to
    resolve a 0.02 shift; single-run proposer trees hold too few blocks.
    """
    v_total = v_main = p_total = p_main = 0
    for result in results:
        state = result.sim.nodes[result.sim.observer].state
        v_total += len(state.voter_heights)
        v_main += sum(state.voter_tip_heights)
        p_total += len(state.prp_levels)
        p_main += state.prp_parent_level
    voter = 1.0 - v_main / v_total
    proposer = 1.0 - p_main / p_total
    combined = 1.0 - (v_main + p_main) / (v_total + p_total)
    return voter, proposer, combined


def test_criterion_05_throughput_decoupling():
    t0 = time.time()
    seeds = [1, 2, 3, 4]
    base = [run(resolve(THROUGHPUT_CFG), seed=s) for s in seeds]
    doubled_cfg = resolve(
        {**THROUGHPUT_CFG, "prism": {**THROUGHPUT_CFG["prism"], "rate_tx": 2.0}}
    )
    doubled = [run(doubled_cfg, seed=s) for s in seeds]
    tps_base = pooled_horizon_tps(base)
    tps_doubled = pooled_horizon_tps(doubled)
    ratio = tps_doubled / tps_base
    assert 2.0 * 0.85 <= ratio <= 2.0 * 1.15, f"throughput ratio {ratio:.2f} not 2x +-15%"
    v_base, p_base, c_base = pooled_tree_forking(base)
    v_doubled, p_doubled, c_doubled = pooled_tree_forking(doubled)
    voter_shift = abs(v_doubled - v_base)
    combined_shift = abs(c_doubled - c_base)
    assert voter_shift < 0.02, f"voter forking moved by {voter_shift:.3f}"
    assert combined_shift < 0.02, f"tree forking moved by {combined_shift:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 600
    _ok(
        "criterion 5 (throughput decoupling)",
        f"sanitized tps {tps_base:.1f} -> {tps_doubled:.1f} (x{ratio:.2f}); "
        f"forking shift voter {voter_shift:.4f}, combined {combined_shift:.4f} "
        f"(proposer-only {abs(p_doubled - p_base):.4f}); {elapsed:.0f}s",
    )


# --- criterion 6 -----------------------------------------------------------------


def test_criterion_06_forking_model():
    t0 = time.time()
    topology = {"nodes": 20, "degree": 4, "delay_s": 0.12}
    probe = resolve({"topology": topology})
    from prismsim.netsim import build_topology

    topo = build_topology(probe, seed=1)
    voter_bytes = probe["sizes"]["block_overhead_bytes"] + probe["sizes"]["bytes_per_ref"]
    delta = topo.mean_hops * (topology["delay_s"] + voter_bytes / topo.bandwidth)
    f_v = 0.1 / delta
    cfg = resolve(
        {
            "duration": 240.0,
            "topology": topology,
            "prism": {
                "m": 20,
                "rate_voter_per_chain": f_v,
                "rate_tx": 0.5,
                "rate_prop": 0.2,
            },
            "workload": {"tps": 5.0},
        }
    )
    result = run(cfg, seed=1)
    alpha = result.report.forking["voter"]
    assert 0.05 <= alpha <= 0.15, f"voter forking {alpha:.3f} outside [0.05, 0.15]"
    elapsed = time.time() - t0
    assert elapsed < 300
    _ok(
        "criterion 6 (forking model)",
        f"f*delta=0.1 (f_v={f_v:.3f}/s, delta={delta:.3f}s): measured alpha={alpha:.3f} "
        f"in [0.05, 0.15]; {elapsed:.0f}s",
    )


# --- criterion 7 -----------------------------------------------------------------


CENSORSHIP_CFG = {
    **THROUGHPUT_CFG,
    # many small transaction blocks: the throughput ratio is estimated from
    # honest-vs-total block counts, so resolution scales with block count
    "prism": {**THROUGHPUT_CFG["prism"], "rate_tx": 8.0, "tx_block_capacity": 7},
}


def test_criterion_07_censorship():
    t0 = time.time()
    seeds = [1, 2, 3, 4]
    free = [run(resolve(CENSORSHIP_CFG), seed=s) for s in seeds]
    censored_cfg = resolve(
        {**CENSORSHIP_CFG, "adversary": {"strategy": "censorship", "fraction": 0.25}}
    )
    censored = [run(censored_cfg, seed=s) for s in seeds]
    ratio = pooled_horizon_tps(censored) / pooled_horizon_tps(free)
    assert 0.70 <= ratio <= 0.80, f"censorship throughput ratio {ratio:.3f}"
    lat_free = pooled_median_latency(free)
    lat_censored = pooled_median_latency(censored)
    lat_shift = abs(lat_censored - lat_free) / lat_free
    assert lat_shift <= 0.20, f"latency moved {lat_shift:.2%} under censorship"
    elapsed = time.time() - t0
    assert elapsed < 600
    _ok(
        "criterion 7 (censorship)",
        f"throughput ratio {ratio:.3f} in [0.70, 0.80]; latency {lat_free:.1f}s -> "
        f"{lat_censored:.1f}s ({lat_shift:+.1%}); {elapsed:.0f}s",
    )


# --- criterion 8 -----------------------------------------------------------------


BALANCING_CFG = {
    "duration": 150.0,
    "checkpoint_interval": 0.25,
    "topology": {"nodes": 8, "degree": 4, "delay_s": 0.1},
    "prism": {
        "m": 50,
        "rate_voter_per_chain": 0.4,
        "rate_tx": 1.0,
        "rate_prop": 0.4,
        "tx_block_capacity": 50,
        "beta": 0.30,
        "epsilon": 1e-3,
        "vote_rule": "most_voted",
    },
    "workload": {"tps": 40.0},
}


def test_criterion_08_balancing():
    t0 = time.time()
    seeds = [1, 2, 3, 4]
    arms = {}
    for fraction in (0.0, 0.1, 0.25):
        overrides = dict(BALANCING_CFG)
        if fraction > 0:
            overrides = {
                **BALANCING_CFG,
                "adversary": {"strategy": "balancing", "fraction": fraction},
            }
        arms[fraction] = [run(resolve(overrides), seed=s) for s in seeds]
    medians = {f: pooled_median_latency(results) for f, results in arms.items()}
    assert medians[0.0] <= medians[0.1] <= medians[0.25], f"latency not monotone: {medians}"
    tps = {f: pooled_horizon_tps(results) for f, results in arms.items()}
    for fraction in (0.1, 0.25):
        shift = abs(tps[fraction] - tps[0.0]) / tps[0.0]
        assert shift <= 0.10, f"throughput moved {shift:.2%} at fraction {fraction}"

    k = matched_lc_depth(0.30, 1e-3)
    lc_cfg = resolve(
        {
            "protocol": "longest_chain",
            "duration": 400.0,
            "topology": BALANCING_CFG["topology"],
            "longest_chain": {"rate": 0.4, "block_capacity": 50, "confirm_depth": k},
            "workload": {"tps": 20.0},
        }
    )
    lc_median = pooled_median_latency([run(lc_cfg, seed=s) for s in seeds[:2]])
    ratio = medians[0.25] / lc_median
    assert ratio < 0.5, f"balanced prism latency ratio {ratio:.3f} >= 0.5 of baseline"
    elapsed = time.time() - t0
    assert elapsed < 900
    _ok(
        "criterion 8 (balancing)",
        f"median latency {medians[0.0]:.1f} <= {medians[0.1]:.1f} <= {medians[0.25]:.1f}s; "
        f"throughput shifts <=10%; prism@0.25 / lc = {ratio:.3f} < 0.5; {elapsed:.0f}s",
    )


# --- criterion 9 -----------------------------------------------------------------


def test_criterion_09_spam_mitigation():
    t0 = time.time()
    uniform_cfg = resolve(
        {
            "duration": 30.0,
            "topology": {"kind": "regular", "nodes": 20, "degree": 4, "delay_s": 0.12},
            "prism": {"m": 10, "rate_voter_per_chain": 0.3, "rate_tx": 160.0, "rate_prop": 0.2},
            "workload": {"tps": 0.0},
            "spam": {"enabled": True, "tps": 2.0, "jitter": {"kind": "uniform", "max_s": 5.0}},
        }
    )
    uniform = run(uniform_cfg, seed=1).report.spam
    assert uniform["normalized"] is not None and uniform["normalized"] <= 0.25

    delta = 2.0
    expo_cfg = resolve(
        {
            "duration": 50.0,
            "topology": {"kind": "regular", "nodes": 20, "degree": 4, "delay_s": 0.6},
            "prism": {"m": 10, "rate_voter_per_chain": 0.3, "rate_tx": 100.0, "rate_prop": 0.2},
            "workload": {"tps": 0.0},
            "spam": {"enabled": True, "tps": 2.0, "jitter": {"kind": "exponential", "mean_s": 10.0}},
        }
    )
    expo = run(expo_cfg, seed=1).report.spam
    assert expo["normalized"] is not None and expo["normalized"] <= 0.24

    # the analytic bound column is the exact formula
    from prismsim.adversary import spam_bound_exponential

    for mean_s in (2.0, 5.0, 10.0, 20.0):
        assert spam_bound_exponential(1.0 / mean_s, delta) == 1.0 - math.exp(-delta / mean_s)
    elapsed = time.time() - t0
    assert elapsed < 600
    _ok(
        "criterion 9 (spam mitigation)",
        f"uniform J=5s normalized={uniform['normalized']:.3f} <= 0.25; "
        f"exponential mean=10s normalized={expo['normalized']:.3f} <= 0.24; "
        f"bound column exact; {elapsed:.0f}s",
    )


# --- criterion 10 ----------------------------------------------------------------


def test_criterion_10_oracle_and_property_suites():
    t0 = time.time()
    # vote permanence vs the Monte-Carlo race oracle on the stated grid
    from test_confirmation import test_vote_permanence_against_monte_carlo_race

    test_vote_permanence_against_monte_carlo_race()

    # parallel sanitization == sequential on 1e4 randomized cases
    from test_ledger import KEYS, genesis_set, random_workload

    rng = np.random.default_rng(99)
    for case in range(10_000):
        utxo = genesis_set(6, value=int(rng.integers(5, 12)))
        txs = random_workload(rng, int(rng.integers(2, 14)), utxo, conflict_rate=0.4)
        seq_ledger, seq_set = sanitize(txs, dict(utxo), SCHEME)
        workers = int(rng.integers(2, 5))
        par_ledger, par_set = sanitize_parallel(txs, dict(utxo), SCHEME, workers=workers)
        assert [t.digest for t in par_ledger] == [t.digest for t in seq_ledger]
        assert par_set == seq_set

    # ledger formation equals the worked two-level trace exactly
    from test_confirmation import (
        test_build_ledger_matches_figure_trace,
        test_sanitize_discards_duplicate_and_conflict,
    )

    test_build_ledger_matches_figure_trace()
    test_sanitize_discards_duplicate_and_conflict()

    # merkle round-trip and sortition chi-square properties
    from test_merkle import test_matches_reference_and_round_trips
    from test_blocks import test_sortition_frequencies_chi_square

    test_matches_reference_and_round_trips()
    test_sortition_frequencies_chi_square()

    # order-independent delivery, conservation at checkpoints, determinism
    from test_chain import test_shuffled_delivery_matches_in_order_state
    from test_netsim import (
        test_conservation_holds_at_every_checkpoint,
        test_deterministic_replay_bit_identical,
    )

    test_shuffled_delivery_matches_in_order_state()
    test_conservation_holds_at_every_checkpoint()
    test_deterministic_replay_bit_identical()

    elapsed = time.time() - t0
    assert elapsed < 600
    _ok(
        "criterion 10 (oracle/property suites)",
        f"race oracle grid, 1e4 parallel-sanitize cases, ledger trace, merkle, "
        f"sortition chi-square, shuffled delivery, conservation, replay; {elapsed:.0f}s",
    )
