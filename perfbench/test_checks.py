"""Each output check passes on real outputs and rejects a corrupted one.

    python3 -m pytest perfbench
"""
import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from prismsim.baseline import LongestChainSimulation  # noqa: E402
from prismsim.config import resolve  # noqa: E402
from prismsim.netsim import Simulation  # noqa: E402

PRISM_CFG = {
    "duration": 30.0,
    "topology": {"kind": "complete", "nodes": 4},
    "prism": {"m": 20, "rate_voter_per_chain": 0.5, "rate_prop": 0.6, "tx_block_capacity": 50,
              "vote_rule": "most_voted"},
    "workload": {"tps": 10.0},
}
LC_CFG = {
    "protocol": "longest_chain",
    "duration": 120.0,
    "topology": {"kind": "complete", "nodes": 4},
    "longest_chain": {"rate": 0.25, "block_capacity": 50, "confirm_depth": 6},
    "workload": {"tps": 5.0},
}


@pytest.fixture
def prism():
    sim = Simulation(resolve(PRISM_CFG), 3)
    result = sim.run()
    assert sim.engine.latency_samples, "the fixture must confirm transactions"
    return sim, result.report


@pytest.fixture
def longest_chain():
    sim = LongestChainSimulation(resolve(LC_CFG), 3)
    result = sim.run()
    assert sim.confirmed_count > 0, "the fixture must confirm transactions"
    return sim, result.report


def test_prism_outputs_pass(prism):
    sim, report = prism
    assert checks.check_prism(sim, report.to_dict()) == []


def test_dropped_ledger_transaction_is_rejected(prism):
    sim, report = prism
    del sim.engine.latency_samples[0]
    sim.engine.sanitized_count -= 1
    assert checks.check_prism(sim, report.to_dict())


def test_altered_coin_is_rejected(prism):
    sim, report = prism
    coin_id, coin = next(iter(sim.engine.utxo.items()))
    sim.engine.utxo[coin_id] = dataclasses.replace(coin, value=coin.value + 1)
    failures = checks.check_prism(sim, report.to_dict())
    assert any("UTXO" in f for f in failures)
    assert any("conserve" in f for f in failures)


def test_wrong_leader_level_is_rejected(prism):
    sim, report = prism
    assert len(sim.engine.leaders) >= 2, "the fixture must confirm two levels"
    sim.engine.leaders.reverse()
    assert any("leader" in f for f in checks.check_prism(sim, report.to_dict()))


def test_off_law_block_count_is_rejected(prism):
    sim, report = prism
    as_dict = report.to_dict()
    as_dict["blocks"]["voter"] *= 2
    assert any("voter blocks" in f for f in checks.check_prism(sim, as_dict))


def test_poisson_bound_accepts_the_law_and_rejects_far_counts():
    assert checks.poisson_failures("x", 1000, 1000.0) == []
    assert checks.poisson_failures("x", 1150, 1000.0) == []
    assert checks.poisson_failures("x", 1250, 1000.0)
    assert checks.poisson_failures("x", 0, 10.0) == []
    assert checks.poisson_failures("x", 40, 10.0)


def test_changed_digest_is_rejected(prism):
    sim, report = prism
    first = checks.run_digest(sim, report)
    assert checks.run_digest(sim, report) == first
    report.latency["median_s"] += 1e-9
    changed = checks.run_digest(sim, report)
    assert changed != first

    def round_with(digest):
        return {"sims": [{"seed": 3, "digest": digest, "failures": [], "error": None}]}

    attempted, failed, correct, _ = run.tally([round_with(first), round_with(first), round_with(changed)])
    assert (attempted, failed, correct) == (3, 1, True)


def test_failed_attack_is_rejected():
    report = {"attack": {"released": True}, "confirmation": {"reversals": 0}}
    assert checks.check_double_spend(report) == []
    assert checks.check_double_spend({**report, "attack": {"released": False}})
    assert checks.check_double_spend({**report, "confirmation": {"reversals": 1}})


def test_longest_chain_outputs_pass(longest_chain):
    sim, report = longest_chain
    assert checks.check_longest_chain(sim, report.to_dict()) == []


def test_longest_chain_dropped_transaction_is_rejected(longest_chain):
    sim, report = longest_chain
    sim.confirmed_count -= 1
    assert any("confirmed" in f for f in checks.check_longest_chain(sim, report.to_dict()))


def test_longest_chain_altered_coin_is_rejected(longest_chain):
    sim, report = longest_chain
    coin_id, coin = next(iter(sim.confirmed_utxo.items()))
    sim.confirmed_utxo[coin_id] = dataclasses.replace(coin, owner=bytes(32))
    assert any("UTXO" in f for f in checks.check_longest_chain(sim, report.to_dict()))


def test_expansion_of_a_deep_reference_chain_needs_no_recursion():
    class Content:
        def __init__(self, prp_refs=(), tx_refs=(), txs=()):
            self.prp_refs, self.tx_refs, self.txs = prp_refs, tx_refs, txs

    class Stored:
        def __init__(self, parent, content):
            self.parent_leaf, self.content = parent, content

    genesis, blocks, parent = b"g", {}, b"g"
    for i in range(5000):
        digest = i.to_bytes(4, "little")
        blocks[b"t" + digest] = Stored(None, Content(txs=(i,)))
        blocks[digest] = Stored(parent, Content(tx_refs=(b"t" + digest,)))
        parent = digest
    assert checks.expand_leaders([parent], blocks, genesis) == list(range(5000))
