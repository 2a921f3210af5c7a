import copy
import gc
import heapq
import json
import os
import subprocess
import sys
import weakref

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from helpers import Bench, forge_proposer
from test_acceptance import BALANCING_CFG, SAFETY_CFG

import prismsim
from prismsim.adversary import install_strategies
from prismsim.baseline import LCBlock, LCNode, LongestChainSimulation
from prismsim.chain import ChainState
from prismsim.config import ConfigError, resolve
from prismsim.netsim import (
    ARRIVE,
    FETCH,
    MINE,
    RUN_GC_THRESHOLDS,
    WALLETS,
    Node,
    Simulation,
    Topology,
    build_topology,
    run,
    security_constraint,
    utilization_bound,
)


def small_cfg(**overrides):
    base = {
        "duration": 20.0,
        "topology": {"nodes": 6, "degree": 4, "delay_s": 0.12},
        "prism": {"m": 10, "rate_voter_per_chain": 0.5, "rate_tx": 1.0, "rate_prop": 0.25},
        "workload": {"tps": 10.0},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            base[key] = {**base.get(key, {}), **value}
        else:
            base[key] = value
    return resolve(base)


def test_security_constraint_values():
    assert security_constraint(0.45) == pytest.approx(0.1 / 0.45)
    assert security_constraint(1 / 3) == pytest.approx(1.0)
    assert security_constraint(0.499) == pytest.approx(0.002 / 0.499)
    with pytest.raises(ValueError):
        security_constraint(0.5)


def test_utilization_bound_paper_point():
    # beta=0.45, h=5: at most ~4.4% of the bandwidth is usable
    max_f_delta = security_constraint(0.45)
    assert utilization_bound(max_f_delta, 1.0, 5.0) == pytest.approx(0.0444, abs=5e-4)


def test_topology_generators():
    ring = build_topology(resolve({"topology": {"kind": "ring", "nodes": 8}}), seed=0)
    assert len(ring.edges) == 8 and ring.diameter == 4
    complete = build_topology(resolve({"topology": {"kind": "complete", "nodes": 5}}), seed=0)
    assert len(complete.edges) == 10 and complete.diameter == 1
    regular = build_topology(
        resolve({"topology": {"kind": "regular", "nodes": 20, "degree": 4}}), seed=3
    )
    assert len(regular.edges) == 40
    degs = [0] * 20
    for u, v in regular.edges:
        degs[u] += 1
        degs[v] += 1
    assert all(d == 4 for d in degs)


def networkx_topology(kind, n, degree, seed):
    """The edges, diameter and mean hop count ``build_topology`` gave when
    it drew its graphs with networkx."""
    if kind == "complete" or n == 1:
        graph = nx.complete_graph(n)
    elif kind == "ring":
        graph = nx.cycle_graph(n)
    else:
        rng_seed = int(np.random.default_rng([seed, 0xA11CE]).integers(2**31))
        graph = nx.random_regular_graph(degree, n, seed=rng_seed)
        attempts = 0
        while not nx.is_connected(graph):
            attempts += 1
            graph = nx.random_regular_graph(degree, n, seed=rng_seed + attempts)
    if n == 1:
        return (), 0, 0.0
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    pairs = [lengths[u][v] for u in graph for v in graph if u < v]
    edges = tuple((min(u, v), max(u, v)) for u, v in graph.edges())
    return edges, max(pairs), float(np.mean(pairs))


# the pairing model restarts when no rejected stub pair could still form an
# edge: (4, 2, 0), (7, 4, 5) and (8, 5, 1) restart, and the last two draw
# other graphs unless the suitability check rebinds s1 as networkx does
TOPOLOGY_GRID = sorted(
    {
        (kind, n, degree, seed)
        for kind in ("regular", "ring", "complete")
        for n in [*range(1, 13), 21, 40]
        for degree in (2, 3, 4, 5, 6, 8)
        for seed in range(3)
        if kind != "regular" or (degree < n and n * degree % 2 == 0)
    }
    | {("regular", 4, 2, 0), ("regular", 7, 4, 5), ("regular", 8, 5, 1), ("regular", 100, 6, 0)}
)


def test_topology_matches_networkx_oracle():
    for kind, n, degree, seed in TOPOLOGY_GRID:
        cfg = resolve({"topology": {"kind": kind, "nodes": n, "degree": degree}})
        topo = build_topology(cfg, seed)
        assert (topo.edges, topo.diameter, topo.mean_hops) == networkx_topology(
            kind, n, degree, seed
        ), (kind, n, degree, seed)


def test_link_delay_formula_idle_link():
    sim = Simulation(small_cfg(topology={"kind": "complete", "nodes": 2, "delay_s": 0.12}), seed=0)
    size = int(0.01 * sim.topology.bandwidth)  # serializes in 10 ms
    arrival = sim._link_arrival(0, 1, size, now=5.0)
    assert arrival == pytest.approx(5.0 + 0.01 + 0.12)


def test_link_fifo_queueing_back_to_back():
    sim = Simulation(small_cfg(topology={"kind": "complete", "nodes": 2, "delay_s": 0.12}), seed=0)
    size = int(0.05 * sim.topology.bandwidth)
    first = sim._link_arrival(0, 1, size, now=1.0)
    second = sim._link_arrival(0, 1, size, now=1.0)
    assert first == pytest.approx(1.0 + 0.05 + 0.12)
    assert second == pytest.approx(1.0 + 0.10 + 0.12)  # waits for the first
    # reverse direction is an independent queue
    reverse = sim._link_arrival(1, 0, size, now=1.0)
    assert reverse == pytest.approx(1.0 + 0.05 + 0.12)


def test_single_node_grows_without_forking():
    cfg = small_cfg(topology={"kind": "complete", "nodes": 1}, workload={"tps": 5.0})
    report = run(cfg, seed=1).report
    assert report.blocks["total"] > 20
    assert report.forking["voter"] == 0.0
    assert report.forking["proposer"] == 0.0
    assert report.confirmation["max_confirmed_level"] >= 1


def test_deterministic_replay_bit_identical():
    cfg = small_cfg()
    first = run(cfg, seed=9).report
    second = run(cfg, seed=9).report
    assert first.deterministic_dict() == second.deterministic_dict()
    assert first.to_json() != "" and first.deterministic_dict() != run(cfg, seed=10).report.deterministic_dict()


def test_every_block_reaches_every_honest_node():
    cfg = small_cfg(duration=15.0)
    result = run(cfg, seed=4)
    sim = result.sim
    # quiesce: all mined blocks must be stored by all nodes at the end,
    # up to blocks mined too close to the end to propagate
    cutoff = sim.duration - 2.0
    for digest, mined_at in sim.mine_times.items():
        if mined_at > cutoff:
            continue
        for node in sim.nodes:
            assert node.state.has_block(digest), (digest.hex()[:8], node.id)
    # and no node holds unresolved orphans
    for node in sim.nodes:
        assert not node.state.orphans


def test_mean_block_delay_matches_network_model():
    """Measured propagation across a 20-node graph vs the h*(B/C + D) model."""
    cfg = resolve(
        {
            "duration": 40.0,
            "topology": {"nodes": 20, "degree": 4, "delay_s": 0.12},
            "prism": {"m": 20, "rate_voter_per_chain": 0.25, "rate_tx": 0.5, "rate_prop": 0.2},
            "workload": {"tps": 5.0},
        }
    )
    sim = Simulation(cfg, seed=6)
    first_arrival: dict[bytes, dict[int, float]] = {}

    node_on_block = sim.nodes[0].__class__.on_block

    def tracking_on_block(self, block, from_peer, now):
        first_arrival.setdefault(block.digest, {}).setdefault(self.id, now)
        return node_on_block(self, block, from_peer, now)

    for node in sim.nodes:
        node.on_block = tracking_on_block.__get__(node)
    sim.run()

    delays = []
    for digest, mined_at in sim.mine_times.items():
        times = first_arrival.get(digest)
        if times and mined_at < sim.duration - 3.0:
            delays.append(np.mean([t - mined_at for t in times.values()]))
    measured = float(np.mean(delays))
    sizes = cfg["sizes"]
    mean_block_bytes = np.mean(
        [  # voter blocks dominate the mix; use the observed sizes
            sizes["block_overhead_bytes"] + sizes["bytes_per_ref"] * 2
        ]
    )
    model = sim.topology.mean_hops * (mean_block_bytes / sim.topology.bandwidth + 0.12)
    assert abs(measured - model) / model < 0.2


def test_beta_guard_rejected_without_override():
    with pytest.raises(ConfigError) as err:
        resolve({"adversary": {"strategy": "censorship", "fraction": 0.6}})
    assert "beta" in str(err.value)
    cfg = resolve({"adversary": {"strategy": "censorship", "fraction": 0.6}, "allow_high_beta": True})
    assert cfg["adversary"]["fraction"] == 0.6


def test_disconnected_topology_impossible_by_construction():
    with pytest.raises(ConfigError):
        resolve({"topology": {"kind": "regular", "nodes": 7, "degree": 3}})  # odd product


def test_conservation_holds_at_every_checkpoint():
    from prismsim.ledger import total_value

    cfg = small_cfg(duration=20.0, workload={"tps": 20.0})
    sim = Simulation(cfg, seed=12)
    initial_total = total_value(sim.genesis_utxo)
    audits = []

    original_checkpoint = sim._handle_checkpoint

    def auditing_checkpoint(now):
        original_checkpoint(now)
        audits.append(
            total_value(sim.engine.utxo) == initial_total - sum(sim.engine.fees)
        )

    sim._handle_checkpoint = auditing_checkpoint
    sim.run()
    assert audits and all(audits)


def test_engine_check_invariants_reports_lost_value():
    sim = run(small_cfg(duration=20.0, workload={"tps": 20.0}), seed=12).sim
    engine = sim.engine
    assert engine.sanitized_count > 0
    engine.check_invariants()
    engine.utxo.popitem()
    with pytest.raises(AssertionError, match="value"):
        engine.check_invariants()


def test_aggregate_mining_rate_preserved_by_rescheduling():
    # one exponential draw per completion, at each node's share, must keep
    # blocks/s at f
    cfg = small_cfg(duration=120.0, workload={"tps": 10.0})
    result = run(cfg, seed=21)
    f = (
        cfg["prism"]["rate_tx"]
        + cfg["prism"]["rate_prop"]
        + cfg["prism"]["m"] * cfg["prism"]["rate_voter_per_chain"]
    )
    expected = f * cfg["duration"]
    observed = result.report.blocks["total"]
    assert abs(observed - expected) < 3 * np.sqrt(expected)


def _clock_sim(name):
    if name == "longest_chain":
        lc = resolve({
            "protocol": "longest_chain",
            "duration": 60.0,
            "topology": {"nodes": 6, "degree": 4, "delay_s": 0.1},
            "longest_chain": {"rate": 2.0, "block_capacity": 50, "confirm_depth": 3},
            "workload": {"tps": 10.0},
        })
        return LongestChainSimulation(lc, seed=0)
    adversary = {"strategy": name, "fraction": 0.3} if name != "prism" else {}
    sim = Simulation(small_cfg(duration=60.0, adversary=adversary), seed=0)
    install_strategies(sim)
    return sim


@pytest.mark.parametrize("name", ["prism", "private_double_spend", "longest_chain"])
def test_mining_clock_draws_once_per_completion(name):
    # each node has exactly one pending completion from the start on: every
    # completion mines a block and pushes the node's next one, and no other
    # event touches the clock
    sim = _clock_sim(name)
    pushes = []
    completions = []
    mined_by = []
    push, record_mined = sim.push, sim.record_mined

    def counting_push(when, kind, payload):
        if kind == MINE:
            pushes.append(payload)
        push(when, kind, payload)

    def counting_record(block, *args):
        mined_by.append(block.miner_id)
        record_mined(block, *args)

    sim.push, sim.record_mined = counting_push, counting_record
    for node in sim.nodes:
        def counting_complete(now, complete=node.on_mining_complete):
            completions.append(now)
            complete(now)

        node.on_mining_complete = counting_complete
    report = sim.run().report

    powered = sum(1 for node in sim.nodes if node.hash_power > 0)
    assert len(completions) == len(mined_by) == report.blocks["total"]
    assert len(pushes) == len(completions) + powered
    # per-node block counts follow the hash-power shares
    shares = np.array([node.hash_power for node in sim.nodes])
    observed = np.bincount(mined_by, minlength=len(sim.nodes))
    expected = shares / shares.sum() * len(mined_by)
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_paper_shape_profile_runs_with_thousand_chains():
    cfg = resolve({"duration": 6.0, "workload": {"tps": 5.0}}, profile="paper-shape")
    assert cfg["prism"]["m"] == 1000
    result = run(cfg, seed=2)
    assert result.report.blocks["voter"] > 50
    assert result.report.invalid_blocks == 0
    # sortition proofs over 1002 committed slots carry 10 siblings
    voter_block = next(
        b for b in result.sim.blocks_by_digest.values() if b.block_type.kind == "voter"
    )
    assert len(voter_block.parent_proof.siblings) == 10


def test_report_schema_fully_populated():
    cfg = small_cfg(duration=10.0)
    report = run(cfg, seed=1).report.to_dict()
    expected_keys = {
        "protocol", "seed", "config_digest", "duration", "steady_state_start",
        "topology", "blocks", "throughput", "latency", "forking",
        "confirmation", "attack", "spam", "mempool_final", "invalid_blocks",
        "conservation_ok", "wallclock",
    }
    assert set(report) == expected_keys
    assert set(report["forking"]) == {"voter", "proposer", "chain"}
    assert set(report["throughput"]) == {
        "generated_tps", "confirmed_raw_tps", "confirmed_sanitized_tps",
    }


def test_genesis_coins_dealt_round_robin_over_the_wallets():
    # 35 coins over 16 wallets wrap unevenly
    sim = Simulation(small_cfg(duration=2.0), seed=0)
    owners = []
    while (taken := sim._take_coin()) is not None:
        coin, owner = taken
        assert owner.public == coin.owner
        owners.append(owner.public)
    assert len(owners) == 35 and owners[:WALLETS] == owners[WALLETS:2 * WALLETS]
    assert len(set(owners)) == WALLETS


def _deliver_queued(sim):
    """Hand the queued block arrivals and fetch requests to their nodes in
    time order, without starting the run's mining and workload."""
    while sim.heap:
        when, _, kind, payload = heapq.heappop(sim.heap)
        if kind == ARRIVE:
            receiver, block, sender = payload
            sim.nodes[receiver].on_block(block, sender, when)
        else:
            sim._handle_event(kind, payload, when)


@pytest.mark.parametrize("sender_has_parent", [True, False])
def test_child_before_its_parent_fetches_the_parent_from_the_sender(sender_has_parent):
    sim = Simulation(small_cfg(topology={"kind": "complete", "nodes": 2}), seed=0)
    bench = Bench(m=10, f_v=0.5, f_t=1.0, f_p=0.25)  # small_cfg's sortition
    parent, child = bench.mine("proposer"), bench.mine("proposer")
    sender, receiver = sim.nodes[1].state, sim.nodes[0].state
    if sender_has_parent:
        sender.receive_block(parent)
    sender.receive_block(child)  # an orphan there when the parent is missing
    sim.nodes[0].on_block(child, 1, now=1.0)
    # one request, to the sender; the child has no other peer to go to
    assert [(kind, payload) for _, _, kind, payload in sim.heap] == [(FETCH, (1, 0, parent.digest))]
    _deliver_queued(sim)
    # a peer without the block answers nothing, and the child stays buffered
    assert receiver.has_block(parent.digest) is sender_has_parent
    assert receiver.has_block(child.digest) is sender_has_parent
    assert receiver.seen(child) and sim.invalid_blocks == 0


def test_out_of_range_voter_block_counted_invalid_and_run_continues():
    cfg = small_cfg(duration=10.0)
    sim = Simulation(cfg, seed=3)
    # valid at m = 20, but voter chain 15 does not exist at the run's m = 10
    stray = Bench(m=20, seed=1).mine("voter", chain_index=15, deliver=False)
    sim.push(2.0, ARRIVE, (0, stray, 1))
    report = sim.run().report
    assert report.invalid_blocks == 1
    assert sim.now == cfg["duration"]
    assert report.blocks["total"] > 0


def test_invalid_block_validated_once_and_counted_per_receipt(monkeypatch):
    import prismsim.netsim as netsim

    validated = []
    real = netsim.validate_block
    monkeypatch.setattr(
        netsim, "validate_block", lambda block, *args: validated.append(block) or real(block, *args)
    )
    cfg = small_cfg(duration=10.0)
    sim = Simulation(cfg, seed=3)
    stray = Bench(m=20, seed=1).mine("voter", chain_index=15, deliver=False)
    receivers = (0, 2, 4, 5)
    for i, node in enumerate(receivers):
        sim.push(2.0 + i, ARRIVE, (node, stray, (node + 1) % 6))
    report = sim.run().report
    assert report.invalid_blocks == len(receivers)
    assert sum(1 for b in validated if b is stray) == 1
    # every block object is validated once, however many nodes receive it
    assert len({id(b) for b in validated}) == len(validated) > report.blocks["total"] // 2


def test_each_block_object_validated_and_sized_once(monkeypatch):
    import prismsim.netsim as netsim

    validated, sized = [], []
    validate, size = netsim.validate_block, netsim.block_wire_size
    monkeypatch.setattr(netsim, "validate_block", lambda block, *a: validated.append(block) or validate(block, *a))
    monkeypatch.setattr(netsim, "block_wire_size", lambda block, *a: sized.append(block) or size(block, *a))
    report = Simulation(small_cfg(duration=10.0), seed=0).run().report
    assert report.blocks["total"] > 0
    for calls in (validated, sized):
        # every mined block is sent, so each is validated and sized; once
        assert len(calls) >= report.blocks["total"]
        assert len({id(block) for block in calls}) == len(calls)


def test_a_receipt_asks_seen_once(monkeypatch):
    """``Node.on_block`` asks ``seen`` once and stores through
    ``receive_new_block``; the only other asks are for a node's own
    blocks, one each, in ``receive_block``."""
    calls = {"seen": 0, "on_block": 0}

    def counting(cls, name):
        real = getattr(cls, name)

        def wrapped(self, *args):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(cls, name, wrapped)

    counting(ChainState, "seen")
    counting(Node, "on_block")
    report = Simulation(small_cfg(duration=10.0), seed=0).run().report
    assert calls["on_block"] > 0
    assert calls["seen"] == calls["on_block"] + report.blocks["total"]


def test_verdict_is_kept_per_object_not_per_digest():
    sim = Simulation(small_cfg(duration=1.0), seed=0)
    good = Bench(m=10, seed=2).mine("voter", chain_index=3, deliver=False)
    forged = copy.copy(good)
    forged.content = type(good.content)(((7, b"\x01" * 32),))  # same header, other body
    assert forged.digest == good.digest
    assert sim.verdict(good)[0] and not sim.verdict(forged)[0] and sim.verdict(good)[0]


def test_forged_level_proposer_stored_and_forwarded_once_per_node():
    cfg = small_cfg(duration=20.0, topology={"kind": "ring", "nodes": 6})
    sim = Simulation(cfg, seed=4)
    forged = forge_proposer(sim.params, sim.nodes[0].state.proposer_genesis, level=3)
    forwards = []
    broadcast = sim.broadcast

    def counting(sender, block, now, exclude):
        if block is forged:
            forwards.append(sender)
        return broadcast(sender, block, now, exclude)

    sim.broadcast = counting
    for when, node in ((1.0, 0), (1.5, 0), (2.0, 3)):
        sim.push(when, ARRIVE, (node, forged, (node + 1) % 6))
    report = sim.run().report
    assert report.invalid_blocks == 0
    assert sorted(forwards) == list(range(6))
    for node in sim.nodes:
        assert node.state.prp_levels[forged.digest] == 1
    assert report.blocks["total"] > 0 and report.conservation_ok


LC_SMALL = {
    "protocol": "longest_chain",
    "duration": 40.0,
    "topology": {"nodes": 6, "degree": 4, "delay_s": 0.1},
    "longest_chain": {"rate": 0.5, "block_capacity": 50, "confirm_depth": 2},
    "workload": {"tps": 10.0},
}
PRISM_SMALL = {
    "duration": 10.0,
    "topology": {"nodes": 6, "degree": 4, "delay_s": 0.12},
    "prism": {"m": 10, "rate_voter_per_chain": 0.5, "rate_tx": 1.0, "rate_prop": 0.25},
    "workload": {"tps": 10.0},
}


def test_both_protocols_report_runtime():
    for overlay in (PRISM_SMALL, LC_SMALL):
        wallclock = run(resolve(overlay), seed=0).report.wallclock
        assert wallclock["runtime_s"] > 0
        assert wallclock["finished_unix"] > 0


CALLERS_GC = (1234, 7, 9)


@pytest.mark.parametrize("protocol", ["prism", "longest_chain"])
def test_collector_settings_survive_a_run(protocol, monkeypatch):
    if protocol == "prism":
        cls, node_cls, overlay = Simulation, Node, PRISM_SMALL
    else:
        cls, node_cls, overlay = LongestChainSimulation, LCNode, LC_SMALL
    cfg = resolve({**overlay, "duration": 5.0})
    kept = gc.get_threshold()
    try:
        gc.set_threshold(*CALLERS_GC)
        cls(cfg, 0).run()
        assert gc.get_threshold() == CALLERS_GC

        seen_in_loop = []

        def failing(self, now):
            seen_in_loop.append(gc.get_threshold())
            raise RuntimeError("mining failed")

        monkeypatch.setattr(node_cls, "on_mining_complete", failing)
        with pytest.raises(RuntimeError, match="mining failed"):
            cls(cfg, 0).run()
        assert seen_in_loop == [RUN_GC_THRESHOLDS]
        assert gc.get_threshold() == CALLERS_GC
    finally:
        gc.set_threshold(*kept)


# each Prism strategy, a spam run (which runs its no-jitter twin too) and
# the longest chain, at short durations
FREED_RUNS = {
    "none": PRISM_SMALL,
    "spam": {**PRISM_SMALL, "spam": {"enabled": True, "jitter": {"kind": "uniform"}}},
    "private_double_spend": {**SAFETY_CFG, "duration": 6.0},
    "censorship": {**PRISM_SMALL, "adversary": {"strategy": "censorship", "fraction": 0.25}},
    "balancing": {
        **BALANCING_CFG, "duration": 5.0, "adversary": {"strategy": "balancing", "fraction": 0.25}
    },
    "longest_chain": LC_SMALL,
}


@pytest.mark.parametrize("name", sorted(FREED_RUNS))
def test_a_finished_run_is_freed_by_reference_counting(name):
    """No reference cycle leads out of a run: once the result is dropped,
    the simulation, its nodes and the strategy are gone with the
    collector off, and a collection finds nothing left."""
    gc.collect()
    gc.disable()
    try:
        result = run(resolve(FREED_RUNS[name]), 1)
        adversary = result.sim.nodes[-1]
        refs = [weakref.ref(result.sim), weakref.ref(adversary)]
        strategy = getattr(adversary, "strategy", None)
        if name in ("none", "spam", "longest_chain"):
            assert strategy is None
        else:
            refs.append(weakref.ref(strategy))
        if name == "private_double_spend":
            # attacking: the miner's last superblock took the strategy as its slot source
            assert strategy.forks and adversary.last_superblock.source is strategy
        del result, adversary, strategy
        assert [ref() for ref in refs] == [None] * len(refs)
        assert gc.collect() == 0
    finally:
        gc.enable()


# prints one digest per config: deterministic report, confirmation trace,
# latency samples and, for the longest chain, the confirmed blocks; then
# the scipy and networkx modules loaded by the run path (both are
# test-only oracles)
_DIGEST_RUNS = """
import hashlib, json, sys
import prismsim.adversary, prismsim.cli
from prismsim.config import resolve
from prismsim.netsim import run
for overlay in json.loads(sys.argv[1]):
    result = run(resolve(overlay), 7)
    sim = result.sim
    body = {
        "report": result.report.deterministic_dict(),
        "trace": sim.engine.trace if hasattr(sim, "engine") else [],
        "latency": [[s.tx_digest.hex(), s.mined_at, s.confirmed_at] for s in sim.latency_samples],
        "confirmed": [d.hex() for d in getattr(sim, "confirmed_blocks", [])],
    }
    print(hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest())
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))))
"""


def test_runs_identical_across_processes_and_hash_seeds():
    src = os.path.dirname(os.path.dirname(os.path.abspath(prismsim.__file__)))
    outputs = []
    for hash_seed in ("0", "20190925"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_RUNS, json.dumps([PRISM_SMALL, LC_SMALL])],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        *digests, oracle_modules = proc.stdout.splitlines()
        assert json.loads(oracle_modules) == []
        outputs.append(digests)
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


# --- skipped gossip copies ----------------------------------------------------------

PROBE = -1  # a copy the send path skipped, at the time it would have arrived


def _prism_seen(node, item) -> bool:
    return node.state.seen(item)


def _lc_seen(node, item) -> bool:
    if isinstance(item, LCBlock):
        return node.state.has(item.digest)
    return item.digest in node.state.seen_txs


# name -> (config, seed, (new receipts, duplicates) of on_block): short runs
# of honest Prism on a ring, private double spend, balancing and the longest
# chain, which relays payments.  With every copy scheduled, the new receipts
# were the same and the duplicates were 120, 6,688, 3,672 and 112.  The
# duplicates left are races: a copy sent later that overtakes the one first
# scheduled to the same peer.
SKIP_RUNS = {
    "ring": ({**PRISM_SMALL, "topology": {"kind": "ring", "nodes": 8, "delay_s": 0.12}}, 0, (432, 0)),
    "double-spend": ({**SAFETY_CFG, "duration": 10.0}, 0, (2419, 3)),
    "balancing": (
        {**BALANCING_CFG, "duration": 10.0, "adversary": {"strategy": "balancing", "fraction": 0.25}},
        1,
        (1442, 1),
    ),
    "longest-chain": ({**LC_SMALL, "duration": 20.0}, 0, (40, 0)),
}


@pytest.mark.parametrize("name", sorted(SKIP_RUNS))
def test_skipped_copies_reach_only_receivers_that_have_the_item(name):
    overlay, seed, expected = SKIP_RUNS[name]
    cfg = resolve(overlay)
    if cfg["protocol"] == "longest_chain":
        sim, seen = LongestChainSimulation(cfg, seed), _lc_seen
    else:
        sim, seen = Simulation(cfg, seed), _prism_seen
        if cfg["adversary"]["strategy"] != "none":
            install_strategies(sim)
    send, handle_event = sim.send, sim._handle_event
    skipped, probed = [], []

    def watched_send(sender, peers, kind, item, size, now, held, exclude=None, track=True):
        scheduled = []
        sim.push = lambda *event: scheduled.append(event)
        try:
            send(sender, peers, kind, item, size, now, held, exclude, track)
        finally:
            del sim.push
        for event in scheduled:
            sim.push(*event)
        receivers = {payload[0] for _, _, payload in scheduled}
        for peer in peers:
            if peer != exclude and peer not in receivers:
                # the copy's egress was charged: its arrival is link_free + delay
                arrival = sim.link_free[sender][peer] + sim.topology.delay_s
                skipped.append(arrival)
                sim.push(arrival, PROBE, (peer, item))

    def probing_handle_event(kind, payload, now):
        if kind != PROBE:
            return handle_event(kind, payload, now)
        peer, item = payload
        assert seen(sim.nodes[peer], item), (name, peer, now)
        probed.append(payload)

    receipts = {"new": 0, "duplicate": 0}
    calls = 0

    def counting(node):
        on_block = node.on_block

        def counted(block, from_peer, now):
            nonlocal calls
            calls += 1
            receipts["duplicate" if seen(node, block) else "new"] += 1
            on_block(block, from_peer, now)

        return counted

    sim.send, sim._handle_event = watched_send, probing_handle_event
    for node in sim.nodes:
        node.on_block = counting(node)
    sim.run()

    assert probed and len(probed) == sum(1 for when in skipped if when <= sim.duration)
    assert calls == receipts["new"] + receipts["duplicate"]
    assert (receipts["new"], receipts["duplicate"]) == expected


def test_a_forged_copy_in_flight_does_not_hide_the_honest_block():
    # a forged body under an honest header has the honest block's digest;
    # it is counted invalid at each receipt and stored nowhere, so the
    # honest copy queued behind it on the same links must still arrive
    sim = Simulation(small_cfg(topology={"kind": "complete", "nodes": 3}), seed=0)
    good = Bench(m=10, seed=2).mine("voter", chain_index=3, deliver=False)
    forged = copy.copy(good)
    forged.content = type(good.content)(((7, b"\x01" * 32),))
    sim.broadcast(0, forged, 0.5, exclude=None)
    sim.broadcast(0, good, 0.5, exclude=None)
    _deliver_queued(sim)
    assert sim.invalid_blocks == 2
    assert all(node.state.has_block(good.digest) for node in sim.nodes[1:])
