from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import SCHEME, Bench, u_for
from test_mining import _check_kept_assembly

from prismsim import mining
from prismsim.blocks import validate_block
from prismsim.adversary import BalancingStrategy, PrivateDoubleSpendStrategy
from prismsim.config import resolve
from prismsim.crypto import get_scheme
from prismsim.mining import finish_mining
from prismsim.netsim import Simulation, run


def attack_cfg(strategy, fraction, **extra):
    base = {
        "duration": 20.0,
        "topology": {"nodes": 6, "degree": 4, "delay_s": 0.1},
        "prism": {"m": 20, "rate_voter_per_chain": 0.5, "rate_tx": 1.0, "rate_prop": 0.3},
        "workload": {"tps": 10.0},
        "adversary": {"strategy": strategy, "fraction": fraction, **extra},
    }
    if strategy == "balancing":
        base["prism"]["vote_rule"] = "most_voted"
    return resolve(base)


def test_zero_fraction_strategies_behave_honestly():
    # a configured strategy with no adversarial power leaves the trace
    # bitwise identical to the attack-free run
    plain = run(attack_cfg("none", 0.0), seed=5).report.deterministic_dict()
    cens = run(attack_cfg("censorship", 0.0), seed=5).report.deterministic_dict()
    priv = run(attack_cfg("private_double_spend", 0.0), seed=5).report.deterministic_dict()
    for other in (cens, priv):
        a = {k: v for k, v in plain.items() if k not in ("attack", "config_digest")}
        b = {k: v for k, v in other.items() if k not in ("attack", "config_digest")}
        assert a == b


def test_private_zero_power_never_succeeds():
    report = run(attack_cfg("private_double_spend", 0.0), seed=3).report
    assert report.attack["success"] in (False, None)
    assert report.confirmation["reversals"] == 0


def test_adversary_mines_its_power_share():
    cfg = attack_cfg("private_double_spend", 0.3, target_level=1)
    result = run(resolve({**cfg, "duration": 60.0}), seed=8)
    sim = result.sim
    adv_id = sim.topology.n - 1
    mined_by_adv = sum(1 for b in sim.blocks_by_digest.values() if b.miner_id == adv_id)
    total = len(sim.blocks_by_digest)
    share = mined_by_adv / total
    sigma = np.sqrt(0.3 * 0.7 / total)
    assert abs(share - 0.3) < 3 * sigma


def test_adversarial_blocks_pass_validation():
    cfg = attack_cfg("private_double_spend", 0.3)
    result = run(cfg, seed=2)
    sim = result.sim
    assert sim.invalid_blocks == 0
    scheme = get_scheme(cfg["signature_scheme"])
    adv_id = sim.topology.n - 1
    adversarial = [b for b in sim.blocks_by_digest.values() if b.miner_id == adv_id]
    assert adversarial
    for block in adversarial:
        validate_block(block, sim.params, scheme)


@pytest.mark.parametrize("strategy", ["balancing", "private_double_spend"])
def test_every_mined_block_validates_under_a_strategy(strategy):
    """Strategies replace vote lists in the miner's context; a leaf kept
    from an earlier superblock for a replaced list would break the
    content proof of some mined block, withheld ones included."""
    result = run(attack_cfg(strategy, 0.3, target_level=2), seed=4)
    sim = result.sim
    scheme = get_scheme(sim.cfg["signature_scheme"])
    assert sim.invalid_blocks == 0
    for block in sim.blocks_by_digest.values():
        validate_block(block, sim.params, scheme)
    for node in sim.nodes:
        node.state.check_invariants()
        if isinstance(node.strategy, PrivateDoubleSpendStrategy):
            node.strategy.check_invariants()
    sim.engine.check_invariants()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.booleans()), max_size=12),
    st.integers(0, 14).map(lambda twice: twice / 2),
)
def test_release_count_stops_early_with_the_full_count_verdict(chains, threshold):
    """``_winning`` decides as counting every target-voting fork longer
    than its public chain would, for whole and half thresholds."""
    strategy = PrivateDoubleSpendStrategy(target_level=1, release_margin=0, release_timeout=1.0)
    strategy.forks = [SimpleNamespace(length=private) for private, _, _ in chains]
    public = [public for _, public, _ in chains]
    strategy.node = SimpleNamespace(state=SimpleNamespace(voter_tip_heights=public))
    strategy.target_voters = {i for i, (_, _, voted) in enumerate(chains) if voted}
    full = sum(strategy.forks[i].length > public[i] for i in strategy.target_voters)
    assert strategy._winning(threshold) == (full >= threshold)


def _private_votes_from_scratch(strategy, chain):
    state = strategy.node.state
    fork = strategy.forks[chain]
    votes = []
    for level in range(1, state.prp_parent_level + 1):
        if level in fork.voted:
            continue
        if level == strategy.target_level:
            if strategy.private_block is not None:
                votes.append((level, strategy.private_block.digest))
        else:
            votes.append((level, state.first_seen_at(level)))
    return votes


def test_kept_private_votes_match_a_rebuild(monkeypatch):
    """Every private superblock votes exactly what a from-scratch rebuild
    of each fork's unvoted levels gives, through fork votes, new proposer
    levels and the private block's arrival."""
    build = PrivateDoubleSpendStrategy.build_context
    seen = []

    def checked(strategy, now):
        ctx = build(strategy, now)
        if ctx is not None:
            fresh = [_private_votes_from_scratch(strategy, i) for i in range(len(ctx.votes))]
            assert ctx.votes == fresh
            strategy.check_invariants()
            seen.append((strategy.node.state.prp_parent_level, strategy.private_block is not None))
        return ctx

    monkeypatch.setattr(PrivateDoubleSpendStrategy, "build_context", checked)
    run(attack_cfg("private_double_spend", 0.3, target_level=2), seed=4)
    assert len({level for level, _ in seen}) > 3
    assert {private for _, private in seen} == {False, True}


def test_private_superblock_rewrites_only_the_slots_its_strategy_logged(monkeypatch):
    """The adversary's kept superblock equals a fresh assembly after each
    of its assemblies, the switch from the node's slots to the strategy's
    own included; from then on each assembly writes only the voter slots
    the strategy logged since the last one, not all m."""
    cfg = attack_cfg("private_double_spend", 0.3, target_level=2)
    m, adversary = cfg["prism"]["m"], cfg["topology"]["nodes"] - 1
    real_assemble, real_write = mining.assemble_superblock, mining._write_slots
    written = []

    def write(ctx, slots, *rest):
        written.append(set(slots))
        return real_write(ctx, slots, *rest)

    switches = 0
    private_writes = []

    def checked(ctx, last):
        nonlocal switches
        if ctx.miner_id != adversary:
            return real_assemble(ctx, last)
        private = isinstance(ctx.source, PrivateDoubleSpendStrategy)
        same_source = last.source is ctx.source
        switches += private and last.parents is not None and not same_source
        since = last.epoch
        written.clear()
        _check_kept_assembly(ctx, last)  # the kept assembly writes first
        if private and same_source:
            assert written[0] <= set(ctx.source.slots_changed_since(since))
            private_writes.append(len(written[0]))
        return last.parents.leaves, last.contents.leaves, last.parents.root, last.contents.root

    monkeypatch.setattr(mining, "_write_slots", write)
    monkeypatch.setattr(mining, "assemble_superblock", checked)
    result = run(cfg, seed=4)
    assert switches == 1
    assert len(private_writes) > 50 and sum(private_writes) < len(private_writes) * m / 4
    result.sim.nodes[adversary].strategy.check_invariants()


def test_private_attack_releases_and_votes_private_candidate():
    cfg = resolve(
        {
            "duration": 25.0,
            "topology": {"nodes": 6, "degree": 4, "delay_s": 0.1},
            "prism": {"m": 40, "rate_voter_per_chain": 0.6, "rate_tx": 0.5, "rate_prop": 1.0},
            "workload": {"tps": 2.0},
            "adversary": {
                "strategy": "private_double_spend",
                "fraction": 0.3,
                "target_level": 1,
                "release_timeout_fraction": 0.6,
            },
        }
    )
    result = run(cfg, seed=13)
    sim = result.sim
    strategy = sim.nodes[-1].strategy
    assert strategy.released
    assert strategy.private_block is not None
    # the withheld candidate is a proposer block at the target level and
    # reached honest nodes after release
    assert strategy.private_block.level == 1
    assert sim.nodes[sim.observer].state.has_block(strategy.private_block.digest)


def test_overwhelming_adversary_causes_detected_reversal():
    """With 80% hash power against an observer that assumes beta=0.05 and
    confirms shallow, the released private fork must flip the confirmed
    leader and the engine must record the reversal."""
    cfg = resolve(
        {
            "duration": 40.0,
            "checkpoint_interval": 0.5,
            "topology": {"nodes": 6, "degree": 4, "delay_s": 0.1},
            "prism": {
                "m": 30,
                "rate_voter_per_chain": 1.2,
                "rate_tx": 0.5,
                "rate_prop": 0.5,
                "beta": 0.05,  # observer badly underestimates the adversary
                "epsilon": 1e-3,
            },
            "workload": {"tps": 2.0},
            "adversary": {
                "strategy": "private_double_spend",
                "fraction": 0.80,
                "target_level": 1,
                "release_margin": 10**6,  # force the timeout release
                "release_timeout_fraction": 0.7,
            },
            "allow_high_beta": True,
        }
    )
    hits = 0
    for seed in (1, 2, 3):
        report = run(cfg, seed=seed).report
        if report.attack["success"]:
            hits += 1
    assert hits >= 2, f"only {hits}/3 overwhelming attacks flipped the leader"


def test_censorship_blocks_are_empty():
    cfg = attack_cfg("censorship", 0.34)
    result = run(cfg, seed=4)
    sim = result.sim
    adv_ids = {n.id for n in sim.nodes if n.adversarial}
    assert adv_ids
    for block in sim.blocks_by_digest.values():
        if block.miner_id in adv_ids:
            if block.block_type.kind == "transaction":
                assert block.content.txs == ()
            elif block.block_type.kind == "proposer":
                assert block.content.prp_refs == () and block.content.tx_refs == ()


class _Stub(SimpleNamespace):
    """A stand-in that a strategy can hold weakly."""


def _balancing_on(bench):
    strategy = BalancingStrategy()
    # a strategy holds its node and simulation weakly: the bench keeps them
    bench.adversary = _Stub(state=bench.state, id=5), _Stub(tx_capacity=100)
    strategy.attach(bench.adversary[1], bench.adversary[0])
    return strategy


def _mine_from(bench, ctx, kind, chain_index=0):
    block = finish_mining(ctx, bench.params, u_for(bench.params, kind, chain_index), 7)
    validate_block(block, bench.params, SCHEME)
    bench.state.receive_block(block)
    return block


def test_balancing_context_contests_and_votes_runner_up():
    bench = Bench(m=4, vote_rule="most_voted")
    state = bench.state
    first = bench.mine("proposer")

    # one candidate at the top level: vote it, and retarget the proposer
    # sub-block to compete with it at the same level
    ctx = _balancing_on(bench).build_context(0.0)
    assert (ctx.prp_parent, ctx.prp_parent_level) == (state.proposer_genesis, 0)
    assert state.proposer_genesis not in ctx.unref_prp_refs
    assert ctx.votes == [[(1, first.digest)]] * 4 and not ctx.replaced
    rival = _mine_from(bench, ctx, "proposer")
    assert rival.level == 1 and state.prp_by_level[1] == [first.digest, rival.digest]

    # contested: an honest vote makes the first block the leader, so every
    # chain still owing level 1 votes the rival, and no retarget happens
    bench.mine("voter", 0)
    assert state.votes_by_level[1] == {first.digest: 1}
    ctx = _balancing_on(bench).build_context(0.0)
    assert ctx.prp_parent == state.prp_parent
    assert ctx.votes == [[]] + [[(1, rival.digest)]] * 3
    assert ctx.replaced == {1, 2, 3}
    _mine_from(bench, ctx, "voter", 1)
    assert state.votes_by_level[1] == {first.digest: 1, rival.digest: 1}
    state.check_invariants()


def test_balancing_adversary_votes_runner_up():
    cfg = resolve(
        {
            "duration": 30.0,
            "topology": {"nodes": 6, "degree": 4, "delay_s": 0.1},
            "prism": {
                "m": 30,
                "rate_voter_per_chain": 0.5,
                "rate_tx": 0.5,
                "rate_prop": 0.4,
                "vote_rule": "most_voted",
            },
            "workload": {"tps": 2.0},
            "adversary": {"strategy": "balancing", "fraction": 0.34},
        }
    )
    # how many levels end up contested depends on the seed's luck (the
    # adversary mines about four proposer blocks here); the strategy's
    # choices are checked deterministically by the test above
    result = run(cfg, seed=6)
    sim = result.sim
    assert sim.invalid_blocks == 0 and result.report.conservation_ok
    assert result.report.confirmation["reversals"] == 0


def test_balancing_requires_most_voted_rule():
    from prismsim.config import ConfigError

    with pytest.raises(ConfigError):
        resolve({"adversary": {"strategy": "balancing", "fraction": 0.2}})


def test_spam_without_jitter_normalizes_to_one():
    cfg = resolve(
        {
            "duration": 20.0,
            "topology": {"nodes": 8, "degree": 4, "delay_s": 0.1},
            "prism": {"m": 10, "rate_voter_per_chain": 0.3, "rate_tx": 20.0, "rate_prop": 0.2},
            "workload": {"tps": 0.0},
            "spam": {"enabled": True, "tps": 2.0, "jitter": {"kind": "none"}},
        }
    )
    report = run(cfg, seed=7).report
    assert report.spam["conflict_sets"] > 10
    assert report.spam["inclusions"] > 0
    assert report.spam["normalized"] == 1.0


def test_spam_with_jitter_compares_with_its_no_jitter_twin():
    # the run was once reported as its own baseline, normalized 1.0
    cfg = {
        "duration": 10.0,
        "topology": {"nodes": 4, "degree": 2, "delay_s": 0.1},
        "prism": {"m": 10, "rate_voter_per_chain": 0.3, "rate_tx": 20.0, "rate_prop": 0.2},
        "workload": {"tps": 0.0},
        "spam": {"enabled": True, "tps": 2.0, "jitter": {"kind": "uniform"}},
    }
    spam = run(resolve(cfg), seed=7).report.spam
    cfg["spam"]["jitter"]["kind"] = "none"
    twin = run(resolve(cfg), seed=7).report.spam
    assert spam["inclusions"] > 0 and spam["baseline_inclusions"] == twin["inclusions"] > 0
    assert spam["normalized"] == spam["inclusions"] / spam["baseline_inclusions"]


def test_spam_jitter_reduces_inclusions():
    base = {
        "duration": 25.0,
        "topology": {"nodes": 8, "degree": 4, "delay_s": 0.12},
        "prism": {"m": 10, "rate_voter_per_chain": 0.3, "rate_tx": 60.0, "rate_prop": 0.2},
        "workload": {"tps": 0.0},
        "spam": {"enabled": True, "tps": 2.0, "jitter": {"kind": "uniform", "max_s": 5.0}},
    }
    report = run(resolve(base), seed=9).report
    assert report.spam["normalized"] is not None
    assert report.spam["normalized"] < 0.6
    assert report.spam["baseline_inclusions"] > report.spam["inclusions"]
