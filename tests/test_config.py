import copy
import signal
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from prismsim.config import DEFAULTS, PROFILES, ConfigError, config_digest, resolve
from prismsim.netsim import run


@pytest.mark.parametrize(
    "overlay, field",
    [
        ({"topolgy": {"nodes": 4}}, "topolgy"),
        ({"prism": {"rate_vote": 1.0}}, "prism.rate_vote"),
        ({"spam": {"jitter": {"maxs": 1.0}}}, "spam.jitter.maxs"),
        ({"topology": 5}, "topology"),
        ({"prism": {"tx_block_capacity": 0}}, "prism.tx_block_capacity"),
        ({"prism": {"tx_block_capacity": -1}}, "prism.tx_block_capacity"),
        ({"longest_chain": {"block_capacity": 0}}, "longest_chain.block_capacity"),
        # gone: the genesis coins are sized from the payment rates and the
        # coin value is a constant, so each key is unknown at any value
        ({"workload": {"genesis_coins": 0}}, "workload.genesis_coins"),
        ({"workload": {"genesis_coins": -1}}, "workload.genesis_coins"),
        ({"workload": {"coin_value": 0}}, "workload.coin_value"),
        ({"sizes": {"block_overhead_bytes": -500}}, "sizes.block_overhead_bytes"),
        ({"sizes": {"bytes_per_tx": -1}}, "sizes.bytes_per_tx"),
        ({"sizes": {"bytes_per_ref": -32}}, "sizes.bytes_per_ref"),
        ({"adversary": {"target_level": 0}}, "adversary.target_level"),
        # the other keys that are gone, at their old defaults
        ({"steady_state_fraction": 0.2}, "steady_state_fraction"),
        ({"workload": {"wallets": 16}}, "workload.wallets"),
        ({"spam": {"victims": 0}}, "spam.victims"),
        ({"spam": {"normalize": True}}, "spam.normalize"),
        ({"adversary": {"mine_competitors": True}}, "adversary.mine_competitors"),
    ],
)
def test_out_of_bounds_or_unknown_field_rejected_by_name(overlay, field):
    with pytest.raises(ConfigError) as err:
        resolve(overlay)
    assert err.value.field == field


def test_defaults_profiles_and_edge_values_still_resolve():
    assert resolve() == DEFAULTS
    assert config_digest(resolve()) == config_digest(DEFAULTS)
    for profile in PROFILES:
        resolve(profile=profile)
    edge = {
        "prism": {"tx_block_capacity": 1},
        "longest_chain": {"block_capacity": 1},
        "sizes": {"block_overhead_bytes": 0, "bytes_per_tx": 0, "bytes_per_ref": 0},
        "adversary": {"target_level": 1},
    }
    resolve(edge)
    # the paper's scale: 1000 nodes, at m = 1000 too
    for profile in PROFILES:
        resolve({"topology": {"nodes": 1000, "degree": 6}}, profile=profile)


SMALL_RUN = {"duration": 2.0, "topology": {"nodes": 4, "degree": 2}, "prism": {"m": 5}}


@pytest.mark.parametrize(
    "overlay, field",
    [
        # at exponential kind, Node.draw_jitter raised ValueError: scale < 0
        ({"spam": {"jitter": {"kind": "exponential", "mean_s": -1}}}, "spam.jitter.mean_s"),
        # at uniform kind, Node.draw_jitter raised ValueError: high - low < 0
        ({"spam": {"jitter": {"kind": "uniform", "max_s": -1}}}, "spam.jitter.max_s"),
        # sliced the last 3 honest nodes off the victim list (the key is
        # gone: every honest node is a victim)
        ({"spam": {"enabled": True, "victims": -3}}, "spam.victims"),
        # put the release deadline before the start of the run
        ({"adversary": {"release_timeout_fraction": -0.5}}, "adversary.release_timeout_fraction"),
        # default_rng raised ValueError: expected non-negative integer
        ({"seed": -1}, "seed"),
        # TypeError: a float where a count was used as an integer
        ({"topology": {"nodes": 3.5}}, "topology.nodes"),
        ({"prism": {"m": 5.5}}, "prism.m"),
        ({"workload": {"wallets": 2.5}}, "workload.wallets"),  # gone: 16 wallets
        # ValueError and OverflowError converting to an integer; json reads both
        ({"duration": float("nan")}, "duration"),
        ({"workload": {"tps": float("inf")}}, "workload.tps"),
        # TypeError comparing a string with a number
        ({"duration": "5"}, "duration"),
        # OverflowError: an integer too large for a float
        ({"duration": 10**400}, "duration"),
        # struct.error in u64 at the first payment's serialization (gone:
        # every coin is worth 10)
        ({"workload": {"coin_value": 2**64}}, "workload.coin_value"),
        # the genesis set was built coin by coin until memory ran out, or
        # OverflowError in to_bytes above 2**64 coins (the explicit count is
        # gone: the coins are sized from the payment rates)
        ({**SMALL_RUN, "workload": {"tps": 1e300}}, "workload.tps"),
        ({**SMALL_RUN, "workload": {"genesis_coins": 2**70}}, "workload.genesis_coins"),
        # mining or checkpoint events too close together to reach the end
        ({**SMALL_RUN, "prism": {"m": 5, "rate_tx": 1e300}}, "prism.rate_tx"),
        ({**SMALL_RUN, "checkpoint_interval": 1e-300}, "checkpoint_interval"),
        # ignored on ring and complete graphs, but no graph has a negative degree
        ({"topology": {"kind": "ring", "nodes": 4, "degree": -1}}, "topology.degree"),
        ({"topology": {"kind": "complete", "nodes": 4, "degree": -3}}, "topology.degree"),
        # released the private chain with no winning margin
        ({"adversary": {"release_margin": -1}}, "adversary.release_margin"),
        # gave the honest nodes negative hash power; at 1e6 the attacker's
        # blocks came too close together for a 2 s run to finish
        ({**SMALL_RUN, "allow_high_beta": True,
          "adversary": {"strategy": "private_double_spend", "fraction": 1.5}}, "adversary.fraction"),
        # set-up that would not finish: one breadth-first search per node
        # (about 40 min on a 100,000-node ring), the state of each voter
        # chain at each node, a key pair per wallet (gone: 16 wallets)
        ({"topology": {"kind": "ring", "nodes": 100_000}}, "topology.nodes"),
        ({"topology": {"nodes": 1000, "degree": 6}, "prism": {"m": 1001}}, "prism.m"),
        ({"workload": {"wallets": 10**5 + 1}}, "workload.wallets"),
        # each search visits every adjacency entry, so a complete graph's
        # set-up is cubic in the nodes: about 15 s at 1,000
        ({"topology": {"kind": "complete", "nodes": 1000}}, "topology.nodes"),
        # OverflowError: int too large to convert to float, at the first send
        ({**SMALL_RUN, "sizes": {"block_overhead_bytes": 10**400}}, "sizes.block_overhead_bytes"),
        ({**SMALL_RUN, "protocol": "longest_chain", "sizes": {"bytes_per_tx": 10**400}},
         "sizes.bytes_per_tx"),
    ],
)
def test_values_that_crashed_or_bent_a_run_rejected_by_name(overlay, field):
    with pytest.raises(ConfigError) as err:
        resolve(overlay)
    assert err.value.field == field


@pytest.mark.parametrize(
    "overlay",
    [
        # Simulation.__init__ raised StopIteration picking an honest observer
        {"topology": {"kind": "complete", "nodes": 1},
         "adversary": {"strategy": "private_double_spend", "fraction": 0.3}},
        {"topology": {"kind": "complete", "nodes": 2}, "allow_high_beta": True,
         "adversary": {"strategy": "censorship", "fraction": 0.9}},
        {"topology": {"kind": "complete", "nodes": 2}, "allow_high_beta": True,
         "prism": {"vote_rule": "most_voted"},
         "adversary": {"strategy": "balancing", "fraction": 1.0}},
    ],
    ids=["private_double_spend", "censorship", "balancing"],
)
def test_adversary_without_an_honest_node_rejected(overlay):
    with pytest.raises(ConfigError) as err:
        resolve(overlay)
    assert err.value.field == "adversary.fraction"


def test_adversary_leaving_one_honest_node_runs():
    for strategy, nodes, fraction in (("private_double_spend", 2, 0.3), ("censorship", 3, 0.7)):
        cfg = resolve({
            "duration": 2.0,
            "topology": {"kind": "complete", "nodes": nodes},
            "adversary": {"strategy": strategy, "fraction": fraction},
            "allow_high_beta": True,
        })
        result = run(cfg, seed=0)
        assert [n.adversarial for n in result.sim.nodes] == [False] + [True] * (nodes - 1)
        assert result.sim.observer == 0 and result.report.conservation_ok


@pytest.mark.parametrize(
    "topology",
    [
        # build_topology redrew a disconnected graph forever
        {"nodes": 4, "degree": 0},
        {"nodes": 4, "degree": 1},
        {"nodes": 6, "degree": 1},
        {"nodes": 2, "degree": 0},
        # networkx raised NetworkXError
        {"nodes": 4, "degree": -2},
        # ran on the one-node graph, but no graph has a negative degree
        {"nodes": 1, "degree": -2},
    ],
)
def test_regular_degree_without_a_connected_graph_rejected(topology):
    with pytest.raises(ConfigError) as err:
        resolve({"topology": {"kind": "regular", **topology}})
    assert err.value.field == "topology.degree"


def test_smallest_connected_regular_graphs_still_run():
    for topology in ({"nodes": 2, "degree": 1}, {"nodes": 1, "degree": 0}, {"nodes": 5, "degree": 2}):
        cfg = resolve({"duration": 2.0, "topology": {"kind": "regular", **topology}})
        assert run(cfg, seed=0).report.conservation_ok


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"run did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Small plausible ranges.  Degrees, the edges of beta and of the adversary
# fraction, and a few negative counts include values that validation must
# reject; the rest mostly run.  Node and chain counts, the graph kind
# and the vote rule are always set, so that no example falls back to the
# 20-node, m = 100 defaults and most examples reach a run: only regular
# graphs check the degree, and balancing needs the most_voted rule.
OVERLAYS = st.fixed_dictionaries(
    {
        "protocol": st.sampled_from(["prism", "longest_chain"]),
        "topology": st.fixed_dictionaries(
            {
                "nodes": st.integers(1, 6),
                "degree": st.integers(-1, 5),
                "kind": st.sampled_from(["regular", "ring", "complete"]),
            },
            optional={
                "delay_s": st.floats(0.0, 0.5),
                "bandwidth_bytes_per_s": st.floats(1e3, 2e6),
            },
        ),
        "workload": st.fixed_dictionaries(
            {},
            optional={"tps": st.floats(0.0, 30.0)},
        ),
        "prism": st.fixed_dictionaries(
            {"m": st.integers(1, 8), "vote_rule": st.sampled_from(["first_seen", "most_voted"])},
            optional={
                "rate_voter_per_chain": st.floats(0.01, 2.0),
                "rate_tx": st.floats(0.01, 2.0),
                "rate_prop": st.floats(0.01, 2.0),
                "tx_block_capacity": st.integers(1, 50),
                "beta": st.floats(0.0, 0.55),
                "epsilon": st.floats(1e-4, 0.5),
            },
        ),
        "longest_chain": st.fixed_dictionaries(
            {},
            optional={
                "rate": st.floats(0.01, 2.0),
                "block_capacity": st.integers(1, 50),
                "confirm_depth": st.integers(1, 6),
            },
        ),
        "adversary": st.fixed_dictionaries(
            {
                "strategy": st.sampled_from(
                    ["none", "private_double_spend", "censorship", "balancing"]
                ),
                "fraction": st.sampled_from([0.0, 0.3, 0.9, 1.0]) | st.floats(-0.1, 1.0),
            },
            optional={
                "target_level": st.integers(0, 3),
                "release_margin": st.integers(-1, 3),
                "release_timeout_fraction": st.floats(-0.1, 1.0),
            },
        ),
        "spam": st.fixed_dictionaries(
            {},
            optional={
                "enabled": st.booleans(),
                "tps": st.floats(0.0, 5.0),
                "jitter": st.fixed_dictionaries(
                    {},
                    optional={
                        "kind": st.sampled_from(["none", "uniform", "exponential"]),
                        "max_s": st.floats(-0.5, 3.0),
                        "mean_s": st.floats(-0.5, 3.0),
                    },
                ),
            },
        ),
        "allow_high_beta": st.booleans(),
    }
)


def _numeric_fields(defaults, prefix=""):
    for key, value in defaults.items():
        if isinstance(value, dict):
            yield from _numeric_fields(value, prefix + key + ".")
        elif not isinstance(value, (bool, str)):
            yield prefix + key


# at most one field per example gets an off-type, non-finite, fractional,
# huge or tiny value, so that most examples still reach a run
SPOILS = st.none() | st.tuples(
    st.sampled_from(sorted(_numeric_fields(DEFAULTS))),
    st.sampled_from([
        float("nan"), float("inf"), float("-inf"), "5", True, None, [], 2.5,
        10**400, 10**30, 1e300, 5e-324,
    ]),
)


@settings(max_examples=400, deadline=None)
@given(overlay=OVERLAYS, spoil=SPOILS, seed=st.integers(0, 3))
def test_fuzzed_config_rejected_by_name_or_runs_conserving(overlay, spoil, seed):
    overlay = {**copy.deepcopy(overlay), "duration": 3.0}
    if spoil is not None:
        name, value = spoil
        *sections, key = name.split(".")
        target = overlay
        for section in sections:
            target = target.setdefault(section, {})
        target[key] = value
    try:
        cfg = resolve(overlay)
    except ConfigError as err:
        assert err.field
        event(f"rejected by {err.field}")
        return
    event(f"ran {cfg['protocol']} {cfg['adversary']['strategy']}")
    with time_limit(10):
        report = run(cfg, seed).report
    assert report.conservation_ok
