import pytest

from prismsim.config import DEFAULTS, PROFILES, ConfigError, config_digest, resolve


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
        ({"workload": {"genesis_coins": 0}}, "workload.genesis_coins"),
        ({"workload": {"genesis_coins": -1}}, "workload.genesis_coins"),
        ({"workload": {"coin_value": 0}}, "workload.coin_value"),
        ({"sizes": {"block_overhead_bytes": -500}}, "sizes.block_overhead_bytes"),
        ({"sizes": {"bytes_per_tx": -1}}, "sizes.bytes_per_tx"),
        ({"sizes": {"bytes_per_ref": -32}}, "sizes.bytes_per_ref"),
        ({"adversary": {"target_level": 0}}, "adversary.target_level"),
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
        "workload": {"genesis_coins": 1, "coin_value": 1},
        "sizes": {"block_overhead_bytes": 0, "bytes_per_tx": 0, "bytes_per_ref": 0},
        "adversary": {"target_level": 1},
    }
    assert resolve(edge)["workload"]["genesis_coins"] == 1


@pytest.mark.parametrize(
    "overlay, field",
    [
        # at exponential kind, Node.draw_jitter raised ValueError: scale < 0
        ({"spam": {"jitter": {"kind": "exponential", "mean_s": -1}}}, "spam.jitter.mean_s"),
        # at uniform kind, Node.draw_jitter raised ValueError: high - low < 0
        ({"spam": {"jitter": {"kind": "uniform", "max_s": -1}}}, "spam.jitter.max_s"),
        # sliced the last 3 honest nodes off the victim list
        ({"spam": {"enabled": True, "victims": -3}}, "spam.victims"),
        # put the release deadline before the start of the run
        ({"adversary": {"release_timeout_fraction": -0.5}}, "adversary.release_timeout_fraction"),
    ],
)
def test_values_that_crashed_or_bent_a_run_rejected_by_name(overlay, field):
    with pytest.raises(ConfigError) as err:
        resolve(overlay)
    assert err.value.field == field
