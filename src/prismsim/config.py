"""Experiment configuration: JSON schema, defaults, profiles, validation.

A config fully determines a run together with the seed.  ``resolve``
fills defaults and validates; errors name the offending field so the CLI
can exit with a useful diagnostic.
"""
from __future__ import annotations

import copy
import json
import math
import sys
from typing import Any

from .crypto import sha256


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


DEFAULTS: dict[str, Any] = {
    "protocol": "prism",
    "seed": 0,  # default stream; the CLI --seed flag overrides
    "duration": 60.0,
    "checkpoint_interval": 0.5,
    "signature_scheme": "mock",
    "topology": {
        "kind": "regular",  # regular | ring | complete
        "nodes": 20,
        "degree": 4,
        "delay_s": 0.12,
        "bandwidth_bytes_per_s": 1.25e6,  # 10 Mbit/s
    },
    "prism": {
        "m": 100,
        "rate_voter_per_chain": 0.4,
        "rate_tx": 1.0,
        "rate_prop": 0.25,
        "tx_block_capacity": 228,
        "beta": 0.3,
        "epsilon": 1e-3,
        "vote_rule": "first_seen",  # most_voted for the balancing defence
    },
    "longest_chain": {
        "rate": 0.25,
        "block_capacity": 228,
        "confirm_depth": 24,
    },
    "workload": {"tps": 20.0},
    "adversary": {
        "strategy": "none",  # none | private_double_spend | censorship | balancing
        "fraction": 0.0,
        "target_level": 1,
        "release_margin": 0,
        "release_timeout_fraction": 0.85,
    },
    "spam": {
        "enabled": False,
        "tps": 2.0,
        "jitter": {"kind": "none", "max_s": 5.0, "mean_s": 10.0},
    },
    "sizes": {
        "block_overhead_bytes": 500,
        "bytes_per_tx": 168,
        "bytes_per_ref": 32,
    },
    "allow_high_beta": False,
}

PROFILES: dict[str, dict] = {
    # desk scale: small graph, m=100, short runs
    "desk": {},
    # shape-matching profile: m=1000 voter chains, paper-style tx capacity
    "paper-shape": {
        "prism": {"m": 1000, "rate_voter_per_chain": 0.04},
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve(raw: dict | None = None, profile: str | None = None) -> dict:
    """Overlay profile and user config onto the defaults, then validate."""
    cfg = copy.deepcopy(DEFAULTS)
    if profile is not None:
        if profile not in PROFILES:
            raise ConfigError("profile", f"unknown profile {profile!r}")
        cfg = _deep_merge(cfg, PROFILES[profile])
    if raw:
        cfg = _deep_merge(cfg, raw)
    validate(cfg)
    return cfg


def _check_keys(cfg: dict, defaults: dict, prefix: str = "") -> None:
    """Reject keys the defaults do not have, and values of another type
    than their default's: counts and levels take integers, rates and
    times numbers, each finite and within the float range."""
    for key, value in cfg.items():
        name = prefix + key
        if key not in defaults:
            raise ConfigError(name, "unknown key")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(name, "must be an object")
            _check_keys(value, default, name + ".")
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(name, f"must be true or false, got {value!r}")
        elif isinstance(default, str):
            continue
        elif isinstance(value, bool):  # an int subclass, but no number here
            raise ConfigError(name, f"must be a number, got {value!r}")
        elif isinstance(default, float) and not isinstance(value, (int, float)):
            raise ConfigError(name, f"must be a number, got {value!r}")
        elif isinstance(default, int) and not isinstance(value, int):
            raise ConfigError(name, f"must be an integer, got {value!r}")
        elif not abs(value) <= sys.float_info.max:
            # NaN, the infinities and integers too large for a float: the
            # link model and the run-size bounds compute in floats
            raise ConfigError(name, f"must be finite and at most {sys.float_info.max:.4g} in magnitude")


def validate(cfg: dict) -> None:
    _check_keys(cfg, DEFAULTS)
    if cfg["seed"] < 0:
        raise ConfigError("seed", "must be >= 0")
    if cfg["protocol"] not in ("prism", "longest_chain"):
        raise ConfigError("protocol", f"must be 'prism' or 'longest_chain', got {cfg['protocol']!r}")
    if cfg["duration"] <= 0:
        raise ConfigError("duration", "must be > 0")
    if cfg["checkpoint_interval"] <= 0:
        raise ConfigError("checkpoint_interval", "must be > 0")
    if cfg["signature_scheme"] not in ("mock", "ed25519"):
        raise ConfigError("signature_scheme", "must be 'mock' or 'ed25519'")

    topo = cfg["topology"]
    if topo["kind"] not in ("regular", "ring", "complete"):
        raise ConfigError("topology.kind", f"unknown kind {topo['kind']!r}")
    if topo["nodes"] < 1:
        raise ConfigError("topology.nodes", "must be >= 1")
    if topo["degree"] < 0:
        raise ConfigError("topology.degree", "must be >= 0")
    if topo["kind"] == "regular":
        n, d = topo["nodes"], topo["degree"]
        if d >= n or (n * d) % 2 != 0:
            raise ConfigError("topology.degree", f"no {d}-regular graph on {n} nodes")
        # build_topology redraws until the graph is connected, which a
        # 0- or 1-regular graph never is beyond two nodes
        if n > 1 and d < min(2, n - 1):
            raise ConfigError("topology.degree", f"no connected {d}-regular graph on {n} nodes")
    if topo["delay_s"] < 0:
        raise ConfigError("topology.delay_s", "must be >= 0")
    if topo["bandwidth_bytes_per_s"] <= 0:
        raise ConfigError("topology.bandwidth_bytes_per_s", "must be > 0")

    prism = cfg["prism"]
    for key in ("rate_voter_per_chain", "rate_tx", "rate_prop"):
        if prism[key] <= 0:
            raise ConfigError(f"prism.{key}", "must be > 0")
    if prism["m"] < 1:
        raise ConfigError("prism.m", "must be >= 1")
    if not 0.0 < prism["beta"] < 0.5:
        raise ConfigError("prism.beta", "must lie in (0, 0.5)")
    if not 0.0 < prism["epsilon"] < 1.0:
        raise ConfigError("prism.epsilon", "must lie in (0, 1)")
    if prism["vote_rule"] not in ("first_seen", "most_voted"):
        raise ConfigError("prism.vote_rule", "must be 'first_seen' or 'most_voted'")
    if prism["tx_block_capacity"] < 1:
        raise ConfigError("prism.tx_block_capacity", "must be >= 1")

    lc = cfg["longest_chain"]
    if lc["rate"] <= 0:
        raise ConfigError("longest_chain.rate", "must be > 0")
    if lc["confirm_depth"] < 1:
        raise ConfigError("longest_chain.confirm_depth", "must be >= 1")
    if lc["block_capacity"] < 1:
        raise ConfigError("longest_chain.block_capacity", "must be >= 1")

    adv = cfg["adversary"]
    strategies = ("none", "private_double_spend", "censorship", "balancing")
    if adv["strategy"] not in strategies:
        raise ConfigError("adversary.strategy", f"must be one of {strategies}")
    if adv["strategy"] != "none":
        beta = adv["fraction"]
        if not 0 <= beta <= 1:
            raise ConfigError("adversary.fraction", "must lie in [0, 1]")
        if beta >= 0.5 and not cfg["allow_high_beta"]:
            raise ConfigError(
                "beta", f"adversary fraction {beta} >= 0.5 requires allow_high_beta"
            )
    if adv["target_level"] < 1:
        raise ConfigError("adversary.target_level", "must be >= 1")
    if adv["release_margin"] < 0:
        raise ConfigError("adversary.release_margin", "must be >= 0")
    if adv["release_timeout_fraction"] < 0:
        raise ConfigError("adversary.release_timeout_fraction", "must be >= 0")
    n = topo["nodes"]
    if adversarial_count(cfg) >= n:
        raise ConfigError("adversary.fraction", f"leaves no honest node among {n}")
    if adv["strategy"] == "balancing" and cfg["prism"]["vote_rule"] != "most_voted":
        raise ConfigError(
            "prism.vote_rule", "the balancing scenario requires the most_voted rule"
        )

    spam = cfg["spam"]
    if spam["enabled"]:
        if spam["tps"] <= 0:
            raise ConfigError("spam.tps", "must be > 0")
        if spam["jitter"]["kind"] not in ("none", "uniform", "exponential"):
            raise ConfigError("spam.jitter.kind", "must be none/uniform/exponential")
    # every transaction draws jitter, whether or not spam is enabled
    for key in ("max_s", "mean_s"):
        if spam["jitter"][key] < 0:
            raise ConfigError(f"spam.jitter.{key}", "must be >= 0")

    workload = cfg["workload"]
    if workload["tps"] < 0:
        raise ConfigError("workload.tps", "must be >= 0")

    for key, value in cfg["sizes"].items():
        if value < 0:
            raise ConfigError(f"sizes.{key}", "must be >= 0")

    # what a run builds (the genesis coins, one by one) and schedules
    duration = cfg["duration"]
    payments = _payment_rates(cfg)
    coins = {field: rate * duration * 1.25 for field, rate in payments.items()}
    rates = {**payments, "checkpoint_interval": 1.0 / cfg["checkpoint_interval"]}
    if cfg["protocol"] == "prism":
        rates["prism.rate_voter_per_chain"] = prism["m"] * prism["rate_voter_per_chain"]
        rates["prism.rate_tx"] = prism["rate_tx"]
        rates["prism.rate_prop"] = prism["rate_prop"]
    else:
        rates["longest_chain.rate"] = lc["rate"]
    events = {field: rate * duration for field, rate in rates.items()}
    chains = {"prism.m": n * prism["m"]} if cfg["protocol"] == "prism" else {}
    edges = {"regular": n * topo["degree"] // 2, "ring": n, "complete": n * (n - 1) // 2}[topo["kind"]]
    # set-up costs about 3 us and 360 bytes per genesis coin, 15-50 ns per
    # search step (one breadth-first search per node over every node and
    # adjacency entry; complete graphs cheapest, rings dearest) and 0.4 us
    # and 150 bytes per voter chain per node; events count the mining,
    # payment and checkpoint draws, not block arrivals
    for what, counts, limit in (
        ("genesis coins", coins, 10**6),
        ("events", events, 10**7),
        ("breadth-first search steps", {"topology.nodes": n * (n + 2 * edges)}, 5 * 10**7),
        ("per-node voter chains", chains, 10**6),
    ):
        if sum(counts.values()) > limit:
            raise ConfigError(max(counts, key=counts.get), f"the run would make over {limit} {what}")


def _payment_rates(cfg: dict) -> dict[str, float]:
    """Payments per second by field: the workload and, in Prism, spam."""
    rates = {"workload.tps": cfg["workload"]["tps"]}
    if cfg["protocol"] == "prism" and cfg["spam"]["enabled"]:
        rates["spam.tps"] = cfg["spam"]["tps"]
    return rates


def genesis_coin_count(cfg: dict) -> int:
    """Enough genesis coins for each payment stream over the run, with a
    25% margin."""
    return sum(math.ceil(tps * cfg["duration"] * 1.25) + 10 for tps in _payment_rates(cfg).values())


def adversarial_count(cfg: dict) -> int:
    """How many nodes, the last ones by id, run the adversary's strategy."""
    adv = cfg["adversary"]
    if adv["strategy"] in ("censorship", "balancing"):
        return round(adv["fraction"] * cfg["topology"]["nodes"])
    if adv["strategy"] == "private_double_spend" and adv["fraction"] > 0:
        return 1  # co-located: one node holds the whole fraction
    return 0


def config_digest(cfg: dict) -> str:
    """Stable digest of a resolved config, recorded in every report."""
    return sha256(json.dumps(cfg, sort_keys=True).encode()).hex()


def load_config(path: str, profile: str | None = None) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    return resolve(raw, profile=profile)
