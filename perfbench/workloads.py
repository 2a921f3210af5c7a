"""The benchmark's workloads: one fixed list of simulations per seed.

A workload maps the benchmark seed ``S`` to ``sims_per_round``
consecutive simulation seeds ``S*K .. S*K+K-1`` and one resolved config.
Everything the program sees is derived from that pair, so the same seed
always gives the same simulations.  Simulated durations are shorter than
the profiles' defaults (desk 60 s, criterion 4's longest chain 400 s)
so that one round takes four to eight host seconds on a 2-core machine:
a 30 s run then holds the three or more rounds whose medians and
repeated digests the runner needs.  README.md records the make-up of
each workload and why it was chosen.
"""
from __future__ import annotations

from dataclasses import dataclass

# criterion 3 of tests/test_acceptance.py: private double spend at beta 0.3
DOUBLE_SPEND = {
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

# criterion 4's longest-chain arm (k = 24 matches beta 0.3, epsilon 1e-3),
# with real signatures; 20 tps offered against 12.5 tps of capacity
LONGEST_CHAIN = {
    "protocol": "longest_chain",
    "duration": 30.0,
    "signature_scheme": "ed25519",
    "topology": {"nodes": 10, "degree": 4, "delay_s": 0.12},
    "longest_chain": {"rate": 0.25, "block_capacity": 50, "confirm_depth": 24},
    "workload": {"tps": 20.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str | None
    overlay: dict
    sims_per_round: int

    def sim_seeds(self, seed: int) -> list[int]:
        k = self.sims_per_round
        return [seed * k + i for i in range(k)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", "desk", {"duration": 30.0}, 1),
        Workload(
            "paper-shape",
            "paper-shape",
            {"duration": 8.0, "topology": {"kind": "complete", "nodes": 4}},
            1,
        ),
        Workload("double-spend", None, DOUBLE_SPEND, 2),
        # its cost follows the Poisson block count, so three seeds share a round
        Workload("longest-chain", None, LONGEST_CHAIN, 3),
    )
}
