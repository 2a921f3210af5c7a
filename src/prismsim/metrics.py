"""Run metrics: report schema shared by both protocols.

Every field is present for every protocol/scenario combination; fields
that do not apply carry null.  Wall-clock data lives in its own
sub-object so determinism checks can ignore it.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np


def latency_stats(samples, steady_start: float) -> dict:
    """Median/p95/mean confirmation latency over steady-state samples.

    A sample's latency runs from the mining of its containing block to
    its confirmation; only transactions whose block was mined after the
    steady-state cutoff count.
    """
    lat = [
        s.confirmed_at - s.mined_at
        for s in samples
        if s.mined_at >= steady_start
    ]
    if not lat:
        return {"median_s": None, "p95_s": None, "mean_s": None, "samples": 0}
    arr = np.asarray(lat)
    return {
        "median_s": float(np.median(arr)),
        "p95_s": float(np.percentile(arr, 95)),
        "mean_s": float(arr.mean()),
        "samples": int(arr.size),
    }


@dataclass
class MetricsReport:
    protocol: str
    seed: int
    config_digest: str
    duration: float
    steady_state_start: float
    topology: dict
    blocks: dict
    throughput: dict
    latency: dict
    forking: dict
    confirmation: dict
    attack: dict
    spam: dict
    mempool_final: int
    invalid_blocks: int
    conservation_ok: bool
    wallclock: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def deterministic_dict(self) -> dict:
        """Report content minus wall-clock metadata, for replay comparison."""
        out = self.to_dict()
        out.pop("wallclock")
        return out
