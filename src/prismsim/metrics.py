"""Run metrics: report schema shared by both protocols.

Every field is present for every protocol/scenario combination; fields
that do not apply carry null.  Wall-clock data lives in its own
sub-object so determinism checks can ignore it.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any


def _percentile(ordered: list[float], q: float) -> float:
    """``np.percentile(ordered, 100 * q)`` by numpy's default ``linear``
    method, bit for bit: virtual index ``(n - 1) * q`` between its floor
    and the next element, the last element at or past the end, and the
    interpolation taken from the nearer end as numpy's ``_lerp`` does."""
    index = (len(ordered) - 1) * q
    if index >= len(ordered) - 1:
        return ordered[-1]
    below = math.floor(index)
    a, b, t = ordered[below], ordered[below + 1], index - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    """numpy's pairwise sum of ``values[start:start + n]``, bit for bit:
    in order below 8 values, in 8 strided accumulators up to 128, and
    above that the two halves, split at a multiple of 8, summed apart."""
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        acc = values[start:start + 8]
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _sum(values: list[float]) -> float:
    """``np.sum`` of a list of floats: the pairwise sum added to the
    reduction's start, 0.0 (which turns a sum of -0.0 into 0.0)."""
    return 0.0 + _pairwise_sum(values, 0, len(values))


def mean(values: list[float]) -> float:
    """``np.mean`` of a non-empty list of floats, bit for bit."""
    return _sum(values) / len(values)


def sample_std(values: list[float]) -> float:
    """``np.std(values, ddof=1)`` of two or more floats, bit for bit: the
    squared deviations from the mean summed as numpy sums them."""
    centre = mean(values)
    return math.sqrt(_sum([(x - centre) * (x - centre) for x in values]) / (len(values) - 1))


def latency_stats(samples, steady_start: float) -> dict:
    """Median/p95/mean confirmation latency over steady-state samples.

    A sample's latency runs from the mining of its containing block to
    its confirmation; only transactions whose block was mined after the
    steady-state cutoff count.  The median, p95 and mean equal
    ``np.median``, ``np.percentile(..., 95)`` and ``np.mean`` bit for
    bit, without numpy.
    """
    lat = [
        s.confirmed_at - s.mined_at
        for s in samples
        if s.mined_at >= steady_start
    ]
    if not lat:
        return {"median_s": None, "p95_s": None, "mean_s": None, "samples": 0}
    ordered = sorted(lat)
    half = len(ordered) // 2
    # np.median averages the two middle values as a sum over two
    median = ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2
    return {
        "median_s": median,
        "p95_s": _percentile(ordered, 0.95),
        "mean_s": mean(lat),
        "samples": len(lat),
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
