import json
import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import prismsim
from prismsim.confirmation import LatencySample
from prismsim.metrics import latency_stats

LATENCIES = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
# plain lists, and lists drawn from a few values so that repeats are common
SAMPLES = st.one_of(
    st.lists(LATENCIES, min_size=1, max_size=500),
    st.lists(LATENCIES, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=500)
    ),
)


@settings(max_examples=300, deadline=None)
@given(SAMPLES)
def test_latency_stats_match_numpy_bit_for_bit(latencies):
    # mined at the steady-state cutoff, so each latency is its confirmation time
    samples = [LatencySample(b"", 0.0, x) for x in latencies]
    stats = latency_stats(samples, 0.0)
    arr = np.asarray(latencies)
    assert stats["median_s"].hex() == float(np.median(arr)).hex()
    assert stats["p95_s"].hex() == float(np.percentile(arr, 95)).hex()
    assert stats["mean_s"].hex() == float(arr.mean()).hex()
    assert stats["samples"] == len(latencies)


def test_latency_stats_count_only_the_steady_window():
    samples = [LatencySample(b"", 1.0, 3.0), LatencySample(b"", 5.0, 6.0), LatencySample(b"", 7.0, 10.0)]
    assert latency_stats(samples, 5.0) == {"median_s": 2.0, "p95_s": 2.9, "mean_s": 2.0, "samples": 2}
    assert latency_stats(samples, 8.0) == {"median_s": None, "p95_s": None, "mean_s": None, "samples": 0}


_DESK_RUN = """
import json, sys
import prismsim.adversary, prismsim.cli
from prismsim.config import resolve
from prismsim.netsim import run
report = run(resolve({"duration": 30.0}), 0).report
print(json.dumps([report.latency["samples"], sorted(
    m for m in ("numpy", "numpy.ma", "concurrent.futures") if m in sys.modules
)]))
"""


def test_a_run_imports_no_masked_arrays_and_no_pools():
    """numpy (the run draws from ``prismsim.rng``), its masked arrays
    (which np.median imports) and the executors (parallel sanitization,
    batch runs) stay out of a run's process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(prismsim.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _DESK_RUN], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    samples, imported = json.loads(proc.stdout)
    assert samples > 0
    assert imported == []
