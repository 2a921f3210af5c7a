"""The benchmark's digest contract: every workload runs, passes its
checks and reproduces its seed-0 report digests.

``perfbench/checks.py`` reads the program's objects (confirmed leaders,
their levels, ledgers); a change that breaks what it reads, or that
moves a digest, fails here rather than only in the benchmark.  A change
that moves these digests on purpose updates them and says why.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED_0_DIGESTS = [
    ("desk", 0, "09747fe3326bbd0021a06c709b7a71cd3aa0ce992a09cefa565ba3782186ee2b"),
    ("paper-shape", 0, "c7d7e8f86fc06096b4211a5553f501f7cd3634495cd105eafef13c217eacbd9b"),
    ("double-spend", 0, "e1d350131d1fe513cd78de328f45ac847df3b5a9c9bc9c061afe4a65d2cbc096"),
    ("double-spend", 1, "cb4c31edbf6d1991f3282adf490f9407f4eb9c0c239a0c27d00fe1e4fb819fac"),
    ("longest-chain", 0, "e70adb7a807de813ec9f5c8707c0f357f1b20279ce0c6ccf4d5a86791fe80fe3"),
    ("longest-chain", 1, "c245164a1b2035737ff11910a1de7ae1260caeb46c44e556e0649ed5e4ca00d0"),
    ("longest-chain", 2, "8fad90d417628d0548854a52a06f9b95a8fbf130f0fbe21d40d41340f99a798c"),
]


def test_benchmark_digests_at_seed_0():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--digests", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    rows = [line.split() for line in proc.stdout.splitlines() if line.strip()]
    assert [(name, int(seed), digest) for name, _, seed, digest, _ in rows] == SEED_0_DIGESTS
    assert [status for *_, status in rows] == ["ok"] * len(SEED_0_DIGESTS)
