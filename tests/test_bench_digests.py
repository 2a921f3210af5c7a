"""The benchmark's digest contract: every workload runs, passes its
checks and reproduces its report digests at benchmark seeds 0 and 1.
Configs that take paths the workloads do not (most_voted flips, frequent
voter reorgs, 100 nodes, the spam rule, 2000 tx/s) pin their digests
here too.

``perfbench/checks.py`` reads the program's objects (confirmed leaders,
their levels, ledgers); a change that breaks what it reads, or that
moves a digest, fails here rather than only in the benchmark.  A change
that moves these digests on purpose updates them and says why.
"""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import BALANCING_CFG

from prismsim.config import resolve
from prismsim.netsim import run

ROOT = Path(__file__).resolve().parent.parent

# Moved when seven unused config keys became constants: the report
# carries config_digest, a hash of the resolved config, which lost the
# keys.  With config_digest blanked, every report, confirmation trace
# and latency sample of seeds 0 and 1 is unchanged.
BENCH_DIGESTS = {
    0: [
        ("desk", 0, "8ee0734e88cd492983ae893c5aecee2b36be25bdb8aa8188c517be894092777c"),
        ("paper-shape", 0, "d4b27c5579f9f279de75c5e320839c641c4d30a146a63761a6814e7c15a8c93c"),
        ("double-spend", 0, "0dd717576d9ca9940fa91af4040b404414a12fcbe5007d8770f99e4b9d0dfd34"),
        ("double-spend", 1, "2377f7cc194936f53b9b5d0b52451f7174a1d5e5bb6708ea18cc315e6677abbe"),
        ("longest-chain", 0, "5c92ec50ff23f3f72a49e2562482fe50afbf86e4d6a25e4c9b66cad064bc2a65"),
        ("longest-chain", 1, "f1ad6fdebe20e4b13b205d86ac9db5d3873a51dc3492aa32247dfb1b0e3436ac"),
        ("longest-chain", 2, "46da015b6244c9a3485386d720b15133d875043a643d13b0c2152adb4a13ab67"),
    ],
    1: [
        ("desk", 1, "735c1d565fcef04e6f2f6de4373401629a75a4ba87ec3be12d4095a35b9329e3"),
        ("paper-shape", 1, "3f66851957edeb373e4c42c79ab757286cbbf10177e3fbe50bfb242a2d70c430"),
        ("double-spend", 2, "776b6bb9e80be0f68436eef6ac5695d6697b24c6688735c932b189f01e6893e6"),
        ("double-spend", 3, "fd0b19cff8f92d0ad93b1bb0aac82351d22245273e978b2d27fc71e4725926e0"),
        ("longest-chain", 3, "cc281ec8ff9fe7f1e311ae9046da2320ff4aa68c5fa5334e232acba34c441edd"),
        ("longest-chain", 4, "2a4e3c5719438d38b2afdcb2a7006e8b577250e8cadcfd3e66f1378d0fc4b902"),
        ("longest-chain", 5, "754f25a550cd54499b21f795fc6e676906bbd33d460639cc1603a41f64fd0fb6"),
    ],
}


@pytest.mark.parametrize("bench_seed", sorted(BENCH_DIGESTS))
def test_benchmark_digests_at_seed(bench_seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--digests", "--seed", str(bench_seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    rows = [line.split() for line in proc.stdout.splitlines() if line.strip()]
    expected = BENCH_DIGESTS[bench_seed]
    assert [(name, int(seed), digest) for name, _, seed, digest, _ in rows] == expected
    assert [status for *_, status in rows] == ["ok"] * len(expected)


# Paths the benchmark does not run.  On criterion 8's config, balancing
# at 0.25 flips most_voted choices (seed 1: 25 flips and 8 voter reorgs
# across nodes; seed 0 has neither), and a ring with one-second links and
# no adversary reorgs voter chains often (seed 1: 154 reorgs).  The desk
# profile on 100 nodes of degree 6 is the node axis: gossip races between
# many peers, where the benchmark's graphs have at most 20 nodes.  Spam
# is criterion 9's uniform-jitter setup with honest payments beside it:
# the spam rule drops mempool transactions whose coins a stored block
# spends (seed 0: 37 conflict sets).  High-tps is the desk profile at
# 2000 tx/s with room in the blocks: thousands of transactions per block
# through every node's coin index.
GUARD_CFGS = {
    "balancing": {
        **BALANCING_CFG,
        "duration": 20.0,
        "adversary": {"strategy": "balancing", "fraction": 0.25},
    },
    "slow-ring": {
        **BALANCING_CFG,
        "duration": 40.0,
        "topology": {"kind": "ring", "nodes": 8, "delay_s": 1.0},
    },
    "desk-100": {"duration": 10.0, "topology": {"nodes": 100, "degree": 6}},
    "spam": {
        "duration": 15.0,
        "topology": {"kind": "regular", "nodes": 20, "degree": 4, "delay_s": 0.12},
        "prism": {"m": 10, "rate_voter_per_chain": 0.3, "rate_tx": 160.0, "rate_prop": 0.2},
        "workload": {"tps": 5.0},
        "spam": {"enabled": True, "tps": 2.0, "jitter": {"kind": "uniform", "max_s": 5.0}},
    },
    "high-tps": {
        "duration": 5.0,
        "workload": {"tps": 2000.0},
        "prism": {"rate_tx": 5.0, "tx_block_capacity": 2000},
    },
}
GUARD_DIGESTS = [
    ("balancing", 0, "75a12345dd5b23d9e9c98d1ef8001f5d7c8de861a4d06228262e86dd12f93754"),
    ("balancing", 1, "54a16fe5685aeeac5b8e21846ed6a90c20fcbc1b6d6f11673f8299d5fdddab1b"),
    ("slow-ring", 0, "aa62c8cf0850416ff4d32475a452c27c2ee66c14031755060afd3e87434e289d"),
    ("slow-ring", 1, "b7f50fad0c5e70d224ce8fda17707e56b917fc5907ce4a46db3cbfa697b6df1c"),
    ("desk-100", 0, "70efbb00091d3dac0fedaa39760c6f15b34a6ddba08ba144f6cb11b3fc880564"),
    ("spam", 0, "af05aeeb6ac84065faa1665b0d3ca75de777199a695aab1ecfd11fc1a316024f"),
    ("spam", 1, "800a8f538cc65c77dea821acb88d9fc6467d8811ea5051a117402d0396844ed2"),
    ("high-tps", 0, "57a03900305499c006043966da1fd9ff1ae8ee6a16618126480d9658f9178171"),
    ("high-tps", 1, "4316cb8982cc83cc43e3cddcc0947db7b199c8b46bc119dad2dbc9eda77547ad"),
]


@pytest.mark.parametrize("name, seed, digest", GUARD_DIGESTS)
def test_strategy_path_digests(name, seed, digest):
    """SHA-256 over the deterministic report and the confirmation trace."""
    result = run(resolve(GUARD_CFGS[name]), seed=seed)
    body = {"report": result.report.deterministic_dict(), "trace": result.sim.engine.trace}
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() == digest
