"""Alternating parent/change measurements, written to ``BENCH_<PR>.json``.

    python3 tools/bench_pairs.py --pr 20 --seed 7 --pairs 10 \\
        --change "what the change does" --claim run_s:desk

The parent is the tree committed at ``--base`` (default ``HEAD``),
extracted with ``git archive`` into a fresh directory, so the
repository's own metadata is left as it is; the change is the working
tree.  Sections (``--sections``, default all of them):

- ``pairs``: ``perfbench/run.py --workload W --seed S --seconds T
  --trace 0`` in each tree, alternately (parent first in even pairs),
  pairs interleaved across workloads.  Each pair records the
  benchmark's medians over its rounds and ``host_run_s`` (the median of
  the rounds' unscaled run seconds); the summary gives the median and
  quartiles over pairs and in how many pairs the change was lower.
- ``digests``: ``perfbench/run.py --digests`` at seeds 0 and 1 in
  both trees, and whether the two print the same lines.
- ``long``: the long runs below, each ``Simulation.run()`` in a fresh
  process, alternately: set-up seconds (building the ``Simulation``)
  and peak RSS after set-up, run seconds, the collector's seconds and
  passes during the run (``gc.callbacks``), peak RSS and the digest of
  the report and confirmation trace.
- ``serial``: criterion 3's config (the double-spend workload's) at
  seeds 0-19, run back to back in one fresh interpreter per tree,
  alternately: peak RSS after the first and after the last run, the
  objects ``gc.collect()`` frees after the last, the wall time and one
  digest over the reports.
- ``tier1``: the tier-1 suite in each tree, back to back, parent first.

An existing output file is updated: sections that did not run keep
their values.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("desk", "paper-shape", "double-spend", "longest-chain")
END_TO_END = ("setup_s", "run_s", "peak_rss_mb", "host_run_s")
SECTIONS = ("pairs", "digests", "long", "serial", "tier1")
SERIAL_SEEDS = range(20)

# name -> (profile, overlay, seed)
LONG_RUNS = {
    "paper_shape_300s": ("paper-shape", {"duration": 300.0}, 0),
    "100_nodes_40s": ("desk", {"duration": 40.0, "topology": {"nodes": 100, "degree": 6}}, 0),
    "1000_nodes_10s": ("desk", {"duration": 10.0, "topology": {"nodes": 1000, "degree": 6}}, 0),
    "paper_shape_1000_nodes_10s": (
        "paper-shape", {"duration": 10.0, "topology": {"nodes": 1000, "degree": 6}}, 0
    ),
}

# run in a fresh interpreter with the tree's src on the path
_LONG_RUN = """
import gc, hashlib, json, resource, sys, time
from prismsim.config import resolve
from prismsim.netsim import Simulation
profile, overlay, seed = json.loads(sys.argv[1])
started = time.perf_counter()
sim = Simulation(resolve(overlay, profile=profile), seed)
setup_s = time.perf_counter() - started
setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
collector = {"s": 0.0, "passes": 0, "full_passes": 0, "started": 0.0}
def timer(phase, info):
    if phase == "start":
        collector["started"] = time.perf_counter()
    else:
        collector["s"] += time.perf_counter() - collector["started"]
        collector["passes"] += 1
        collector["full_passes"] += info["generation"] == 2
gc.callbacks.append(timer)
started = time.perf_counter()
result = sim.run()
run_s = time.perf_counter() - started
gc.callbacks.remove(timer)
body = {"report": result.report.deterministic_dict(), "trace": sim.engine.trace}
print(json.dumps({
    "setup_s": round(setup_s, 3),
    "setup_rss_mb": round(setup_rss_mb, 1),
    "run_s": round(run_s, 3),
    "collector_s": round(collector["s"], 3),
    "collector_passes": collector["passes"],
    "full_passes": collector["full_passes"],
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "digest": hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest(),
}))
"""

# criterion 3's runs back to back in one interpreter, each result dropped
# before the next run; run with the tree's src and perfbench on the path
_SERIAL_RUNS = """
import gc, hashlib, json, resource, sys, time
from prismsim.config import resolve
from prismsim.netsim import run
from workloads import DOUBLE_SPEND
cfg = resolve(DOUBLE_SPEND)
gc.collect()  # the imports' garbage: the count after the last run is the runs' own
digest = hashlib.sha256()
peaks = []
started = time.perf_counter()
for seed in json.loads(sys.argv[1]):
    result = run(cfg, seed)
    digest.update(json.dumps(result.report.deterministic_dict(), sort_keys=True).encode())
    result = None
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
wall_s = time.perf_counter() - started
print(json.dumps({
    "first_peak_rss_mb": round(peaks[0], 1),
    "last_peak_rss_mb": round(peaks[-1], 1),
    "collected_after_last": gc.collect(),
    "wall_s": round(wall_s, 3),
    "digest": digest.hexdigest(),
}))
"""


def extract(rev: str, workdir: str) -> str:
    """The files committed at ``rev``, in a new directory under ``workdir``."""
    target = tempfile.mkdtemp(prefix="parent-", dir=workdir)
    archive = os.path.join(target, "tree.tar")
    subprocess.run(["git", "archive", "--output", archive, rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(target)
    os.remove(archive)
    return target


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``, summarized."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = last_json(proc.stdout)
    with open(os.path.join(tree, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")) as fh:
        rounds = json.load(fh)["rounds"]
    probes = [r["probes"] for r in rounds]
    row = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
    row.update(
        host_run_s=round(statistics.median(r["host_run_s"] for r in rounds), 4),
        rounds=len(rounds),
        events=sum(s["events"] for s in rounds[0]["sims"]),
        attempted=result["attempted"],
        failed=result["failed"],
        correct=int(result["correct"]),
        probes_per_round_min_max=[min(probes), max(probes)],
    )
    return row


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs: list[dict]) -> dict:
    summary = {}
    for name in END_TO_END:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        summary[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_lower_in": f"{lower}/{len(pairs)}",
        }
    for name in ("failed", "attempted"):
        summary[name] = {side: sum(p[side][name] for p in pairs) for side in ("parent", "change")}
    return summary


def sides(pair: int) -> tuple[str, str]:
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def run_pairs(trees: dict, args) -> dict:
    pairs: dict[str, list] = {w: [] for w in args.workloads}
    for i in range(args.pairs):
        for workload in args.workloads:
            pair = {"first": sides(i)[0]}
            for side in sides(i):
                pair[side] = bench(trees[side], workload, args.seed, args.seconds)
            pairs[workload].append(pair)
            print(f"pair {i} {workload}: run_s parent {pair['parent']['run_s']} "
                  f"change {pair['change']['run_s']}", flush=True)
    return {
        f"{w}-seed{args.seed}": {"pairs": rows, "summary": summarize(rows)} for w, rows in pairs.items()
    }


def run_digests(trees: dict) -> dict:
    out = {}
    for seed in (0, 1):
        printed = {
            side: subprocess.run(
                [sys.executable, "perfbench/run.py", "--digests", "--seed", str(seed)],
                cwd=tree, capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            for side, tree in trees.items()
        }
        out[f"seed{seed}"] = {"same": printed["parent"] == printed["change"], "change": printed["change"]}
    return out


def long_run(tree: str, spec: tuple) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    proc = subprocess.run([sys.executable, "-c", _LONG_RUN, json.dumps(spec)],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    return last_json(proc.stdout)


def run_long(trees: dict, args) -> dict:
    out = {}
    for name in args.long:
        profile, overlay, seed = LONG_RUNS[name]
        rows: dict[str, list] = {"parent": [], "change": []}
        for i in range(args.long_pairs):
            for side in sides(i):
                rows[side].append(long_run(trees[side], (profile, overlay, seed)))
                print(f"{name} {side}: {rows[side][-1]}", flush=True)
        digests = {r["digest"] for side in rows.values() for r in side}
        out[name] = {
            "config": {"profile": profile, "overlay": overlay, "seed": seed},
            **{key: {side: [r[key] for r in runs] for side, runs in rows.items()}
               for key in ("setup_s", "setup_rss_mb", "run_s", "collector_s", "collector_passes",
                           "full_passes", "peak_rss_mb")},
            "same_digest": len(digests) == 1,
            "digest": sorted(digests),
        }
    return out


def serial_run(tree: str) -> dict:
    path = os.pathsep.join(os.path.join(tree, d) for d in ("src", "perfbench"))
    proc = subprocess.run([sys.executable, "-c", _SERIAL_RUNS, json.dumps(list(SERIAL_SEEDS))],
                          cwd=tree, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return last_json(proc.stdout)


def run_serial(trees: dict, args) -> dict:
    rows: dict[str, list] = {"parent": [], "change": []}
    for i in range(args.long_pairs):
        for side in sides(i):
            rows[side].append(serial_run(trees[side]))
            print(f"serial {side}: {rows[side][-1]}", flush=True)
    digests = {r["digest"] for side in rows.values() for r in side}
    return {
        **{key: {side: [r[key] for r in runs] for side, runs in rows.items()}
           for key in ("first_peak_rss_mb", "last_peak_rss_mb", "collected_after_last", "wall_s")},
        "same_digest": len(digests) == 1,
    }


def run_tier1(trees: dict) -> dict:
    out = {}
    for side in ("parent", "change"):
        env = {**os.environ, "PYTHONPATH": os.path.join(trees[side], "src")}
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
            cwd=trees[side], env=env, capture_output=True, text=True,
        )
        tail = proc.stdout.strip().splitlines()[-1]
        counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", tail)}
        wall = re.search(r"in ([\d.]+)s", tail)
        out[side] = {**counts, "wall_s": float(wall.group(1)) if wall else None,
                     "host_wall_s": round(time.monotonic() - started, 1)}
        print(f"tier-1 {side}: {tail}", flush=True)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<PR>.json at the repository root")
    parser.add_argument("--base", default="HEAD", help="the parent commit")
    parser.add_argument("--sections", default=",".join(SECTIONS))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--long", default=",".join(LONG_RUNS))
    parser.add_argument("--long-pairs", type=int, default=3, help="alternating pairs of long and serial runs")
    parser.add_argument("--change", help="one line on what the change does")
    parser.add_argument("--claim", help="metric:workload the change claims to improve")
    parser.add_argument("--workdir", default=None, help="where the parent is extracted")
    args = parser.parse_args()
    sections = args.sections.split(",")
    args.workloads = args.workloads.split(",")
    args.long = args.long.split(",")

    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    out = json.load(open(path)) if os.path.exists(path) else {}
    out["parent"] = subprocess.run(["git", "rev-parse", "--short", args.base], cwd=ROOT,
                                   capture_output=True, text=True, check=True).stdout.strip()
    trees = {"parent": extract(args.base, args.workdir), "change": ROOT}
    try:
        measure(out, trees, sections, args)
    finally:
        shutil.rmtree(trees["parent"])
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def measure(out: dict, trees: dict, sections: list[str], args) -> None:
    if args.change:
        out["change"] = args.change
    out["host"] = f"{os.cpu_count()}-core {platform.system()}, Python {platform.python_version()}"
    if args.claim:
        metric, workload = args.claim.split(":")
        out["claimed"] = {"metric": metric, "workload": workload, "seeds": [args.seed]}
    if "pairs" in sections:
        out["command"] = (f"python3 perfbench/run.py --workload <workload> --seed {args.seed} "
                          f"--seconds {args.seconds:g} --trace 0")
        out["method"] = (f"{args.pairs} alternating parent/change pairs per workload (parent first in "
                         "even pairs, pairs interleaved across workloads), each tree in its own "
                         "directory; values are the benchmark's medians over its rounds (host_run_s: "
                         "median over rounds of the unscaled run time); summary gives median and "
                         "quartiles over pairs")
        out["workloads"] = run_pairs(trees, args)
    if "digests" in sections:
        out["digests"] = run_digests(trees)
    if "long" in sections:
        out["long_runs"] = {
            "note": ("Simulation.run() in a fresh process per run, alternating pairs (parent first "
                     "in even pairs); setup_s times building the Simulation, and setup_rss_mb is the "
                     "peak RSS after it; collector seconds and passes from gc.callbacks during the "
                     "run; peak RSS from getrusage; digest over the report and confirmation trace"),
            **out.get("long_runs", {}), **run_long(trees, args),
        }
    if "serial" in sections:
        out["serial_runs"] = {
            "note": (f"criterion 3's config (perfbench/workloads.py DOUBLE_SPEND) at seeds "
                     f"{SERIAL_SEEDS.start}-{SERIAL_SEEDS.stop - 1} back to back in one fresh "
                     "interpreter per tree, alternating pairs (parent first in even pairs), each "
                     "result dropped before the next run; peak RSS (getrusage) after the first and "
                     "the last run, the objects gc.collect() frees after the last, wall seconds "
                     "of the 20 runs, and whether every run printed the same report digest"),
            **run_serial(trees, args),
        }
    if "tier1" in sections:
        out["tier1_wall_s"] = {
            "note": "python -m pytest -q --continue-on-collection-errors in each tree, back to back, parent first",
            **run_tier1(trees),
        }


if __name__ == "__main__":
    main()
