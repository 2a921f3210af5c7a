"""Benchmark for prismsim: host time, memory and checked outputs per workload.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --digests --seed 0

A run repeats rounds of the workload's fixed simulations, each round in a
fresh process (``worker.py``), until the next round would overrun
``--seconds``.  At least three rounds run with ``--trace 0``; with
``--trace 1``, at least one untraced and one traced round.  Every
simulation's outputs are checked (``checks.py``) and its digest must
equal the first round's; a crash, a failed check or a differing digest
counts as a failed operation.  ``--trace 0`` reports medians over rounds
of the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics.  The last line of standard
output is one JSON object.  ``--digests`` prints each workload's
per-seed digests once, so two versions of the program can be compared
for identical behaviour.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
SIMULATED = {"sim_confirmed_tps": "tx/sim-s", "sim_latency_median_s": "sim-s"}
# per-function metrics: "<layer>.<function>" as the tracer names them
TRACED_FUNCTIONS = (
    "mining.honest_context",
    "mining.finish_mining",
    "merkle.merkle_root",
    "merkle.merkle_prove",
    "merkle.merkle_verify",
    "blocks.validate_block",
    "chain.has_block",
    "chain.get_block",
    "chain.receive_block",
    "chain.receive_transaction",
    "confirmation.evaluate",
    "confirmation.make_tally",
    "ledger.execute",
    "crypto.verify",
    "baseline.receive_block",
    "baseline.mineable_txs",
    "baseline.add_transaction",
    "adversary.build_context",
    "adversary.handle_mined",
    "adversary.handle_block",
)


def run_round(workload: str, seed: int, trace: bool) -> dict:
    """Run one round in a fresh process; exit without a result if it fails."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"round of {workload} exceeded {ROUND_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"round of {workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def run_rounds(workload: str, seed: int, seconds: float, kinds: tuple[bool, ...], min_rounds: int) -> list[dict]:
    """Repeat the sequence of rounds ``kinds`` (trace flags) until at least
    ``min_rounds`` ran, and again while the next repetition fits in
    ``seconds``."""
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        before = time.monotonic()
        for trace in kinds:
            rounds.append(dict(run_round(workload, seed, trace), traced=trace))
        took = time.monotonic() - before
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed + took > seconds:
            return rounds


def tally(rounds: list[dict]) -> tuple[int, int, bool, dict[int, str]]:
    """(attempted, failed, correct, first-round digests) over all rounds."""
    first = {s["seed"]: s["digest"] for s in rounds[0]["sims"]}
    attempted = failed = 0
    correct = True
    for r in rounds:
        for s in r["sims"]:
            attempted += 1
            problems = list(s["failures"])
            if s["error"] is None and s["digest"] != first[s["seed"]]:
                problems.append(f"digest {s['digest']} differs from the first round's {first[s['seed']]}")
            if s["failures"]:
                correct = False
            if problems or s["error"] is not None:
                failed += 1
                for p in problems:
                    print(f"FAILED seed {s['seed']}: {p}")
    return attempted, failed, correct, first


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def end_to_end(rounds: list[dict]) -> dict:
    return {name: {"value": median_of(rounds, name), "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(rounds: list[dict]) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    calls = traced[0]["calls"]

    def self_s(name: str) -> float:
        return statistics.median(r["self_s"].get(name, 0.0) for r in traced)

    def layer_s(layer: str) -> float:
        return statistics.median(
            sum(s for n, s in r["self_s"].items() if n.split(".", 1)[0] == layer) for r in traced
        )

    events = sum(s["events"] for s in plain[0]["sims"])
    untraced_run_s = median_of(plain, "host_run_s")
    new_blocks = calls.get("blocks.validate_block", 0) + calls.get("baseline.receive_block", 0) - calls.get("baseline.record_mined", 0)
    receipts = calls.get("netsim.on_block", 0) + calls.get("baseline.on_block", 0)
    mined = calls.get("netsim.record_mined", 0) + calls.get("baseline.record_mined", 0)
    completions = calls.get("netsim.on_mining_complete", 0) + calls.get("baseline.on_mining_complete", 0)
    metrics = {
        "netsim.events": (events, "count"),
        "netsim.events_per_s": (events / untraced_run_s, "1/s"),
        "netsim.arrive_useful_ratio": (new_blocks / receipts if receipts else 0.0, "ratio"),
        "mining.useful_ratio": (mined / completions if completions else 0.0, "ratio"),
        "netsim.build_topology.s": (self_s("netsim.build_topology"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_s(layer), "s")
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.s"] = (self_s(name), "s")
    for name, unit in SIMULATED.items():
        metrics[name] = (plain[0][name], unit)
    traced_run_s = median_of(traced, "host_run_s")
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def print_profile(rounds: list[dict], limit: int = 15) -> None:
    traced = [r for r in rounds if r["traced"]]
    total = median_of(traced, "host_run_s")
    ranked = sorted(traced[0]["self_s"].items(), key=lambda kv: -kv[1])[:limit]
    print(f"top self time of {len(traced[0]['self_s'])} traced functions (first traced round):")
    for name, seconds in ranked:
        print(f"  {name:40s} {seconds:9.3f} s {100 * seconds / total:5.1f}%  {traced[0]['calls'][name]:>9d} calls")


def save(name: str, payload: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def benchmark(args) -> None:
    if args.trace:
        rounds = run_rounds(args.workload, args.seed, args.seconds, (False, True), 2)
    else:
        rounds = run_rounds(args.workload, args.seed, args.seconds, (False,), MIN_ROUNDS)
    attempted, failed, correct, digests = tally(rounds)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    plain = [r for r in rounds if not r["traced"]]

    print(f"workload {args.workload}: seed {args.seed}, simulation seeds {sorted(digests)}, "
          f"{len(plain)} untraced and {len(rounds) - len(plain)} traced rounds")
    if args.trace:
        print_profile(rounds)
    else:
        print(f"  {'host_run_s':40s} {median_of(plain, 'host_run_s'):14.6g} s (raw host seconds)")
        for name, unit in SIMULATED.items():
            print(f"  {name:40s} {plain[0][name]:14.6g} {unit} (simulated; "
                  f"{plain[0]['latency_samples']} latency samples)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  simulations attempted {attempted}, failed {failed}")
    for seed, digest in digests.items():
        print(f"  digest seed {seed}: {digest}")
    save(f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json",
         {"rounds": rounds, "metrics": metrics, "attempted": attempted, "failed": failed})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def print_digests(args) -> None:
    names = [args.workload] if args.workload else list(WORKLOADS)
    failed = False
    for name in names:
        for sim in run_round(name, args.seed, trace=False)["sims"]:
            status = "ok" if sim["error"] is None and not sim["failures"] else "FAILED"
            failed |= status != "ok"
            print(f"{name:14s} seed {sim['seed']:6d} {sim['digest']} {status}")
    if failed:
        raise SystemExit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true", help="print per-seed digests and exit")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.digests:
        print_digests(args)
    elif args.workload is None:
        parser.error("--workload is required unless --digests is given")
    else:
        benchmark(args)


if __name__ == "__main__":
    main()
