"""Experiment driver: ``run`` one simulation, ``batch`` a seed sweep,
``curves`` for the analytic/empirical curve families.

Outputs under --out: report.json, metrics.csv (per-checkpoint series),
latency.csv (per-transaction samples) and confirmation-trace.jsonl (one
record per confirmation decision).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .adversary import spam_bound_exponential
from .baseline import nakamoto_reversal, prism_vote_aggregation
from .config import ConfigError, load_config, resolve
from .metrics import mean, sample_std
from .netsim import run as run_simulation
from .netsim import security_constraint


def _load(args) -> dict:
    if args.config:
        return load_config(args.config, profile=args.profile)
    return resolve(profile=args.profile)


def _write_run_outputs(result, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    report = result.report
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    sim = result.sim
    rows = sim.timeseries
    if rows:
        with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    samples = sim.latency_samples
    trace = sim.engine.trace if hasattr(sim, "engine") else []
    with open(os.path.join(out_dir, "latency.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tx", "mined_at", "confirmed_at", "latency_s"])
        for s in samples:
            writer.writerow([s.tx_digest.hex(), s.mined_at, s.confirmed_at, s.confirmed_at - s.mined_at])
    with open(os.path.join(out_dir, "confirmation-trace.jsonl"), "w") as fh:
        for record in trace:
            fh.write(json.dumps(record) + "\n")


def cmd_run(args) -> int:
    cfg = _load(args)
    seed = cfg["seed"] if args.seed is None else args.seed
    result = run_simulation(cfg, seed)
    _write_run_outputs(result, args.out)
    print(f"report written to {os.path.join(args.out, 'report.json')}")
    return 0


def _batch_worker(payload):
    cfg, seed = payload
    result = run_simulation(cfg, seed)
    return seed, result.report.to_dict()


_AGGREGATE_FIELDS = [
    ("throughput", "confirmed_sanitized_tps"),
    ("throughput", "confirmed_raw_tps"),
    ("throughput", "generated_tps"),
    ("latency", "median_s"),
    ("latency", "p95_s"),
    ("latency", "mean_s"),
    ("forking", "voter"),
    ("forking", "proposer"),
    ("forking", "chain"),
    ("confirmation", "reversals"),
]


def aggregate_reports(reports: list[dict]) -> dict:
    metrics = {}
    for section, key in _AGGREGATE_FIELDS:
        values = [float(r[section][key]) for r in reports if r[section][key] is not None]
        if not values:
            metrics[f"{section}.{key}"] = {"mean": None, "ci95": None, "n": 0}
            continue
        n = len(values)
        metrics[f"{section}.{key}"] = {
            "mean": mean(values),
            "ci95": 1.96 * sample_std(values) / math.sqrt(n) if n > 1 else 0.0,
            "n": n,
            "values": values,
        }
    successes = [r["attack"]["success"] for r in reports if r["attack"]["success"] is not None]
    reversals = sum(r["confirmation"]["reversals"] for r in reports)
    return {
        "runs": len(reports),
        "metrics": metrics,
        "attack_success_count": int(sum(bool(s) for s in successes)),
        "attack_runs": len(successes),
        "total_reversals": int(reversals),
    }


def run_batch(cfg: dict, seeds: list[int], workers: int | None = None) -> tuple[dict, list[dict]]:
    """Run a seed sweep (processes run concurrently) and aggregate."""
    reports: dict[int, dict] = {}
    workers = workers or min(len(seeds), os.cpu_count() or 1)
    if workers <= 1 or len(seeds) == 1:
        for seed in seeds:
            reports[seed] = run_simulation(cfg, seed).report.to_dict()
    else:
        # imported here: a single run never needs the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for seed, report in pool.map(_batch_worker, [(cfg, s) for s in seeds]):
                reports[seed] = report
    ordered = [reports[s] for s in seeds]
    return aggregate_reports(ordered), ordered


def cmd_batch(args) -> int:
    cfg = _load(args)
    first = cfg["seed"] if args.seed is None else args.seed
    seeds = [first + i for i in range(args.n)]
    aggregate, reports = run_batch(cfg, seeds, workers=args.workers)
    os.makedirs(args.out, exist_ok=True)
    aggregate["seeds"] = seeds
    with open(os.path.join(args.out, "aggregate.json"), "w") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
    runs_dir = os.path.join(args.out, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    for seed, report in zip(seeds, reports):
        with open(os.path.join(runs_dir, f"seed_{seed}.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    print(f"aggregate written to {os.path.join(args.out, 'aggregate.json')}")
    return 0


def _spam_curve_config(mean_s: float, delta: float, kind: str) -> dict:
    link_delay = max(delta - 0.2, 0.01)
    return resolve(
        {
            "duration": 40.0,
            "topology": {"kind": "complete", "nodes": 8, "delay_s": link_delay},
            "prism": {"m": 10, "rate_tx": 16.0, "rate_prop": 0.2, "rate_voter_per_chain": 0.2},
            "workload": {"tps": 0.0},
            "spam": {
                "enabled": True,
                "tps": 2.0,
                "jitter": {"kind": kind, "mean_s": mean_s, "max_s": mean_s},
            },
        }
    )


def cmd_curves(args) -> int:
    rows = []
    if args.kind == "reliability_depth":
        header = ["k", "longest_chain_reversal", "prism_aggregate_reversal"]
        for k in range(1, args.k_max + 1):
            p = nakamoto_reversal(k, args.beta)
            rows.append([k, p, prism_vote_aggregation(args.m, p)])
    elif args.kind == "utilization":
        header = ["beta", "max_f_delta", "utilization"]
        # the grid np.arange(0.05, 0.5, 0.05) gave: start + i * step
        for beta in (0.05 + i * 0.05 for i in range(9)):
            bound = security_constraint(beta)
            rows.append([round(beta, 2), bound, bound / args.hops])
    elif args.kind == "spam_jitter":
        header = ["jitter_mean_s", "analytic_bound", "simulated_normalized"]
        for mean_s in args.jitter_grid:
            bound = spam_bound_exponential(1.0 / mean_s, args.delta)
            simulated = None
            if not args.no_sim:
                cfg = _spam_curve_config(mean_s, args.delta, "exponential")
                simulated = run_simulation(cfg, args.seed).report.spam["normalized"]
            rows.append([mean_s, bound, simulated])
    else:
        raise ValueError(f"unknown curve kind {args.kind}")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"curve written to {args.out}")
    return 0


def _checked_flag(convert, ok, meaning: str):
    """An argparse ``type``: values ``ok`` refuses exit 2 naming the flag."""

    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {meaning}, got {text!r}")

    return parse


_seed_flag = _checked_flag(int, lambda v: v >= 0, "a non-negative integer")
_count_flag = _checked_flag(int, lambda v: v >= 1, "a positive integer")
_beta_flag = _checked_flag(float, lambda v: 0.0 < v < 0.5, "a number in (0, 0.5)")
_positive_flag = _checked_flag(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_delay_flag = _checked_flag(float, lambda v: 0.0 <= v < math.inf, "a non-negative finite number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prismsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("--config", default=None)
    run_p.add_argument("--seed", type=_seed_flag, default=None)
    run_p.add_argument("--out", default="out")
    run_p.add_argument("--profile", default=None)
    run_p.set_defaults(func=cmd_run)

    batch_p = sub.add_parser("batch", help="run a seed sweep and aggregate")
    batch_p.add_argument("--config", default=None)
    batch_p.add_argument("--seed", type=_seed_flag, default=None)
    batch_p.add_argument("--n", type=_count_flag, default=10)
    batch_p.add_argument("--workers", type=int, default=None)
    batch_p.add_argument("--out", default="out")
    batch_p.add_argument("--profile", default=None)
    batch_p.set_defaults(func=cmd_batch)

    curves_p = sub.add_parser("curves", help="emit curve CSVs")
    curves_p.add_argument("kind", choices=["reliability_depth", "spam_jitter", "utilization"])
    curves_p.add_argument("--beta", type=_beta_flag, default=0.3)
    curves_p.add_argument("--m", type=_count_flag, default=1000)
    curves_p.add_argument("--k-max", dest="k_max", type=_count_flag, default=30)
    curves_p.add_argument("--hops", type=_positive_flag, default=5.0)
    curves_p.add_argument("--delta", type=_delay_flag, default=2.0)
    curves_p.add_argument(
        "--jitter-grid", dest="jitter_grid", type=_positive_flag, nargs="+", default=[2.0, 5.0, 10.0, 20.0]
    )
    curves_p.add_argument("--no-sim", dest="no_sim", action="store_true")
    curves_p.add_argument("--seed", type=_seed_flag, default=0)
    curves_p.add_argument("--out", default="curves.csv")
    curves_p.set_defaults(func=cmd_curves)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
