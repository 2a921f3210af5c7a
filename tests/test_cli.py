import csv
import json
import math
import os

import numpy as np
import pytest

from prismsim.cli import aggregate_reports, main, run_batch
from prismsim.config import resolve
from prismsim.netsim import security_constraint


def write_config(tmp_path, overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


SMALL = {
    "duration": 10.0,
    "topology": {"nodes": 4, "degree": 2, "delay_s": 0.1},
    "prism": {"m": 8, "rate_voter_per_chain": 0.5, "rate_tx": 1.0, "rate_prop": 0.3},
    "workload": {"tps": 5.0},
}


def test_run_writes_all_outputs(tmp_path):
    cfg_path = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg_path, "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("protocol", "throughput", "latency", "forking", "confirmation", "attack", "spam"):
        assert key in report
    assert (out / "metrics.csv").exists()
    assert (out / "latency.csv").exists()
    assert (out / "confirmation-trace.jsonl").exists()
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and "confirmed_sanitized" in rows[0]


def test_same_invocation_is_identical_except_wallclock(tmp_path):
    cfg_path = write_config(tmp_path, SMALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg_path, "--seed", "5", "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg_path, "--seed", "5", "--out", str(out_b)]) == 0
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    rep_a.pop("wallclock")
    rep_b.pop("wallclock")
    assert rep_a == rep_b
    assert (out_a / "metrics.csv").read_text() == (out_b / "metrics.csv").read_text()
    assert (out_a / "latency.csv").read_text() == (out_b / "latency.csv").read_text()


def test_high_beta_exits_nonzero_naming_field(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, {**SMALL, "adversary": {"strategy": "censorship", "fraction": 0.6}}
    )
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")])
    assert code != 0
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["run"], ["batch"], ["curves", "utilization"]], ids=["run", "batch", "curves"]
)
def test_negative_seed_flag_exits_2(tmp_path, capsys, command):
    # default_rng raises ValueError on a negative seed
    with pytest.raises(SystemExit) as exit_:
        main(command + ["--seed", "-1", "--out", str(tmp_path / "x")])
    assert exit_.value.code == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "kind, flag, value",
    [
        ("utilization", "--hops", "0"),
        ("spam_jitter", "--jitter-grid", "0"),
        ("reliability_depth", "--beta", "0.7"),
        ("reliability_depth", "--m", "0"),
        ("spam_jitter", "--delta", "-1"),
        ("reliability_depth", "--k-max", "0"),
        ("reliability_depth", "--k-max", "-3"),
    ],
)
def test_bad_curves_flag_exits_2_naming_it(tmp_path, capsys, kind, flag, value):
    # each crashed with a ZeroDivisionError or ValueError traceback, or
    # (--k-max) wrote a header-only CSV and exited 0
    with pytest.raises(SystemExit) as exit_:
        main(["curves", kind, flag, value, "--no-sim", "--out", str(tmp_path / "c.csv")])
    assert exit_.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_batch_of_no_runs_exits_2_naming_n(tmp_path, capsys):
    # it wrote an aggregate.json over zero runs and exited 0
    cfg_path = write_config(tmp_path, SMALL)
    with pytest.raises(SystemExit) as exit_:
        main(["batch", "--config", cfg_path, "--n", "0", "--out", str(tmp_path / "batch")])
    assert exit_.value.code == 2
    assert "argument --n: must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "batch").exists()


def test_missing_config_file_errors(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
    assert code != 0


def test_batch_aggregates_and_writes_runs(tmp_path):
    cfg_path = write_config(tmp_path, SMALL)
    out = tmp_path / "batch"
    code = main(
        ["batch", "--config", cfg_path, "--seed", "1", "--n", "3", "--workers", "1", "--out", str(out)]
    )
    assert code == 0
    aggregate = json.loads((out / "aggregate.json").read_text())
    assert aggregate["runs"] == 3
    assert aggregate["seeds"] == [1, 2, 3]
    assert "throughput.confirmed_sanitized_tps" in aggregate["metrics"]
    for seed in (1, 2, 3):
        assert (out / "runs" / f"seed_{seed}.json").exists()


def test_batch_single_run_equals_direct_run():
    cfg = resolve(SMALL)
    aggregate, reports = run_batch(cfg, [7], workers=1)
    from prismsim.netsim import run

    direct = run(cfg, 7).report.to_dict()
    direct.pop("wallclock")
    got = dict(reports[0])
    got.pop("wallclock")
    assert got == direct
    assert aggregate["runs"] == 1
    mean = aggregate["metrics"]["throughput.confirmed_sanitized_tps"]["mean"]
    assert mean == pytest.approx(direct["throughput"]["confirmed_sanitized_tps"])


def test_batch_parallel_matches_serial():
    cfg = resolve(SMALL)
    serial, _ = run_batch(cfg, [1, 2], workers=1)
    parallel, _ = run_batch(cfg, [1, 2], workers=2)
    assert serial["metrics"] == parallel["metrics"]


def test_ci_width_shrinks_with_more_runs():
    cfg = resolve(
        {
            **SMALL,
            "duration": 25.0,
            "prism": {"m": 8, "rate_voter_per_chain": 1.0, "rate_tx": 1.0, "rate_prop": 0.3},
        }
    )
    few, _ = run_batch(cfg, [1, 2, 3], workers=2)
    many, _ = run_batch(cfg, list(range(1, 13)), workers=2)
    key = "throughput.confirmed_sanitized_tps"
    assert few["metrics"][key]["ci95"] > 0
    assert many["metrics"][key]["ci95"] < few["metrics"][key]["ci95"] * 1.2


def test_curves_reliability_depth(tmp_path):
    out = tmp_path / "reliability.csv"
    code = main(
        ["curves", "reliability_depth", "--beta", "0.3", "--m", "1000", "--k-max", "24", "--out", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    lc = [float(r["longest_chain_reversal"]) for r in rows]
    prism = [float(r["prism_aggregate_reversal"]) for r in rows]
    assert all(b < a for a, b in zip(lc, lc[1:]))  # decays with depth
    # the many-chain aggregate decays far faster than the single chain
    assert prism[1] < lc[1] and prism[3] < 1e-6 < lc[3]


def test_curves_prism_decay_rate_scales_with_m(tmp_path):
    # exponential decay rate of the aggregate curve vs the single chain:
    # the log-slope ratio grows on the order of m
    from prismsim.baseline import nakamoto_reversal, prism_vote_aggregation

    m = 100
    k_values = [2, 3]
    lc_slope = math.log(nakamoto_reversal(k_values[0], 0.3)) - math.log(
        nakamoto_reversal(k_values[1], 0.3)
    )
    agg = [prism_vote_aggregation(m, nakamoto_reversal(k, 0.3)) for k in k_values]
    prism_slope = math.log(agg[0]) - math.log(agg[1])
    assert prism_slope > 10 * lc_slope  # far steeper; order-m amplification


def test_curves_utilization(tmp_path):
    out = tmp_path / "util.csv"
    code = main(["curves", "utilization", "--hops", "5", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = {float(r["beta"]): r for r in csv.DictReader(fh)}
    assert float(rows[0.45]["utilization"]) == pytest.approx(0.0444, abs=5e-4)
    assert float(rows[0.45]["max_f_delta"]) == pytest.approx(0.2222, abs=5e-4)
    # the beta grid is np.arange(0.05, 0.5, 0.05), bit for bit
    grid = [float(b) for b in np.arange(0.05, 0.5, 0.05)]
    assert [float(r["max_f_delta"]) for r in rows.values()] == [security_constraint(b) for b in grid]


def test_curves_spam_jitter_bound_column_exact(tmp_path):
    out = tmp_path / "spam.csv"
    code = main(
        ["curves", "spam_jitter", "--delta", "2.0", "--jitter-grid", "5", "10", "--no-sim", "--out", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        mean_s = float(row["jitter_mean_s"])
        assert float(row["analytic_bound"]) == 1.0 - math.exp(-2.0 / mean_s)


def test_curves_spam_jitter_with_simulation(tmp_path):
    out = tmp_path / "spam_sim.csv"
    code = main(
        ["curves", "spam_jitter", "--delta", "2.0", "--jitter-grid", "10", "--out", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    simulated = float(rows[0]["simulated_normalized"])
    assert 0.0 < simulated < 1.0  # jitter removes a real share of the spam
