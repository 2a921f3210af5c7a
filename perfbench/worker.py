"""One benchmark round: the workload's simulations, in one fresh process.

Run by ``run.py``, never by hand.  Prints one JSON object with the
round's host times, peak memory, simulated outcomes, per-simulation
digests and check failures and, with ``--trace``, per-function call
counts and self seconds.

Set-up time runs from ``--t0`` (the parent's monotonic clock just before
it started this process, so imports count) to the first simulation's
``run()``, plus the construction time of every later simulation.

Host speed on a shared machine drifts by a factor of two within
minutes, and run time drifts with it.  Untraced rounds therefore time a
fixed probe every 50 ms while a simulation runs, and report run seconds
scaled by ``reference / median probe time``: seconds at the reference
host speed.  Contention slows interpreted Python and OpenSSL's Ed25519
by different amounts, so the probe follows the signature scheme, whose
checks dominate the run when they are real.  The probes' own time is
left out of the run time, and the raw host seconds are reported too.
Set-up is mostly imports, which the probes do not track, so set-up
seconds are reported raw.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def python_probe() -> float:
    """Time a fixed piece of pure-Python work: a SHA-256 chain with dict churn."""
    start = time.perf_counter()
    table = {}
    digest = bytes(32)
    for i in range(1500):
        digest = hashlib.sha256(digest).digest()
        table[digest] = i
        if i % 3 == 0:
            del table[digest]
    return time.perf_counter() - start


_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key().public_bytes_raw()
_MESSAGE = hashlib.sha256(b"perfbench probe").digest()
_SIGNATURE = _KEY.sign(_MESSAGE)


def ed25519_probe() -> float:
    """Time five Ed25519 verifications, the work that dominates runs with
    real signatures."""
    start = time.perf_counter()
    for _ in range(5):
        Ed25519PublicKey.from_public_bytes(_PUBLIC).verify(_SIGNATURE, _MESSAGE)
    return time.perf_counter() - start


# per signature scheme: the probe that does the same kind of work as the
# simulation's hot path, and its median time on an idle core of the
# 2-core reference machine
PROBES = {"mock": (python_probe, 0.0012), "ed25519": (ed25519_probe, 0.0007)}
PROBE_EVERY_S = 0.05


class Prober:
    """Run ``probe`` every ``PROBE_EVERY_S`` of wall time while active,
    from a timer signal, so the probes sample host speed throughout the
    run whatever the workload's event mix; the simulation is unaffected."""

    def __init__(self, probe):
        self.probe = probe
        self.times: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.times.append(self.probe()))

    def __enter__(self):
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_program():
    """Import prismsim from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import prismsim

    if os.path.dirname(os.path.dirname(os.path.abspath(prismsim.__file__))) != SRC:
        raise SystemExit(f"prismsim was imported from {prismsim.__file__}, not from {SRC}")
    from prismsim.adversary import install_strategies
    from prismsim.baseline import LongestChainSimulation
    from prismsim.config import resolve
    from prismsim.netsim import Simulation

    return resolve, Simulation, LongestChainSimulation, install_strategies


def steady_latencies(sim, report) -> list[float]:
    samples = sim.engine.latency_samples if hasattr(sim, "engine") else sim.latency_samples
    start = report.steady_state_start
    return [s.confirmed_at - s.mined_at for s in samples if s.mined_at >= start]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    resolve, Simulation, LongestChainSimulation, install_strategies = import_program()
    sys.path.insert(0, HERE)
    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cfg = resolve(workload.overlay, profile=workload.profile)
    probe, reference_s = PROBES[cfg["signature_scheme"]]
    prober = Prober(probe)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    setup_s = run_s = 0.0
    peak_rss_kb = 0
    sims, tps, latencies = [], [], []
    for i, seed in enumerate(workload.sim_seeds(args.seed)):
        record = {"seed": seed, "digest": None, "failures": [], "error": None, "events": 0}
        sims.append(record)
        built = time.monotonic()
        try:
            if cfg["protocol"] == "longest_chain":
                sim = LongestChainSimulation(cfg, seed)
            else:
                sim = Simulation(cfg, seed)
                if cfg["adversary"]["strategy"] != "none":
                    install_strategies(sim)
            started = time.monotonic()
            setup_s += started - (args.t0 if i == 0 else built)
            if tracer is None:
                probed = len(prober.times)
                with prober:
                    result = sim.run()
                run_s += time.monotonic() - started - sum(prober.times[probed:])
            else:
                result = sim.run()
                run_s += time.monotonic() - started
            peak_rss_kb = max(peak_rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

            report = result.report
            as_dict = report.to_dict()
            if cfg["protocol"] == "longest_chain":
                record["failures"] = checks.check_longest_chain(sim, as_dict)
            else:
                record["failures"] = checks.check_prism(sim, as_dict)
                if cfg["adversary"]["strategy"] == "private_double_spend":
                    record["failures"] += checks.check_double_spend(as_dict)
            record["digest"] = checks.run_digest(sim, report)
            # every event popped and handled; the loop pops one more and stops
            record["events"] = sim.seq - len(sim.heap) - 1
            tps.append(as_dict["throughput"]["confirmed_sanitized_tps"])
            latencies += steady_latencies(sim, report)
        except Exception:  # a crashed simulation is a failed operation
            record["error"] = traceback.format_exc()
            sys.stderr.write(record["error"])
        finally:
            result = sim = None

    probes = prober.times
    speed = reference_s / statistics.median(probes) if probes else 1.0
    out = {
        "setup_s": setup_s,
        "run_s": run_s * speed,
        "host_run_s": run_s,
        "probes": len(probes),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "sim_confirmed_tps": statistics.fmean(tps) if tps else 0.0,
        "sim_latency_median_s": statistics.median(latencies) if latencies else 0.0,
        "latency_samples": len(latencies),
        "sims": sims,
    }
    if tracer is not None:
        out["calls"] = dict(tracer.calls)
        out["self_s"] = dict(tracer.self_s)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
