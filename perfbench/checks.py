"""Output checks made on every simulation the benchmark runs.

Each check recomputes a result with the benchmark's own code, or tests a
property of the method, and returns a list of failure messages (empty
when the outputs hold).  Nothing here calls the program's ledger,
confirmation or chain code: the ledger is expanded and folded from the
stored blocks, and signatures are verified with ``hashlib`` or
``cryptography`` directly.
"""
from __future__ import annotations

import hashlib
import json
import math

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

# |count - lam| <= Z * sqrt(lam) + Z: a false alarm is below 1e-5 even at
# the smallest rate used (lam = 10), so no seed fails by chance
POISSON_Z = 6.0


def _verify(scheme_name: str, public: bytes, message: bytes, signature: bytes) -> bool:
    if scheme_name == "mock":
        return signature == hashlib.sha256(public + message).digest()
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


def fold(txs, genesis, scheme_name: str):
    """Apply transactions in order to a copy of ``genesis``.

    A transaction applies iff every input coin exists, the i-th signature
    names the i-th coin's owner and verifies over the transaction id, and
    outputs do not exceed inputs.  Returns (applied ids, coins, fees)
    where coins maps (txid, index) to (value, owner).
    """
    coins = {cid: (u.value, u.owner) for cid, u in genesis.items()}
    applied, fees = [], []
    for tx in txs:
        ids = [(i.txid, i.index) for i in tx.inputs]
        if any(cid not in coins for cid in ids) or len(tx.signatures) != len(ids):
            continue
        if not all(
            public == coins[cid][1] and _verify(scheme_name, public, tx.digest, sig)
            for cid, (public, sig) in zip(ids, tx.signatures)
        ):
            continue
        value_in = sum(coins[cid][0] for cid in ids)
        value_out = sum(o.value for o in tx.outputs)
        if value_out > value_in:
            continue
        for cid in ids:
            del coins[cid]
        for index, out in enumerate(tx.outputs):
            coins[(tx.digest, index)] = (out.value, out.owner)
        applied.append(tx.digest)
        fees.append(value_in - value_out)
    return applied, coins, fees


def coins_of(utxo) -> dict:
    return {cid: (u.value, u.owner) for cid, u in utxo.items()}


def poisson_failures(label: str, count: int, lam: float) -> list[str]:
    if abs(count - lam) > POISSON_Z * math.sqrt(lam) + POISSON_Z:
        return [f"{label}: count {count} is off the Poisson law of mean {lam:g}"]
    return []


def expand_leaders(leaders, blocks, genesis: bytes) -> list:
    """Ledger order of the leader sequence, with an explicit stack.

    For each leader: its not-yet-included ancestors and referenced
    proposer blocks first (parent, then references in order), then its
    transaction blocks in reference order; every block enters once.
    """
    included_prp: set[bytes] = set()
    included_tx: set[bytes] = set()
    txs = []
    for leader in leaders:
        stack = [(leader, None)]
        while stack:
            digest, pending = stack.pop()
            if pending is None:
                if digest == genesis or digest in included_prp:
                    continue
                included_prp.add(digest)
                block = blocks[digest]
                pending = iter((block.parent_leaf,) + block.content.prp_refs)
            child = next(pending, None)
            if child is not None:
                stack.append((digest, pending))
                stack.append((child, None))
                continue
            for ref in blocks[digest].content.tx_refs:
                if ref not in included_tx:
                    included_tx.add(ref)
                    txs.extend(blocks[ref].content.txs)
    return txs


def check_prism(sim, report: dict) -> list[str]:
    """Ledger, leader, conservation, latency and block-count checks for a
    Prism run; ``report`` is the run's report dict."""
    failures = []
    cfg = sim.cfg
    engine = sim.engine
    blocks = sim.blocks_by_digest
    scheme_name = cfg["signature_scheme"]

    for level, leader in enumerate(engine.leaders, start=1):
        block = blocks.get(leader)
        if block is None or block.block_type.kind != "proposer" or block.level != level:
            failures.append(f"confirmed leader at level {level} is not a level-{level} proposer block")
    if failures:
        return failures

    genesis = sim.nodes[sim.observer].state.proposer_genesis
    raw = expand_leaders(engine.leaders, blocks, genesis)
    applied, coins, fees = fold(raw, sim.genesis_utxo, scheme_name)
    if len(raw) != engine.raw_count:
        failures.append(f"ledger holds {len(raw)} transactions, engine counted {engine.raw_count}")
    if applied != [s.tx_digest for s in engine.latency_samples] or len(applied) != engine.sanitized_count:
        failures.append("applied transactions or their order differ from the engine's")
    if coins != coins_of(engine.utxo):
        failures.append("final UTXO set differs from the engine's")

    genesis_value = sum(u.value for u in sim.genesis_utxo.values())
    if sum(v for v, _ in coins.values()) + sum(fees) != genesis_value:
        failures.append("recomputed ledger does not conserve coin value")
    if sum(u.value for u in engine.utxo.values()) + sum(engine.fees) != genesis_value:
        failures.append("engine UTXO set does not conserve coin value")
    if not report["conservation_ok"]:
        failures.append("report flags a conservation failure")

    if any(s.confirmed_at < s.mined_at for s in engine.latency_samples):
        failures.append("a latency sample is confirmed before it was mined")

    prism = cfg["prism"]
    duration = cfg["duration"]
    rates = {
        "transaction": prism["rate_tx"],
        "proposer": prism["rate_prop"],
        "voter": prism["m"] * prism["rate_voter_per_chain"],
    }
    stored = {kind: 0 for kind in rates}
    for block in blocks.values():
        stored[block.block_type.kind] += 1
    for kind, rate in rates.items():
        if report["blocks"][kind] != stored[kind]:
            failures.append(f"report counts {report['blocks'][kind]} {kind} blocks, {stored[kind]} were mined")
        failures += poisson_failures(f"{kind} blocks", report["blocks"][kind], rate * duration)
    failures += _generated_failures(sim, report)
    return failures


def check_double_spend(report: dict) -> list[str]:
    failures = []
    if not report["attack"]["released"]:
        failures.append("the private attack was never released")
    if report["confirmation"]["reversals"] != 0:
        failures.append(f"{report['confirmation']['reversals']} confirmed levels were reversed")
    return failures


def check_longest_chain(sim, report: dict) -> list[str]:
    """Replay the observer's main chain: below depth k against the
    confirmed ledger, and whole against the observer's tip state."""
    failures = []
    cfg = sim.cfg
    state = sim.nodes[sim.observer].state
    scheme_name = cfg["signature_scheme"]

    chain = []
    digest = state.tip
    while digest in state.entries:
        block, _ = state.entries[digest]
        chain.append(block)
        digest = block.parent
    chain.reverse()
    if len(chain) != state.tip_chainlen:
        return [f"main chain walks {len(chain)} blocks, tip claims {state.tip_chainlen}"]

    deep = max(0, len(chain) - (sim.confirm_depth - 1))
    if sim.confirmed_blocks != [b.digest for b in chain[:deep]]:
        failures.append("confirmed blocks are not the main chain below depth k")
    confirmed_txs = [tx for b in chain[:deep] for tx in b.txs]
    applied, coins, fees = fold(confirmed_txs, sim.genesis_utxo, scheme_name)
    if len(applied) != sim.confirmed_count:
        failures.append(f"replay applies {len(applied)} transactions, the run confirmed {sim.confirmed_count}")
    if coins != coins_of(sim.confirmed_utxo):
        failures.append("confirmed UTXO set differs from the replay")

    _, tip_coins, _ = fold([tx for b in chain for tx in b.txs], sim.genesis_utxo, scheme_name)
    if tip_coins != coins_of(state.tip_utxo):
        failures.append("observer tip UTXO set differs from a replay of its main chain")

    genesis_value = sum(u.value for u in sim.genesis_utxo.values())
    if sum(v for v, _ in coins.values()) + sum(fees) != genesis_value:
        failures.append("replayed ledger does not conserve coin value")
    if not report["conservation_ok"]:
        failures.append("report flags a conservation failure")
    if any(s.confirmed_at < s.mined_at for s in sim.latency_samples):
        failures.append("a latency sample is confirmed before it was mined")

    lc = cfg["longest_chain"]
    failures += poisson_failures("chain blocks", report["blocks"]["chain"], lc["rate"] * cfg["duration"])
    failures += _generated_failures(sim, report)
    return failures


def _generated_failures(sim, report: dict) -> list[str]:
    duration = sim.cfg["duration"]
    generated = sim.generated_txs
    if round(report["throughput"]["generated_tps"] * duration) != generated:
        return ["report's generated rate disagrees with the transactions generated"]
    return poisson_failures("generated transactions", generated, sim.cfg["workload"]["tps"] * duration)


def run_digest(sim, report) -> str:
    """SHA-256 over the deterministic report, the confirmation trace and
    the latency samples: equal digests mean bit-identical behaviour."""
    if hasattr(sim, "engine"):
        trace, samples = sim.engine.trace, sim.engine.latency_samples
        confirmed = []
    else:
        trace, samples = [], sim.latency_samples
        confirmed = [d.hex() for d in sim.confirmed_blocks]
    body = {
        "report": report.deterministic_dict(),
        "trace": trace,
        "latency": [[s.tx_digest.hex(), s.mined_at, s.confirmed_at] for s in samples],
        "confirmed_blocks": confirmed,
    }
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
