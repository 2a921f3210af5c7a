import json
import sys
import threading
import time

import numpy as np
import pytest

from helpers import forge_tx_block, make_params

from prismsim.baseline import LCState
from prismsim.blocks import BadSignature, validate_block
from prismsim.chain import ChainState, TxRejected
from prismsim.config import resolve
from prismsim.crypto import Ed25519Scheme, get_scheme
from prismsim.ledger import (
    APPLIED,
    Rejected,
    Transaction,
    TxInput,
    TxOutput,
    Utxo,
    conservation_check,
    execute,
    sanitize,
    sanitize_parallel,
    signed_transaction,
    total_value,
)
from prismsim.netsim import run

SCHEME = get_scheme("mock")
KEYS = [SCHEME.keypair(bytes([i])) for i in range(8)]


def genesis_set(n_coins, value=10, owners=None):
    owners = owners or KEYS
    utxo_set = {}
    for i in range(n_coins):
        owner = owners[i % len(owners)]
        coin = Utxo(txid=bytes(28) + i.to_bytes(4, "little"), index=0, value=value, owner=owner.public)
        utxo_set[coin.id] = coin
    return utxo_set


def spend(coin, recipient, value=None, change_owner=None, fee=0):
    """Spend one coin to a recipient, optionally with change."""
    owner_kp = next(k for k in KEYS if k.public == coin.owner)
    value = coin.value - fee if value is None else value
    outputs = [TxOutput(value, recipient.public)]
    change = coin.value - value - fee
    if change > 0:
        outputs.append(TxOutput(change, (change_owner or owner_kp).public))
    return signed_transaction(SCHEME, [TxInput(*coin.id)], outputs, [owner_kp])


def reference_sanitize(txs, utxo_set):
    """Independent minimal fold written against the rules directly:
    inputs present, owners sign, no overspend; skip failures."""
    state = dict(utxo_set)
    applied = []
    for tx in txs:
        coins = [state.get(i) for i in tx.inputs]
        if any(c is None for c in coins):
            continue
        if len(tx.signatures) != len(tx.inputs):
            continue
        ok = all(
            pub == c.owner and SCHEME.verify(pub, tx.digest, sig)
            for c, (pub, sig) in zip(coins, tx.signatures)
        )
        if not ok:
            continue
        if sum(o.value for o in tx.outputs) > sum(c.value for c in coins):
            continue
        for c in coins:
            del state[c.id]
        for i, o in enumerate(tx.outputs):
            state[(tx.digest, i)] = Utxo(tx.digest, i, o.value, o.owner)
        applied.append(tx)
    return applied, state


def test_execute_spend_applies_and_updates_set():
    utxo_set = genesis_set(1)
    coin = next(iter(utxo_set.values()))
    tx = spend(coin, KEYS[1])
    before = len(utxo_set)
    assert execute(tx, utxo_set, SCHEME) is APPLIED
    assert len(utxo_set) == before - 1 + len(tx.outputs)
    assert (tx.digest, 0) in utxo_set


def test_replay_rejected_missing_input():
    utxo_set = genesis_set(1)
    coin = next(iter(utxo_set.values()))
    tx = spend(coin, KEYS[1])
    assert execute(tx, utxo_set, SCHEME) is APPLIED
    result = execute(tx, utxo_set, SCHEME)
    assert isinstance(result, Rejected) and result.reason == "MissingInput"


def test_overspend_rejected_and_set_untouched():
    utxo_set = genesis_set(1)
    coin = next(iter(utxo_set.values()))
    kp = next(k for k in KEYS if k.public == coin.owner)
    tx = signed_transaction(
        SCHEME, [TxInput(*coin.id)], [TxOutput(coin.value + 1, KEYS[1].public)], [kp]
    )
    snapshot = dict(utxo_set)
    result = execute(tx, utxo_set, SCHEME)
    assert isinstance(result, Rejected) and result.reason == "ValueOverspend"
    assert utxo_set == snapshot


def test_wrong_owner_signature_rejected():
    utxo_set = genesis_set(1)
    coin = next(iter(utxo_set.values()))
    wrong = next(k for k in KEYS if k.public != coin.owner)
    tx = signed_transaction(
        SCHEME, [TxInput(*coin.id)], [TxOutput(coin.value, KEYS[1].public)], [wrong]
    )
    # the signature verifies and that verdict is kept; ownership is still
    # checked against the coin
    assert tx.signatures_well_formed(SCHEME)
    snapshot = dict(utxo_set)
    result = execute(tx, utxo_set, SCHEME)
    assert isinstance(result, Rejected) and result.reason == "BadSignature"
    assert utxo_set == snapshot


def test_sanitize_all_valid_list_passes_through():
    utxo_set = genesis_set(10)
    txs = [spend(c, KEYS[(i + 1) % 8]) for i, c in enumerate(list(utxo_set.values()))]
    ledger, _ = sanitize(txs, dict(utxo_set), SCHEME)
    assert ledger == txs


def test_sanitize_discards_duplicates_and_conflicts():
    utxo_set = genesis_set(2)
    coins = list(utxo_set.values())
    a = spend(coins[0], KEYS[1])
    d = spend(coins[1], KEYS[2])
    c = spend(coins[1], KEYS[3])  # conflicts with d
    ledger, _ = sanitize([a, a, d, c], dict(utxo_set), SCHEME)
    assert ledger == [a, d]


def random_workload(rng, n_txs, utxo_set, conflict_rate=0.3):
    """Mix of valid spends, double-spends and overspends in random order."""
    coins = list(utxo_set.values())
    txs = []
    used = []
    for _ in range(n_txs):
        roll = rng.random()
        if roll < conflict_rate and used:
            coin = used[rng.integers(len(used))]  # double spend
        else:
            coin = coins[rng.integers(len(coins))]
            used.append(coin)
        kp = next(k for k in KEYS if k.public == coin.owner)
        recipient = KEYS[rng.integers(len(KEYS))]
        value = int(rng.integers(1, coin.value + 2))  # sometimes overspends
        tx = signed_transaction(
            SCHEME, [TxInput(*coin.id)], [TxOutput(value, recipient.public)], [kp]
        )
        txs.append(tx)
    return txs


def test_sanitize_matches_reference_on_random_workload():
    rng = np.random.default_rng(42)
    utxo_set = genesis_set(200, value=10)
    txs = random_workload(rng, 1000, utxo_set)
    ledger, final = sanitize(txs, dict(utxo_set), SCHEME)
    ref_ledger, ref_final = reference_sanitize(txs, utxo_set)
    assert [t.digest for t in ledger] == [t.digest for t in ref_ledger]
    assert final == ref_final


def test_monotone_prefix_property():
    rng = np.random.default_rng(3)
    utxo_set = genesis_set(50)
    txs = random_workload(rng, 200, utxo_set)
    full_ledger, _ = sanitize(txs, dict(utxo_set), SCHEME)
    prefix_ledger, _ = sanitize(txs[:100], dict(utxo_set), SCHEME)
    full_ids = [t.digest for t in full_ledger if t in txs[:100]]
    assert [t.digest for t in prefix_ledger] == full_ids


def test_no_coin_spent_twice_in_applied_ledger():
    rng = np.random.default_rng(9)
    utxo_set = genesis_set(100)
    txs = random_workload(rng, 500, utxo_set)
    ledger, _ = sanitize(txs, dict(utxo_set), SCHEME)
    spent = [i for tx in ledger for i in tx.inputs]
    assert len(spent) == len(set(spent))


def test_parallel_workers_one_equals_sequential():
    rng = np.random.default_rng(11)
    utxo_set = genesis_set(50)
    txs = random_workload(rng, 150, utxo_set)
    seq = sanitize(txs, dict(utxo_set), SCHEME)
    par = sanitize_parallel(txs, dict(utxo_set), SCHEME, workers=1)
    assert [t.digest for t in seq[0]] == [t.digest for t in par[0]]
    assert seq[1] == par[1]


def test_parallel_equals_sequential_under_scheduling_jitter():
    # 100 seeded scheduling shuffles at ~10% pairwise conflicts
    rng = np.random.default_rng(17)
    utxo_set = genesis_set(120)
    txs = random_workload(rng, 1000, utxo_set, conflict_rate=0.1)
    expected_ledger, expected_set = sanitize(txs, dict(utxo_set), SCHEME)
    for trial in range(100):
        jitter_rng = np.random.default_rng(1000 + trial)

        def hook(tx):
            if jitter_rng.random() < 0.05:
                time.sleep(jitter_rng.random() * 1e-4)

        ledger, final = sanitize_parallel(
            txs, dict(utxo_set), SCHEME, workers=8, _schedule_hook=hook
        )
        assert [t.digest for t in ledger] == [t.digest for t in expected_ledger]
        assert final == expected_set


def test_parallel_keeps_spend_chains_in_order_under_scheduling_jitter():
    # each of 8 coins is spent four times in a row, each spend taking the
    # last one's output: a child shares only its parent's output coin, so
    # the scoreboard must hold outputs as well as inputs
    utxo_set = genesis_set(8)
    txs = []
    for i, coin in enumerate(utxo_set.values()):
        for step in range(4):
            tx = spend(coin, KEYS[(i + step + 1) % len(KEYS)])
            txs.append(tx)
            coin = Utxo(tx.digest, 0, tx.outputs[0].value, tx.outputs[0].owner)
    expected_ledger, expected_set = sanitize(txs, dict(utxo_set), SCHEME)
    assert expected_ledger == txs
    for trial in range(50):
        jitter_rng = np.random.default_rng(2000 + trial)

        def hook(tx):
            if jitter_rng.random() < 0.5:
                time.sleep(jitter_rng.random() * 1e-4)

        ledger, final = sanitize_parallel(
            txs, dict(utxo_set), SCHEME, workers=8, _schedule_hook=hook
        )
        assert [t.digest for t in ledger] == [t.digest for t in expected_ledger]
        assert final == expected_set


def test_conflict_free_batch_all_applied():
    utxo_set = genesis_set(64)
    txs = [spend(c, KEYS[0]) for c in list(utxo_set.values())]
    ledger, _ = sanitize_parallel(txs, dict(utxo_set), SCHEME, workers=8)
    assert len(ledger) == 64


def test_parallel_callers_share_worker_pools():
    # callers in four threads share the process's pools of 3 and 5 workers
    rng = np.random.default_rng(23)
    utxo_set = genesis_set(60)
    txs = random_workload(rng, 300, utxo_set, conflict_rate=0.2)
    expected_ledger, expected_set = sanitize(txs, dict(utxo_set), SCHEME)
    results = []

    def call(workers):
        for _ in range(5):
            results.append(sanitize_parallel(txs, dict(utxo_set), SCHEME, workers=workers))

    threads = [threading.Thread(target=call, args=(w,)) for w in (3, 3, 5, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so interleavings vary
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 20
    for ledger, final in results:
        assert [t.digest for t in ledger] == [t.digest for t in expected_ledger]
        assert final == expected_set


def test_conservation_zero_fee_and_with_fee():
    utxo_set = genesis_set(4, value=10)
    coins = list(utxo_set.values())
    before = total_value(utxo_set)
    t1 = spend(coins[0], KEYS[1])  # zero fee
    t2 = spend(coins[1], KEYS[2], value=5, fee=5)  # fee 5
    working = dict(utxo_set)
    fees = []
    for tx in (t1, t2):
        fees.append(sum(working[i].value for i in tx.inputs) - sum(o.value for o in tx.outputs))
        assert execute(tx, working, SCHEME) is APPLIED
    assert conservation_check(before, working, fees)
    assert total_value(working) == before - 5


def export_snapshot(utxo_set):
    """Canonical JSON snapshot, sorted by (txid, index)."""
    rows = [
        {"txid": u.txid.hex(), "index": u.index, "value": u.value, "owner": u.owner.hex()}
        for u in utxo_set.values()
    ]
    rows.sort(key=lambda r: (r["txid"], r["index"]))
    return json.dumps(rows, separators=(",", ":"))


def import_snapshot(text):
    utxo_set = {}
    for row in json.loads(text):
        utxo = Utxo(
            txid=bytes.fromhex(row["txid"]),
            index=row["index"],
            value=row["value"],
            owner=bytes.fromhex(row["owner"]),
        )
        utxo_set[utxo.id] = utxo
    return utxo_set


def test_snapshot_round_trip():
    utxo_set = genesis_set(20, value=13)
    text = export_snapshot(utxo_set)
    restored = import_snapshot(text)
    assert restored == utxo_set
    assert export_snapshot(restored) == text


def test_transaction_needs_inputs_and_outputs():
    with pytest.raises(ValueError):
        Transaction([], [TxOutput(1, KEYS[0].public)])
    with pytest.raises(ValueError):
        Transaction([TxInput(bytes(32), 0)], [])


def test_transaction_refuses_a_repeated_input():
    # one coin listed twice would count its value twice in the overspend
    # check, and the second spend would find the coin already gone
    utxo_set = genesis_set(1)
    (coin,) = utxo_set.values()
    owner = next(k for k in KEYS if k.public == coin.owner)
    with pytest.raises(ValueError, match="twice"):
        signed_transaction(
            SCHEME, [TxInput(*coin.id)] * 2, [TxOutput(2 * coin.value, KEYS[1].public)], [owner] * 2
        )


# --- one signature verdict per transaction object ------------------------------


def count_signature_calls(monkeypatch, scheme_cls):
    """Record (message, signature) of every sign and verify call of a scheme class."""
    signed, verified = [], []
    sign, verify = scheme_cls.sign, scheme_cls.verify

    def counting_sign(self, secret, message):
        sig = sign(self, secret, message)
        signed.append((message, sig))
        return sig

    def counting_verify(self, public, message, signature):
        verified.append((message, signature))
        return verify(self, public, message, signature)

    monkeypatch.setattr(scheme_cls, "sign", counting_sign)
    monkeypatch.setattr(scheme_cls, "verify", counting_verify)
    return signed, verified


@pytest.mark.parametrize("protocol", ["longest_chain", "prism"])
def test_run_verifies_each_created_signature_once(monkeypatch, protocol):
    signed, verified = count_signature_calls(monkeypatch, Ed25519Scheme)
    cfg = resolve(
        {
            "protocol": protocol,
            "signature_scheme": "ed25519",
            "duration": 8.0,
            "topology": {"nodes": 4, "degree": 2},
            "prism": {"m": 4, "rate_voter_per_chain": 1.0},
            "longest_chain": {"rate": 1.0, "block_capacity": 10, "confirm_depth": 2},
            "workload": {"tps": 10.0},
        }
    )
    assert run(cfg, seed=0).report.conservation_ok
    # every node, mempool, block validation and ledger pass holds the same
    # transaction objects, so the whole run verifies each signature once
    assert len(signed) > 40
    assert sorted(verified) == sorted(signed)


def forged_copy(tx):
    """Same body, so the same digest, but a signature that does not verify."""
    return Transaction(tx.inputs, tx.outputs, ((tx.signatures[0][0], b"\0" * 32),))


def entry_point_verdicts(tx, utxo_set):
    """Accept/reject of ``tx`` at each entry point that checks signatures."""
    params = make_params(m=2)
    try:
        validate_block(forge_tx_block(params, [tx]), params, SCHEME)
        block_ok = True
    except BadSignature:
        block_ok = False
    received = ChainState(2).receive_transaction(tx, 0.0, SCHEME)
    executed = execute(tx, dict(utxo_set), SCHEME)
    return {
        "add_transaction": LCState(utxo_set, SCHEME).add_transaction(tx),
        "receive_transaction": not isinstance(received, TxRejected),
        "validate_block": block_ok,
        "execute": executed is APPLIED,
        "reason": getattr(executed, "reason", None) or getattr(received, "reason", None),
    }


@pytest.mark.parametrize("honest_first", [True, False])
def test_forged_copy_checked_on_its_own(honest_first):
    utxo_set = genesis_set(1)
    honest = spend(next(iter(utxo_set.values())), KEYS[1])
    forged = forged_copy(honest)
    assert forged.digest == honest.digest
    accepted = dict.fromkeys(["add_transaction", "receive_transaction", "validate_block", "execute"], True)
    expected = {
        honest: {**accepted, "reason": None},
        forged: {**dict.fromkeys(accepted, False), "reason": "BadSignature"},
    }
    order = [honest, forged] if honest_first else [forged, honest]
    for tx in order:
        assert entry_point_verdicts(tx, utxo_set) == expected[tx]
    # the verdicts are kept: asking again gives the same answers
    for tx in order:
        assert entry_point_verdicts(tx, utxo_set) == expected[tx]


def test_rejection_order_with_a_cached_bad_verdict():
    utxo_set = genesis_set(1)
    coin = next(iter(utxo_set.values()))
    owner = next(k for k in KEYS if k.public == coin.owner)
    overspend = signed_transaction(SCHEME, [TxInput(*coin.id)], [TxOutput(coin.value + 1, owner.public)], [owner])
    forged = forged_copy(overspend)
    assert not forged.signatures_well_formed(SCHEME)
    # a bad signature outranks an overspend, a missing input outranks both
    assert execute(forged, dict(utxo_set), SCHEME) == Rejected("BadSignature")
    assert execute(overspend, dict(utxo_set), SCHEME) == Rejected("ValueOverspend")
    assert execute(forged, {}, SCHEME) == Rejected("MissingInput")


def test_verdict_recomputed_under_another_scheme(monkeypatch):
    ed25519 = get_scheme("ed25519")
    _, verified = count_signature_calls(monkeypatch, Ed25519Scheme)
    mock_signed = spend(next(iter(genesis_set(1).values())), KEYS[1])
    assert mock_signed.signatures_well_formed(SCHEME)
    assert not mock_signed.signatures_well_formed(ed25519)
    assert not mock_signed.signatures_well_formed(ed25519)
    assert len(verified) == 1  # computed once under ed25519, then kept
    assert mock_signed.signatures_well_formed(SCHEME)

    kp = ed25519.keypair(b"real")
    real = signed_transaction(ed25519, [TxInput(bytes(32), 0)], [TxOutput(1, kp.public)], [kp])
    assert real.signatures_well_formed(ed25519)
    assert not real.signatures_well_formed(SCHEME)
    assert real.signatures_well_formed(ed25519)
