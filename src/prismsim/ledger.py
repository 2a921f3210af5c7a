"""UTXO state, transaction execution and ledger sanitization.

Transactions are multi-input multi-output pay-to-public-key payments.  An
input is the id of the coin it spends: a ``(txid, index)`` tuple that keys
UTXO sets and coin indexes as it is.
Sanitization is the sequential fold of :func:`execute` over an ordered
transaction list; :func:`sanitize_parallel` reproduces it bit-exactly with
a scoreboard-gated worker pool.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .crypto import KeyPair, SignatureScheme, sha256
from .serialize import lp_bytes, u32, u64

CoinId = tuple[bytes, int]


@dataclass(frozen=True)
class Utxo:
    txid: bytes
    index: int
    value: int
    owner: bytes

    @property
    def id(self) -> CoinId:
        return (self.txid, self.index)


class TxInput(NamedTuple):
    """The coin an input spends; equal to, and hashed as, its ``CoinId``."""

    txid: bytes
    index: int


@dataclass(frozen=True)
class TxOutput:
    value: int
    owner: bytes


class Transaction:
    """Payment spending existing coins, named by their ids in ``inputs``,
    into new ones.

    ``signatures`` is a list of (public key, signature) pairs, one per
    input, each signing the body digest.  The transaction id is the
    SHA-256 of the body (inputs and outputs, signatures excluded), so two
    submissions of the same payment share one id.

    A transaction is not changed after it is constructed.  Its signature
    verdict is therefore computed once per object and scheme and shared
    by every node and ledger pass that holds the object; a copy with the
    same body but other signatures is another object with its own
    verdict.
    """

    __slots__ = ("inputs", "outputs", "signatures", "digest", "_verdict")

    def __init__(
        self,
        inputs: Sequence[TxInput],
        outputs: Sequence[TxOutput],
        signatures: Sequence[tuple[bytes, bytes]] = (),
    ):
        if not inputs:
            raise ValueError("transaction needs at least one input")
        if not outputs:
            raise ValueError("transaction needs at least one output")
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.signatures = tuple(signatures)
        self.digest = sha256(self._serialize_body())
        self._verdict: tuple[SignatureScheme, bool] | None = None

    def _serialize_body(self) -> bytes:
        parts = [u32(len(self.inputs))]
        for txin in self.inputs:
            parts.append(txin.txid)
            parts.append(u32(txin.index))
        parts.append(u32(len(self.outputs)))
        for txout in self.outputs:
            parts.append(u64(txout.value))
            parts.append(lp_bytes(txout.owner))
        return b"".join(parts)

    def output_ids(self) -> tuple[CoinId, ...]:
        return tuple((self.digest, i) for i in range(len(self.outputs)))

    def signatures_well_formed(self, scheme: SignatureScheme) -> bool:
        """One signature per input, each verifying over the body digest.

        Ownership against the UTXO set is checked at execution time, not
        here.  The verdict is kept with the scheme object it was computed
        under and recomputed only for another scheme object.  Concurrent
        callers (:func:`sanitize_parallel` workers) at worst compute the
        same verdict twice, so the slot needs no lock.
        """
        verdict = self._verdict
        if verdict is None or verdict[0] is not scheme:
            ok = len(self.signatures) == len(self.inputs) and all(
                scheme.verify(public, self.digest, sig) for public, sig in self.signatures
            )
            verdict = self._verdict = (scheme, ok)
        return verdict[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transaction({self.digest.hex()[:12]}, in={len(self.inputs)}, out={len(self.outputs)})"


def signed_transaction(
    scheme: SignatureScheme,
    inputs: Sequence[TxInput],
    outputs: Sequence[TxOutput],
    keys: Sequence[KeyPair],
) -> Transaction:
    """Build a transaction with one signature per input, keys in input order."""
    tx = Transaction(inputs, outputs)
    # signed before the object is shared, so the body is serialized and
    # hashed once
    tx.signatures = tuple((kp.public, scheme.sign(kp.secret, tx.digest)) for kp in keys)
    return tx


@dataclass(frozen=True)
class Applied:
    pass


@dataclass(frozen=True)
class Rejected:
    reason: str  # MissingInput | BadSignature | ValueOverspend


APPLIED = Applied()


def execute(tx: Transaction, utxo_set: dict[CoinId, Utxo], scheme: SignatureScheme) -> Applied | Rejected:
    """Apply ``tx`` to ``utxo_set`` in place, or leave it untouched.

    Applied iff every input exists, the i-th signature's key matches the
    i-th input's owner and verifies, and total output value does not
    exceed total input value.  Verification reads the transaction's kept
    verdict (:meth:`Transaction.signatures_well_formed`).
    """
    coins = []
    for txin in tx.inputs:
        utxo = utxo_set.get(txin)
        if utxo is None:
            return Rejected("MissingInput")
        coins.append(utxo)
    if len(tx.signatures) != len(tx.inputs):
        return Rejected("BadSignature")
    for utxo, (public, _) in zip(coins, tx.signatures):
        if public != utxo.owner:
            return Rejected("BadSignature")
    if not tx.signatures_well_formed(scheme):
        return Rejected("BadSignature")
    total_in = sum(c.value for c in coins)
    total_out = sum(o.value for o in tx.outputs)
    if total_out > total_in:
        return Rejected("ValueOverspend")
    for txin in tx.inputs:
        del utxo_set[txin]
    for i, txout in enumerate(tx.outputs):
        utxo_set[(tx.digest, i)] = Utxo(tx.digest, i, txout.value, txout.owner)
    return APPLIED


def execute_with_fee(tx: Transaction, utxo_set: dict[CoinId, Utxo], scheme: SignatureScheme) -> int | None:
    """:func:`execute`, returning the fee when ``tx`` applied and None otherwise."""
    value_in = sum(utxo_set[c].value for c in tx.inputs if c in utxo_set)
    if execute(tx, utxo_set, scheme) is not APPLIED:
        return None
    return value_in - sum(o.value for o in tx.outputs)


def sanitize(
    txs: Iterable[Transaction],
    utxo_set: dict[CoinId, Utxo],
    scheme: SignatureScheme,
) -> tuple[list[Transaction], dict[CoinId, Utxo]]:
    """Sequential fold of :func:`execute`; rejected transactions are skipped.

    Mutates and returns ``utxo_set``; the returned ledger lists applied
    transactions in input order.  A transaction appearing twice is
    rejected the second time because its inputs are gone.
    """
    applied = []
    for tx in txs:
        if execute(tx, utxo_set, scheme) is APPLIED:
            applied.append(tx)
    return applied, utxo_set


# worker pools by size, kept for the process; threads start on first use,
# and a forked child inherits the pools but not their threads
_POOLS: dict[int, ThreadPoolExecutor] = {}
os.register_at_fork(after_in_child=_POOLS.clear)


def sanitize_parallel(
    txs: Sequence[Transaction],
    utxo_set: dict[CoinId, Utxo],
    scheme: SignatureScheme,
    workers: int = 4,
    _schedule_hook: Callable[[Transaction], None] | None = None,
) -> tuple[list[Transaction], dict[CoinId, Utxo]]:
    """Scoreboard-gated parallel execution, bit-identical to :func:`sanitize`.

    A transaction is dispatched only when none of its input/output coin
    ids collide with any in-flight or earlier held transaction; colliding
    transactions wait and run in original order once the conflict clears.
    Coin-disjoint transactions commute, so the final (ledger, set) equals
    the sequential fold regardless of worker scheduling.

    ``_schedule_hook`` is a test seam that runs inside each worker before
    execution, used to randomize scheduling in stress tests.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        return sanitize(txs, utxo_set, scheme)

    n = len(txs)
    applied_flags = [False] * n
    coin_sets = [set(tx.inputs).union(tx.output_ids()) for tx in txs]
    scoreboard: set[CoinId] = set()  # coins of in-flight and held txs
    lock = threading.Lock()
    done = threading.Condition(lock)
    in_flight = 0

    def run_one(pos: int) -> None:
        nonlocal in_flight
        if _schedule_hook is not None:
            _schedule_hook(txs[pos])
        # Coin-disjointness guarantees this execute touches no key any
        # concurrent execute reads or writes.
        result = execute(txs[pos], utxo_set, scheme)
        with done:
            applied_flags[pos] = result is APPLIED
            scoreboard.difference_update(coin_sets[pos])
            in_flight -= 1
            done.notify_all()

    pool = _POOLS.get(workers) or _POOLS.setdefault(workers, ThreadPoolExecutor(workers))
    for pos in range(n):
        with done:
            # A colliding transaction blocks the dispatcher, which keeps
            # every later transaction behind it: dispatch order is the
            # original order whenever coins are shared.
            while not scoreboard.isdisjoint(coin_sets[pos]):
                done.wait()
            scoreboard.update(coin_sets[pos])
            in_flight += 1
        pool.submit(run_one, pos)
    with done:
        while in_flight:
            done.wait()

    ledger = [txs[i] for i in range(n) if applied_flags[i]]
    return ledger, utxo_set


def conservation_check(
    total_before: int, utxo_set_after: dict[CoinId, Utxo], fees: Sequence[int]
) -> bool:
    """Total coin value after = before minus the fees of applied txs."""
    return total_value(utxo_set_after) == total_before - sum(fees)


def total_value(utxo_set: dict[CoinId, Utxo]) -> int:
    return sum(u.value for u in utxo_set.values())
