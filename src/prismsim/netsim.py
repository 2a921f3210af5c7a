"""Seeded deterministic discrete-event network simulator.

Time is continuous double-precision seconds; events are processed in
(time, sequence) order, the sequence counter breaking ties.  Every
random stream derives from (seed, purpose, node id), so a (config, seed)
pair reproduces the identical event trace on any host.

Block relay is push-on-first-receipt gossip with full blocks.  A block
sent over a link is serialized at the sender's egress (FIFO per link at
the configured bandwidth) and then propagates for the link delay.  Every
copy is charged to its link, but an arrival is scheduled only to a peer
that neither holds the item nor has an earlier copy of it on the way:
any other copy would reach a receiver that has already seen the item.

``EventCore`` is the part both protocols share: the event heap, the
link model, the genesis coins and payment workload, mining clocks, the
run loop with its checkpoint cadence and the report fields common to
both.  ``Simulation`` (Prism, here) and ``LongestChainSimulation``
(``baseline.py``) add their node behaviour, checkpoints and report
sections.
"""
from __future__ import annotations

import gc
import heapq
import random
import time
import weakref
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, count

from .blocks import (
    PROPOSER,
    TRANSACTION,
    VOTER,
    Block,
    SortitionParams,
    ValidationError,
    validate_block,
)
from .chain import ChainState, Genesis
from .config import adversarial_count, config_digest, genesis_coin_count
from .confirmation import ConfirmationEngine
from .crypto import get_scheme
from .ledger import (
    Transaction,
    TxInput,
    TxOutput,
    Utxo,
    conservation_check,
    signed_transaction,
)
from .mining import (
    LastSuperblock,
    finish_mining,
    genesis_superblock,
    honest_context,
    schedule_mining,
)
from .metrics import MetricsReport, latency_stats
from .rng import default_rng

# event kinds
MINE = 0
ARRIVE = 1
TX = 2
CHECKPOINT = 3
FETCH = 4
SPAM = 5
TX_RELAY = 6  # longest chain: a gossiped pending transaction

FETCH_REQUEST_BYTES = 100

# the cyclic collector's thresholds while a run's loop is on: the heap
# only grows (blocks, tree heights, Merkle levels) and little of it is
# cyclic garbage, so passes at the default thresholds mostly rescan
# live objects
RUN_GC_THRESHOLDS = (50_000, 20, 100)

# the payment workload: genesis coins of one value dealt round-robin to
# a fixed set of wallets, each payment one coin to a random wallet
WALLETS = 16
COIN_VALUE = 10


def utilization_bound(f: float, delta: float, h: float) -> float:
    """Upper bound on bandwidth utilization: blocks in flight per hop."""
    if f <= 0 or delta <= 0 or h <= 0:
        raise ValueError("f, delta and h must be > 0")
    return f * delta / h


def security_constraint(beta: float) -> float:
    """Maximum tolerable blocks-in-flight (f*delta) for a given adversary share."""
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 0.5)")
    return (1.0 - 2.0 * beta) / beta


@dataclass(frozen=True)
class Topology:
    n: int
    edges: tuple[tuple[int, int], ...]
    delay_s: float
    bandwidth: float
    diameter: int
    mean_hops: float

    def neighbors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        return out


def _random_regular_pairs(d: int, n: int, seed: int) -> set[tuple[int, int]]:
    """The edges ``networkx.random_regular_graph(d, n, seed)`` (3.x) draws,
    draw for draw: pair shuffled stubs, re-pair those of rejected pairs, and
    restart on the same stream when no rejected pair can form an edge."""
    rng = random.Random(seed)

    def suitable(edges, potential_edges):
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                # the swap rebinds s1 for the rest of the inner loop; networkx
                # does the same, and which pairs get checked depends on it
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    while True:
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * d
        while stubs:
            potential_edges: dict[int, int] = {}
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] = potential_edges.get(s1, 0) + 1
                    potential_edges[s2] = potential_edges.get(s2, 0) + 1
            if not suitable(edges, potential_edges):
                break
            stubs = [node for node, potential in potential_edges.items() for _ in range(potential)]
        else:
            return edges


def _graph(n: int, pairs) -> tuple[tuple[tuple[int, int], ...], list[dict[int, None]]]:
    """Edges and adjacency of the graph on nodes 0..n-1 with ``pairs``.
    Edges come as (low, high) in networkx ``Graph.edges()`` order: nodes
    ascending, each node's neighbours in insertion order.  The order of
    ``Node.neighbors``, and so of gossip, follows from it."""
    adjacency: list[dict[int, None]] = [{} for _ in range(n)]
    for u, v in pairs:
        adjacency[u][v] = None
        adjacency[v][u] = None
    return tuple((u, v) for u in range(n) for v in adjacency[u] if v > u), adjacency


def _hops_from(adjacency: list[dict[int, None]], source: int) -> list[int | None]:
    """Breadth-first hop counts from ``source``; None where unreachable."""
    hops: list[int | None] = [None] * len(adjacency)
    hops[source] = 0
    queue = [source]
    for u in queue:
        for v in adjacency[u]:
            if hops[v] is None:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def build_topology(cfg: dict, seed: int) -> Topology:
    topo = cfg["topology"]
    n = topo["nodes"]
    kind = topo["kind"]
    if kind == "complete" or n == 1:
        edges, adjacency = _graph(n, combinations(range(n), 2))
    elif kind == "ring":
        edges, adjacency = _graph(n, [(i, (i + 1) % n) for i in range(n)])
    else:
        rng_seed = default_rng([seed, 0xA11CE]).integers(2**31)
        for attempt in count():
            edges, adjacency = _graph(n, _random_regular_pairs(topo["degree"], n, rng_seed + attempt))
            if None not in _hops_from(adjacency, 0):
                break
    # over the pairs u < v; integer sums below 2**53 are exact in a float,
    # so the mean is the correctly rounded quotient, as np.mean gave it
    diameter = total = pairs = 0
    for u in range(n):
        hops = _hops_from(adjacency, u)[u + 1:]
        if None in hops:
            raise ValueError("topology: graph is not connected")
        diameter = max(diameter, max(hops, default=0))
        total += sum(hops)
        pairs += len(hops)
    return Topology(
        n=n,
        edges=edges,
        delay_s=topo["delay_s"],
        bandwidth=topo["bandwidth_bytes_per_s"],
        diameter=diameter,
        mean_hops=total / pairs if pairs else 0.0,
    )


def block_wire_size(block: Block, sizes: dict) -> int:
    """Size for the delay model: payload-count based, fixed overhead."""
    if block.block_type.kind == TRANSACTION:
        return sizes["block_overhead_bytes"] + sizes["bytes_per_tx"] * len(block.content.txs)
    if block.block_type.kind == PROPOSER:
        refs = len(block.content.prp_refs) + len(block.content.tx_refs)
        return sizes["block_overhead_bytes"] + sizes["bytes_per_ref"] * refs
    return sizes["block_overhead_bytes"] + sizes["bytes_per_ref"] * len(block.content.votes)


# --- the shared event core ------------------------------------------------------------


class Peer:
    """What a node of either protocol shares: identity, hash power and the
    stream of a memoryless mining clock, drawn once per completion.

    ``sim`` is a weak proxy: the simulation owns its nodes, so a strong
    back-reference would make every run a reference cycle that only the
    cyclic collector frees.  A node is used only while its simulation is
    alive.
    """

    def __init__(self, node_id: int, sim: "EventCore", hash_power: float):
        self.id = node_id
        self.sim = weakref.proxy(sim)
        self.hash_power = hash_power
        self.rng = default_rng([sim.seed, 1, node_id])


class EventCore:
    """Event loop, link model, workload and shared report of one run.

    A protocol subclass sets ``protocol``, fills ``nodes`` (``Peer``s
    with ``on_block``, ``on_mining_complete`` and ``on_transaction``)
    and ``held_blocks`` (each node's digest-keyed block store), keeps
    ``latency_samples`` and provides ``_checkpoint``,
    ``_handle_event`` for its own event kinds, ``_protocol_report`` and
    either ``_wire_size`` or its own ``broadcast``.
    """

    protocol = ""

    def __init__(self, cfg: dict, seed: int, mining_rate: float):
        self.cfg = cfg
        self.seed = seed
        self.scheme = get_scheme(cfg["signature_scheme"])
        self.mining_rate = mining_rate  # total blocks/s over all hash power
        self.topology = build_topology(cfg, seed)
        self.neighbors = self.topology.neighbors()
        self.duration = cfg["duration"]

        self.now = 0.0
        self.heap: list = []
        self.seq = 0
        # directed per-link FIFO egress: link_free[u][v] is when u -> v frees up
        self.link_free: list[dict[int, float]] = [{} for _ in range(self.topology.n)]
        # (peer, digest) -> earliest arrival of a scheduled copy not yet delivered
        self.in_flight: dict[tuple[int, bytes], float] = {}

        self.workload_rng = default_rng([seed, 2])
        self.wallets = [self.scheme.keypair(b"wallet" + i.to_bytes(4, "little")) for i in range(WALLETS)]
        self.genesis_utxo = self._build_genesis_utxo()
        self._unused_coins = list(self.genesis_utxo.values())
        self._next_coin = 0

        self.nodes: list = []
        self.mine_times: dict[bytes, float] = {}
        self.generated_txs = 0
        self.latency_samples: list = []
        self.timeseries: list[dict] = []

    # --- genesis and workload ----------------------------------------------------------

    def _build_genesis_utxo(self) -> dict:
        utxo = {}
        for i in range(genesis_coin_count(self.cfg)):
            owner = self.wallets[i % WALLETS]
            coin = Utxo(b"genesis-coin" + i.to_bytes(8, "little") + bytes(12), 0, COIN_VALUE, owner.public)
            utxo[coin.id] = coin
        return utxo

    def _take_coin(self):
        """The next unspent genesis coin and its owner's keys, or None."""
        if self._next_coin >= len(self._unused_coins):
            return None
        i = self._next_coin
        self._next_coin += 1
        # coin i belongs to wallet i mod WALLETS (_build_genesis_utxo)
        return self._unused_coins[i], self.wallets[i % WALLETS]

    def _schedule_workload(self) -> None:
        tps = self.cfg["workload"]["tps"]
        if tps > 0:
            self.push(self.workload_rng.exponential(1.0 / tps), TX, None)

    def _next_payment(self) -> Transaction | None:
        taken = self._take_coin()
        if taken is None:
            return None
        coin, owner = taken
        recipient = self.wallets[self.workload_rng.integers(WALLETS)]
        return self._spend(coin, owner, recipient.public)

    def _spend(self, coin: Utxo, owner, recipient: bytes) -> Transaction:
        """The whole of ``coin`` paid to ``recipient``, signed by ``owner``."""
        return signed_transaction(
            self.scheme, [TxInput(*coin.id)], [TxOutput(coin.value, recipient)], [owner]
        )

    def _handle_tx_event(self, now: float) -> None:
        tx = self._next_payment()
        tps = self.cfg["workload"]["tps"]
        self.push(now + self.workload_rng.exponential(1.0 / tps), TX, None)
        if tx is None:
            return
        self.generated_txs += 1
        # users cannot tell honest miners apart, so payments go to a
        # uniformly chosen node
        node = self.nodes[self.workload_rng.integers(len(self.nodes))]
        node.on_transaction(tx, now)

    # --- event plumbing -----------------------------------------------------------------

    def push(self, when: float, kind: int, payload) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (when, self.seq, kind, payload))

    def _link_arrival(self, sender: int, receiver: int, size: int, now: float) -> float:
        """Egress serialization (FIFO per directed link) plus propagation."""
        free = self.link_free[sender]
        done = max(now, free.get(receiver, 0.0)) + size / self.topology.bandwidth
        free[receiver] = done
        return done + self.topology.delay_s

    def send(self, sender: int, peers, kind: int, item, size: int, now: float,
             held: list, exclude: int | None = None, track: bool = True) -> None:
        """Send ``item`` (with a ``digest``) from ``sender`` to each of
        ``peers`` but ``exclude``, as ``kind`` events ``(peer, item, sender)``.

        Every copy is charged to its link, so arrival times do not depend
        on which copies are scheduled.  A copy is dropped when the peer
        already holds the item (``item.digest in held[peer]``) or, with
        ``track``, when a tracked copy is due there at the same time or
        earlier: that copy was pushed first, so it is handled first, and
        this one would find the item seen.  A receiver keeps no record of
        some items it refuses (an invalid block counts at every receipt),
        so their copies must pass ``track=False``.
        """
        free = self.link_free[sender]
        serialize = size / self.topology.bandwidth
        delay = self.topology.delay_s
        digest = item.digest
        in_flight = self.in_flight
        for peer in peers:
            if peer == exclude:
                continue
            done = max(now, free.get(peer, 0.0)) + serialize
            free[peer] = done
            if digest in held[peer]:
                continue
            arrival = done + delay
            if track:
                key = (peer, digest)
                first = in_flight.get(key)
                if first is not None and first <= arrival:
                    continue
                in_flight[key] = arrival
            self.push(arrival, kind, (peer, item, sender))

    def broadcast(self, sender: int, block, now: float, exclude: int | None) -> None:
        self.send(sender, self.neighbors[sender], ARRIVE, block, self._wire_size(block), now,
                  self.held_blocks, exclude)

    # --- main loop ------------------------------------------------------------------------

    def _schedule_mining(self, node: Peer, now: float) -> None:
        """Push ``node``'s next mining completion; a powerless node has none."""
        when = schedule_mining(node.hash_power, self.mining_rate, now, node.rng)
        if when is not None:
            self.push(when, MINE, node.id)

    def run(self) -> "RunResult":
        """Run the loop to the end; the collector's thresholds are raised
        for the run and the caller's restored after it, also on error."""
        started = time.perf_counter()
        thresholds = gc.get_threshold()
        gc.set_threshold(*RUN_GC_THRESHOLDS)
        try:
            self._loop()
            self.now = self.duration
            self._checkpoint(self.duration)
            return RunResult(report=self._report(started), sim=self)
        finally:
            gc.set_threshold(*thresholds)

    def _loop(self) -> None:
        for node in self.nodes:
            self._schedule_mining(node, 0.0)
        self._schedule_workload()
        self.push(self.cfg["checkpoint_interval"], CHECKPOINT, None)

        heap = self.heap
        nodes = self.nodes
        in_flight = self.in_flight
        while heap:
            when, _, kind, payload = heapq.heappop(heap)
            if when > self.duration:
                break
            self.now = when
            if kind == ARRIVE:
                receiver, block, sender = payload
                in_flight.pop((receiver, block.digest), None)
                nodes[receiver].on_block(block, sender, when)
            elif kind == MINE:
                # the block's draws (sortition u, nonce) precede the next time
                node = nodes[payload]
                node.on_mining_complete(when)
                self._schedule_mining(node, when)
            elif kind == TX:
                self._handle_tx_event(when)
            elif kind == CHECKPOINT:
                self._handle_checkpoint(when)
            else:
                self._handle_event(kind, payload, when)

    def _handle_checkpoint(self, now: float) -> None:
        self._checkpoint(now)
        self.push(now + self.cfg["checkpoint_interval"], CHECKPOINT, None)

    # --- report -----------------------------------------------------------------------------

    def _confirmed_in_window(self, steady_start: float) -> int:
        return sum(1 for s in self.latency_samples if s.confirmed_at >= steady_start)

    def _raw_confirmed(self, steady_start: float) -> int:
        """Transactions entering the unsanitized ledger in the steady window."""
        return self._confirmed_in_window(steady_start)

    # the share of the run before the steady-state window that throughput
    # and latency are measured over
    STEADY_STATE_FRACTION = 0.2

    def _report(self, started: float) -> MetricsReport:
        steady_start = self.STEADY_STATE_FRACTION * self.duration
        window = self.duration - steady_start
        return MetricsReport(
            protocol=self.protocol,
            seed=self.seed,
            config_digest=config_digest(self.cfg),
            duration=self.duration,
            steady_state_start=steady_start,
            topology={
                "nodes": self.topology.n,
                "edges": len(self.topology.edges),
                "diameter": self.topology.diameter,
                "mean_hops": self.topology.mean_hops,
            },
            throughput={
                "generated_tps": self.generated_txs / self.duration,
                "confirmed_raw_tps": self._raw_confirmed(steady_start) / window,
                "confirmed_sanitized_tps": self._confirmed_in_window(steady_start) / window,
            },
            latency=latency_stats(self.latency_samples, steady_start),
            wallclock={"finished_unix": time.time(), "runtime_s": time.perf_counter() - started},
            **self._protocol_report(),
        )


# --- Prism -------------------------------------------------------------------------------


class Node(Peer):
    """Honest Prism node: chain state, miner, gossip relay."""

    def __init__(self, node_id: int, sim: "Simulation", hash_power: float, adversarial: bool):
        super().__init__(node_id, sim, hash_power)
        self.adversarial = adversarial
        self.state = ChainState(
            sim.params.m, vote_rule=sim.cfg["prism"]["vote_rule"], genesis=sim.genesis
        )
        self.jitter_rng = default_rng([sim.seed, 3, node_id])
        self.strategy = None  # set by the adversary module when applicable
        self.last_superblock = LastSuperblock(sim.genesis_superblock)

    # --- mining ----------------------------------------------------------------

    def build_context(self, now: float):
        if self.strategy is not None:
            ctx = self.strategy.build_context(now)
            if ctx is not None:
                return ctx
        return honest_context(self.state, self.id, now, self.sim.tx_capacity)

    def on_mining_complete(self, now: float) -> None:
        ctx = self.build_context(now)
        block = finish_mining(
            ctx, self.sim.params, self.rng.random(), self.rng.integers(2**62),
            self.last_superblock,
        )
        self.sim.record_mined(block, now, self.id)
        if self.strategy is None:
            self.state.receive_block(block)
            self.sim.broadcast(self.id, block, now, exclude=None)
        else:
            # withholding strategies return [] here and the backlog later
            self.publish(self.strategy.handle_mined(block, now), now)

    def publish(self, blocks, now: float) -> None:
        for block in blocks:
            self.state.receive_block(block)
            self.sim.broadcast(self.id, block, now, exclude=None)

    # --- receipt -----------------------------------------------------------------

    def on_block(self, block: Block, from_peer: int, now: float) -> None:
        state, sim = self.state, self.sim
        if state.seen(block):
            return
        if not sim.verdict(block)[0]:
            sim.invalid_blocks += 1
            return
        changes = state.receive_new_block(block)
        # a rejected block is counted once here and then known as a duplicate
        rejected = changes.count("rejected:bad_parent")
        if rejected:
            sim.invalid_blocks += rejected
            if changes[0] == "rejected:bad_parent":
                return
        # gossip: forward on first receipt, even while parents are missing
        sim.broadcast(self.id, block, now, exclude=from_peer)
        if changes[0] == "orphaned":
            sim.push_fetch(self.id, from_peer, block.parent_ref, now)
        if self.strategy is not None:
            self.publish(self.strategy.handle_block(block, now), now)

    def on_transaction(self, tx: Transaction, now: float) -> None:
        # transactions are not gossiped: only the receiving miner sees one
        release = now + self.draw_jitter()
        self.state.receive_transaction(tx, now, self.sim.scheme, release_time=release)

    def draw_jitter(self) -> float:
        jitter = self.sim.cfg["spam"]["jitter"]
        kind = jitter["kind"]
        if kind == "uniform":
            return self.jitter_rng.uniform(0.0, jitter["max_s"])
        if kind == "exponential":
            return self.jitter_rng.exponential(jitter["mean_s"])
        return 0.0


class Simulation(EventCore):
    """One deterministic Prism run over a topology."""

    protocol = "prism"

    def __init__(self, cfg: dict, seed: int):
        prism = cfg["prism"]
        self.params = SortitionParams(
            m=prism["m"],
            rate_tx=prism["rate_tx"],
            rate_prop=prism["rate_prop"],
            rate_voter=prism["rate_voter_per_chain"],
        )
        super().__init__(cfg, seed, self.params.total_rate)
        self.tx_capacity = prism["tx_block_capacity"]
        # immutable, so every node's state and the genesis superblock share them
        self.genesis = Genesis(self.params.m)
        # the run's one superblock over genesis, which every miner's first
        # assembly copies; built at first use, inside the run.  It closes
        # over the genesis alone, so the nodes hold no path back to the run.
        self.genesis_superblock = cache(partial(genesis_superblock, self.genesis))

        honest_flags = self._assign_adversaries()
        powers = self._assign_powers(honest_flags)
        self.nodes = [
            Node(i, self, powers[i], not honest_flags[i]) for i in range(self.topology.n)
        ]
        self.held_blocks = [node.state.blocks for node in self.nodes]
        self.observer = 0  # adversarial nodes are the last ones by id

        self.engine = ConfirmationEngine(
            self.nodes[self.observer].state,
            beta=prism["beta"],
            epsilon=prism["epsilon"],
            scheme=self.scheme,
            initial_utxo=self.genesis_utxo,
            mine_times=self.mine_times,
        )
        self.latency_samples = self.engine.latency_samples  # the engine appends

        self.block_counts = {TRANSACTION: 0, PROPOSER: 0, VOTER: 0}
        self.blocks_by_digest: dict[bytes, Block] = {}
        # (validation verdict, wire size) per Block object; a forged body
        # can reuse a digest
        self._verdicts: dict[Block, tuple[bool, int]] = {}
        self.invalid_blocks = 0
        self.spam_tx_digests: set[bytes] = set()
        self.spam_sets = 0
        self.spam_inclusions = 0

    # --- setup -----------------------------------------------------------------

    def _assign_adversaries(self) -> list[bool]:
        n = self.topology.n
        honest_count = n - adversarial_count(self.cfg)
        return [i < honest_count for i in range(n)]

    def _assign_powers(self, honest_flags: list[bool]) -> list[float]:
        adv = self.cfg["adversary"]
        n = self.topology.n
        if adv["strategy"] == "private_double_spend" and adv["fraction"] > 0:
            # co-located adversary: one node holds the whole fraction
            beta = adv["fraction"]
            honest_count = n - 1
            return [beta if not honest_flags[i] else (1.0 - beta) / honest_count for i in range(n)]
        return [1.0 / n] * n

    # --- events -------------------------------------------------------------------

    def broadcast(self, sender: int, block: Block, now: float, exclude: int | None) -> None:
        # a copy of an invalid block in flight does not make a later copy a
        # duplicate: each receipt of it is counted, and the block is not stored
        valid, size = self.verdict(block)
        self.send(sender, self.neighbors[sender], ARRIVE, block, size, now,
                  self.held_blocks, exclude, track=valid)

    def push_fetch(self, requester: int, peer: int, digest: bytes, now: float) -> None:
        arrival = self._link_arrival(requester, peer, FETCH_REQUEST_BYTES, now)
        self.push(arrival, FETCH, (peer, requester, digest))

    def _handle_event(self, kind: int, payload, now: float) -> None:
        if kind == SPAM:
            self._handle_spam_event(now)
        elif kind == FETCH:
            peer, requester, digest = payload
            found = self.nodes[peer].state.get_block(digest)
            if found is not None:
                valid, size = self.verdict(found)
                self.send(peer, (requester,), ARRIVE, found, size, now,
                          self.held_blocks, track=valid)

    def verdict(self, block: Block) -> tuple[bool, int]:
        """Whether ``block`` passes ``validate_block``, and its wire size:
        both computed once per object, when it is first sent or received.

        Both depend only on the block and the run's fixed parameters,
        sizes and signature scheme, so every node can share them.
        """
        entry = self._verdicts.get(block)
        if entry is None:
            try:
                validate_block(block, self.params, self.scheme)
                valid = True
            except ValidationError:
                valid = False
            entry = self._verdicts[block] = (valid, block_wire_size(block, self.cfg["sizes"]))
        return entry

    def record_mined(self, block: Block, now: float, miner: int) -> None:
        self.mine_times[block.digest] = now
        self.block_counts[block.block_type.kind] += 1
        self.blocks_by_digest[block.digest] = block
        if block.block_type.kind == TRANSACTION and self.spam_tx_digests:
            for tx in block.content.txs:
                if tx.digest in self.spam_tx_digests:
                    self.spam_inclusions += 1

    # --- workload --------------------------------------------------------------------

    def _schedule_workload(self) -> None:
        super()._schedule_workload()
        spam = self.cfg["spam"]
        if spam["enabled"]:
            self.push(self.workload_rng.exponential(1.0 / spam["tps"]), SPAM, None)

    def _handle_spam_event(self, now: float) -> None:
        """One conflict set: distinct spends of one coin, delivered to all
        honest nodes simultaneously."""
        spam = self.cfg["spam"]
        self.push(now + self.workload_rng.exponential(1.0 / spam["tps"]), SPAM, None)
        taken = self._take_coin()
        if taken is None:
            return
        coin, owner = taken
        self.spam_sets += 1
        victims = [node for node in self.nodes if not node.adversarial]
        for i, victim in enumerate(victims):
            # one distinct recipient per victim keeps the variants distinct
            recipient = self.scheme.keypair(b"spam-sink" + i.to_bytes(4, "little"))
            variant = self._spend(coin, owner, recipient.public)
            self.spam_tx_digests.add(variant.digest)
            victim.on_transaction(variant, now)

    # --- checkpoints and report ------------------------------------------------------------

    def _checkpoint(self, now: float) -> None:
        self.engine.evaluate(now)
        state = self.nodes[self.observer].state
        self.timeseries.append(
            {
                "time": now,
                "confirmed_raw": self.engine.raw_count,
                "confirmed_sanitized": self.engine.sanitized_count,
                "max_confirmed_level": len(self.engine.leaders),
                "alpha_voter": state.voter_fork_rate(),
                "alpha_proposer": state.proposer_fork_rate(),
                "mempool": len(state.mempool),
                "blocks_mined": sum(self.block_counts.values()),
            }
        )

    def _raw_confirmed(self, steady_start: float) -> int:
        raw_at_cutoff = 0
        for row in self.timeseries:
            if row["time"] >= steady_start:
                break
            raw_at_cutoff = row["confirmed_raw"]
        return max(0, self.engine.raw_count - raw_at_cutoff)

    def _protocol_report(self) -> dict:
        cfg = self.cfg
        engine = self.engine
        observer_state = self.nodes[self.observer].state
        adv = cfg["adversary"]
        target = adv["target_level"] if adv["strategy"] == "private_double_spend" else None
        released = None
        if adv["strategy"] == "private_double_spend":
            strategy = self.nodes[-1].strategy
            released = bool(strategy is not None and strategy.released)
        reversed_levels = {r["level"] for r in engine.reversals}
        success = None
        if adv["strategy"] == "private_double_spend":
            success = target in reversed_levels
        elif adv["strategy"] != "none":
            success = bool(reversed_levels)
        return dict(
            blocks={
                "transaction": self.block_counts[TRANSACTION],
                "proposer": self.block_counts[PROPOSER],
                "voter": self.block_counts[VOTER],
                "chain": 0,
                "total": sum(self.block_counts.values()),
            },
            forking={
                "voter": observer_state.voter_fork_rate(),
                "proposer": observer_state.proposer_fork_rate(),
                "chain": None,
            },
            confirmation={
                "beta": cfg["prism"]["beta"],
                "epsilon": cfg["prism"]["epsilon"],
                "max_confirmed_level": len(engine.leaders),
                "confirm_depth": None,
                "reversals": len(engine.reversals),
            },
            attack={
                "strategy": adv["strategy"],
                "fraction": adv["fraction"] if adv["strategy"] != "none" else 0.0,
                "target_level": target,
                "released": released,
                "success": success,
            },
            spam={
                "enabled": cfg["spam"]["enabled"],
                "conflict_sets": self.spam_sets,
                "inclusions": self.spam_inclusions,
                "baseline_inclusions": None,
                "normalized": None,
            },
            mempool_final=len(observer_state.mempool),
            invalid_blocks=self.invalid_blocks,
            conservation_ok=conservation_check(engine.genesis_total, engine.utxo, engine.fees),
        )


@dataclass
class RunResult:
    report: MetricsReport
    sim: EventCore


def run(cfg: dict, seed: int) -> RunResult:
    """Run one experiment; dispatches on the protocol field."""
    if cfg["protocol"] == "longest_chain":
        from .baseline import LongestChainSimulation

        return LongestChainSimulation(cfg, seed).run()
    sim = Simulation(cfg, seed)
    if cfg["adversary"]["strategy"] != "none" and cfg["adversary"]["fraction"] > 0:
        from .adversary import install_strategies

        install_strategies(sim)
    result = sim.run()
    spam = cfg["spam"]
    if spam["enabled"]:
        # normalized spam compares against the no-jitter twin of the same
        # seed; a run without jitter is its own twin
        twin = result
        if spam["jitter"]["kind"] != "none":
            twin = run({**cfg, "spam": {**spam, "jitter": {**spam["jitter"], "kind": "none"}}}, seed)
        base = twin.report.spam["inclusions"]
        result.report.spam["baseline_inclusions"] = base
        result.report.spam["normalized"] = result.report.spam["inclusions"] / base if base else None
    return result
