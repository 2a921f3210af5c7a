import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import KEYS, SCHEME, Bench, genesis_set, make_params, spend, u_for

from prismsim.blocks import validate_block
from prismsim import merkle, mining
from prismsim.chain import FIRST_SEEN, MOST_VOTED
from prismsim.config import resolve
from prismsim.mining import LastSuperblock, assemble_superblock, finish_mining, schedule_mining
from prismsim.merkle import merkle_root
from prismsim.netsim import run


def test_fresh_genesis_superblock_contents():
    bench = Bench()
    coins = list(genesis_set(3).values())
    for i, coin in enumerate(coins):
        bench.state.receive_transaction(spend(coin, KEYS[i + 1]), 0.0, SCHEME)
    ctx = bench.context()
    parents, contents, parent_root, content_root = assemble_superblock(ctx)
    assert len(parents) == bench.params.m + 2
    assert len(contents) == bench.params.m + 2
    assert parent_root == merkle_root(parents)
    assert content_root == merkle_root(contents)
    assert all(not v for v in ctx.votes)
    assert ctx.unref_prp_refs == () and ctx.unref_tx_refs == ()
    assert [t.digest for t in ctx.txs] == [
        e.tx.digest for e in bench.state.mempool.values()
    ]  # FIFO pool snapshot


def test_tx_parent_equals_proposer_parent():
    bench = Bench()
    bench.mine("proposer")
    ctx = bench.context()
    parents, _, _, _ = assemble_superblock(ctx)
    m = bench.params.m
    assert parents[m] == ctx.prp_parent  # transaction slot
    assert parents[m + 1] == ctx.prp_parent


def test_single_unvoted_level_votes_that_digest():
    bench = Bench()
    p1 = bench.mine("proposer")
    ctx = bench.context()
    for i in range(bench.params.m):
        assert ctx.votes[i] == [(1, p1.digest)]


def test_zero_hash_power_schedules_nothing():
    rng = np.random.default_rng(0)
    assert schedule_mining(0.0, 1.0, 5.0, rng) is None


def test_invalid_total_rate_is_an_error():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        schedule_mining(0.5, 0.0, 0.0, rng)


def test_exponential_delay_mean():
    # f * power = 0.1/s -> mean 10 s; 1e5 draws, 3 sigma band on the mean
    rng = np.random.default_rng(42)
    n = 10**5
    draws = np.array([schedule_mining(0.5, 0.2, 0.0, rng) for _ in range(n)])
    se = 10.0 / np.sqrt(n)
    assert abs(draws.mean() - 10.0) < 3 * se


def test_competing_hash_powers_split_blocks():
    # competing-exponentials oracle: P(first) = power share
    rng = np.random.default_rng(7)
    n = 10**4
    t_fast = rng.exponential(1.0 / 0.7, n)
    t_slow = rng.exponential(1.0 / 0.3, n)
    frac = np.mean(t_fast < t_slow)
    se = np.sqrt(0.7 * 0.3 / n)
    assert abs(frac - 0.7) < 3 * se
    # the sim's draws follow the same law
    wins = 0
    for _ in range(n):
        a = schedule_mining(0.7, 1.0, 0.0, rng)
        b = schedule_mining(0.3, 1.0, 0.0, rng)
        wins += a < b
    assert abs(wins / n - 0.7) < 3 * se


def test_pruned_block_matches_winning_subblock():
    bench = Bench()
    tx_block = bench.mine("transaction", deliver=False)
    assert tx_block.block_type.kind == "transaction"
    bench.state.receive_block(tx_block)
    prp = bench.mine("proposer", deliver=False)
    assert prp.block_type.kind == "proposer"
    assert prp.content.tx_refs == (tx_block.digest,)  # exactly the unref pool
    bench.state.receive_block(prp)
    voter = bench.mine("voter", chain_index=1, deliver=False)
    assert voter.block_type.kind == "voter"
    assert voter.parent_ref == bench.state.voter_trees[1].tip
    assert voter.content.votes == ((1, prp.digest),)


def test_mined_blocks_validate_property():
    """Round-trip validate_block over 1e3 random contexts."""
    rng = np.random.default_rng(11)
    bench = Bench(m=3, seed=13)
    coins = list(genesis_set(300).values())
    next_coin = 0
    for trial in range(1000):
        if rng.random() < 0.3 and next_coin < len(coins):
            bench.state.receive_transaction(
                spend(coins[next_coin], KEYS[int(rng.integers(8))]), bench.now, SCHEME
            )
            next_coin += 1
        ctx = bench.context(miner_id=int(rng.integers(5)))
        block = finish_mining(
            ctx, bench.params, float(rng.random()), int(rng.integers(2**62))
        )
        validate_block(block, bench.params, SCHEME)
        if rng.random() < 0.5:
            bench.state.receive_block(block)


def test_voter_blocks_never_revote_ancestor_levels():
    bench = Bench(m=2, seed=17)
    rng = np.random.default_rng(19)
    for _ in range(80):
        kind = rng.choice(["proposer", "voter"], p=[0.3, 0.7])
        bench.mine(str(kind), chain_index=int(rng.integers(2)))
    for i in range(2):
        tree = bench.state.voter_trees[i]
        chain = tree.walk_from_genesis(tree.tip)
        voted = set()
        for block in chain:
            for level, _ in block.content.votes:
                assert level not in voted
                voted.add(level)


def test_mempool_removal_prevents_reinclusion():
    bench = Bench()
    coin = next(iter(genesis_set(1).values()))
    tx = spend(coin, KEYS[1])
    bench.state.receive_transaction(tx, 0.0, SCHEME)
    first = bench.mine("transaction")
    assert any(t.digest == tx.digest for t in first.content.txs)
    second = bench.mine("transaction")
    assert not any(t.digest == tx.digest for t in second.content.txs)


def test_tx_capacity_respected():
    bench = Bench()
    coins = list(genesis_set(30).values())
    for i, coin in enumerate(coins):
        bench.state.receive_transaction(spend(coin, KEYS[(i + 1) % 8]), 0.0, SCHEME)
    ctx = bench.context(tx_capacity=10)
    assert len(ctx.txs) == 10


def test_superblock_serializes_only_replaced_vote_lists(monkeypatch):
    bench = Bench(m=4)
    bench.mine("proposer")
    last = LastSuperblock()
    ctx = bench.context()
    assemble_superblock(ctx, last)
    serialized = []
    real = mining.serialize_content
    monkeypatch.setattr(mining, "serialize_content", lambda c: serialized.append(c) or real(c))
    ctx.replace_votes(2, list(ctx.votes[2]))  # same votes, new object
    ctx.replace_votes(3, [])
    _, contents, _, content_root = assemble_superblock(ctx, last)
    assert [type(c).__name__ for c in serialized] == [
        "VoterContent", "VoterContent", "TransactionContent", "ProposerContent"
    ]
    _, fresh, _, fresh_root = assemble_superblock(ctx)
    assert contents == fresh and content_root == fresh_root


def test_blocks_mined_with_a_kept_superblock_validate():
    """One miner keeps its last superblock over random contexts, some
    with vote lists replaced the way adversaries do."""
    rng = np.random.default_rng(23)
    bench = Bench(m=3, seed=29)
    last = LastSuperblock()
    for _ in range(300):
        ctx = bench.context()
        if rng.random() < 0.3:
            chain = int(rng.integers(3))
            kept = int(rng.integers(len(ctx.votes[chain]) + 1))
            ctx.replace_votes(chain, ctx.votes[chain][:kept])
        block = finish_mining(ctx, bench.params, float(rng.random()), int(rng.integers(2**62)), last)
        validate_block(block, bench.params, SCHEME)
        _, _, parent_root, content_root = assemble_superblock(ctx)
        assert (block.header.parent_root, block.header.content_root) == (parent_root, content_root)
        if rng.random() < 0.7:
            bench.state.receive_block(block)


def _check_kept_assembly(ctx, last):
    """Assemble ``ctx`` into the kept ``last`` and require the leaves,
    every tree level, both roots and every proof of a fresh assembly."""
    parents, contents, parent_root, content_root = assemble_superblock(ctx, last)
    fresh = LastSuperblock()
    assert (parents, contents, parent_root, content_root) == assemble_superblock(ctx, fresh)
    assert last.parents.levels == fresh.parents.levels
    assert last.contents.levels == fresh.contents.levels
    for i in range(len(parents)):
        assert last.parents.prove(i) == fresh.parents.prove(i)
        assert last.contents.prove(i) == fresh.contents.prove(i)


def _reorged(tree, old_tip) -> bool:
    return old_tip != tree.genesis and old_tip not in {
        b.digest for b in tree.walk_from_genesis(tree.tip)
    }


# one step: (op, bench, chain, pick); ops 0-2 mine a proposer, voter or
# transaction block on a bench, 3-5 deliver a bench the next few blocks it
# has not been sent, in mining order, 6 builds a context and holds it
# unassembled, 7 assembles an honest context (or, for an odd pick, the
# held one, older than the last), 8 one with slots replaced the way
# strategies do, 9 one from another bench
STEP = st.tuples(st.integers(0, 9), st.integers(0, 2), st.integers(0, 2), st.integers(0, 999))


def _drive(rule, steps):
    """Play ``steps`` on three benches that mine and exchange blocks, and
    check the first bench's kept superblock after every assembly and its
    state after every step.  Returns the reorgs and vote-choice flips the
    first bench saw."""
    m = 3
    benches = [Bench(m=m, vote_rule=rule, seed=s) for s in range(3)]
    main = benches[0]
    state = main.state
    last = LastSuperblock()
    mined = []
    sent = [0, 0, 0]  # per bench: how many of ``mined`` it was sent
    held = main.context()
    reorgs = flips = 0
    for op, who, chain, pick in steps:
        bench = benches[who]
        if op <= 2:
            kind = ("proposer", "voter", "transaction")[op]
            mined.append(bench.mine(kind, chain_index=chain))
        elif op <= 5:
            tips = list(state.voter_tips)
            choices = dict(state.vote_choices)
            batch = mined[sent[who] : sent[who] + 1 + pick % 4]
            sent[who] += len(batch)
            for block in batch:
                bench.state.receive_block(block)
            reorgs += sum(_reorged(t, tip) for t, tip in zip(state.voter_trees, tips))
            flips += sum(state.vote_choices[level] != d for level, d in choices.items())
        elif op == 6:
            held = main.context()
        elif op == 7 and pick % 2:
            _check_kept_assembly(held, last)
        elif op >= 7:
            ctx = (benches[1 + pick % 2] if op == 9 else main).context()
            if op == 8:
                ctx.replace_votes(chain, ctx.votes[chain][: pick % (len(ctx.votes[chain]) + 1)])
                if mined:
                    ctx.replace_parent((chain + 1) % m, mined[pick % len(mined)].digest)
            _check_kept_assembly(ctx, last)
        state.check_invariants()
    return reorgs, flips


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([FIRST_SEEN, MOST_VOTED]), st.lists(STEP, min_size=40, max_size=200))
def test_kept_superblock_equals_a_fresh_assembly(rule, steps):
    _drive(rule, steps)


def test_kept_superblock_driver_reaches_reorgs_and_flips():
    """The random driver above does reach the slot changes it is meant
    to cover: voter reorgs and ``most_voted`` choice flips."""
    rng = np.random.default_rng(5)
    steps = [tuple(int(x) for x in rng.integers([10, 3, 3, 1000])) for _ in range(400)]
    reorgs, flips = _drive(MOST_VOTED, steps)
    assert reorgs > 0 and flips > 0


def _path_hashes(old, new):
    """Hashes a tree needs to move from committing ``old`` to ``new`` by
    rehashing each leaf whose bytes differ and every node above one; a
    new leaf count rebuilds every node."""
    if len(old) != len(new):
        dirty = set(range(len(new)))
    else:
        dirty = {i for i, (a, b) in enumerate(zip(old, new)) if a != b}
    width, count = len(new), len(dirty)
    while width > 1:
        width = (width + 1) // 2
        dirty = {i // 2 for i in dirty}
        count += len(dirty)
    return count


@pytest.mark.parametrize("adversary", ["none", "private_double_spend"])
def test_kept_assembly_hashes_no_more_than_a_leaf_compare(monkeypatch, adversary):
    """In a short m = 50 run, every kept assembly calls ``merkle.sha256``
    at most as often as comparing the old and new leaves requires."""
    hashed = [0]
    real_sha256 = merkle.sha256

    def counted_sha256(data):
        hashed[0] += 1
        return real_sha256(data)

    real_assemble = mining.assemble_superblock
    assemblies = []

    def checked(ctx, last):
        old = [], []  # a miner's first assembly builds every node
        if last.parents is not None:
            old = list(last.parents.leaves), list(last.contents.leaves)
        before = hashed[0]
        parents, contents, _, _ = real_assemble(ctx, last)
        required = _path_hashes(old[0], parents) + _path_hashes(old[1], contents)
        assert hashed[0] - before <= required
        assemblies.append(required)
        return parents, contents, last.parents.root, last.contents.root

    monkeypatch.setattr(merkle, "sha256", counted_sha256)
    monkeypatch.setattr(mining, "assemble_superblock", checked)
    cfg = {
        "duration": 10.0,
        "topology": {"nodes": 5, "degree": 4, "delay_s": 0.1},
        "prism": {"m": 50, "rate_voter_per_chain": 0.5, "rate_tx": 1.0, "rate_prop": 0.4},
        "workload": {"tps": 5.0},
        "adversary": {"strategy": adversary, "fraction": 0.3},
    }
    run(resolve(cfg), seed=0)
    assert len(assemblies) > 100
