import numpy as np
import pytest

from helpers import KEYS, SCHEME, Bench, genesis_set, make_params, spend, u_for

from prismsim.blocks import validate_block
from prismsim import mining
from prismsim.mining import LastSuperblock, assemble_superblock, finish_mining, schedule_mining
from prismsim.merkle import merkle_root


def test_fresh_genesis_superblock_contents():
    bench = Bench()
    coins = list(genesis_set(3).values())
    for i, coin in enumerate(coins):
        bench.state.receive_transaction(spend(coin, KEYS[i + 1]), 0.0, SCHEME)
    ctx = bench.context()
    parents, contents, parent_root, content_root = assemble_superblock(ctx, bench.params)
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
    parents, _, _, _ = assemble_superblock(ctx, bench.params)
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
        chain = bench.state.longest_chain(i)
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
    assemble_superblock(ctx, bench.params, last)
    serialized = []
    real = mining.serialize_content
    monkeypatch.setattr(mining, "serialize_content", lambda c: serialized.append(c) or real(c))
    ctx.votes[2] = list(ctx.votes[2])  # same votes, new object
    ctx.votes[3] = []
    _, contents, _, content_root = assemble_superblock(ctx, bench.params, last)
    assert [type(c).__name__ for c in serialized] == [
        "VoterContent", "VoterContent", "TransactionContent", "ProposerContent"
    ]
    _, fresh, _, fresh_root = assemble_superblock(ctx, bench.params)
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
            ctx.votes[chain] = ctx.votes[chain][: int(rng.integers(len(ctx.votes[chain]) + 1))]
        block = finish_mining(ctx, bench.params, float(rng.random()), int(rng.integers(2**62)), last)
        validate_block(block, bench.params, SCHEME)
        if rng.random() < 0.7:
            bench.state.receive_block(block)
