import copy

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from helpers import (
    KEYS, SCHEME, Bench, forge_proposer, forge_tx_block, forge_voter, genesis_set, make_params, spend,
)

from prismsim.blocks import validate_block
from prismsim.chain import FIRST_SEEN, MOST_VOTED, ChainState, TxRejected


def test_receive_wellformed_tx_accepted():
    bench = Bench()
    coin = next(iter(genesis_set(1).values()))
    tx = spend(coin, KEYS[1])
    result = bench.state.receive_transaction(tx, 0.0, SCHEME)
    assert not isinstance(result, TxRejected)
    assert tx.digest in bench.state.mempool


def test_double_spend_against_mempool_rejected():
    bench = Bench()
    coin = next(iter(genesis_set(1).values()))
    t1 = spend(coin, KEYS[1])
    t2 = spend(coin, KEYS[2])
    bench.state.receive_transaction(t1, 0.0, SCHEME)
    result = bench.state.receive_transaction(t2, 0.0, SCHEME)
    assert isinstance(result, TxRejected) and result.reason == "Conflict"
    # a repeat of a pooled transaction conflicts on its own coins
    assert bench.state.receive_transaction(t1, 0.0, SCHEME) == TxRejected("Conflict")


def test_tx_conflicting_with_received_tx_block_rejected():
    # two-block scripted scenario: a tx block spends the coin, then a
    # conflicting tx arrives
    bench = Bench()
    coin = next(iter(genesis_set(1).values()))
    t1 = spend(coin, KEYS[1])
    bench.state.receive_transaction(t1, 0.0, SCHEME)
    bench.mine("transaction")
    assert t1.digest not in bench.state.mempool  # removed by its own block
    t2 = spend(coin, KEYS[2])
    result = bench.state.receive_transaction(t2, 1.0, SCHEME)
    assert isinstance(result, TxRejected) and result.reason == "Conflict"
    # so does a repeat of the mined transaction
    assert bench.state.receive_transaction(t1, 1.0, SCHEME) == TxRejected("Conflict")
    bench.state.check_invariants()


def test_bad_signature_rejected():
    from prismsim.ledger import Transaction

    bench = Bench()
    coin = next(iter(genesis_set(1).values()))
    good = spend(coin, KEYS[1])
    forged = Transaction(good.inputs, good.outputs, ((KEYS[0].public, b"\0" * 32),))
    result = bench.state.receive_transaction(forged, 0.0, SCHEME)
    assert isinstance(result, TxRejected) and result.reason == "BadSignature"


def test_voter_block_extends_tip():
    bench = Bench()
    block = bench.mine("voter", chain_index=2)
    tree = bench.state.voter_trees[2]
    assert tree.tip == block.digest
    assert tree.tip_chainlen == 1


def test_voter_fork_shorter_than_tip_stored_without_reorg():
    bench = Bench()
    b1 = bench.mine("voter", chain_index=0)
    b2 = bench.mine("voter", chain_index=0)
    tree = bench.state.voter_trees[0]
    assert tree.tip == b2.digest and tree.tip_chainlen == 2
    # a competing block at height 1, mined from genesis by someone else
    fork_state = ChainState(bench.params.m)
    fork_bench = Bench(seed=99)
    fork = fork_bench.mine("voter", chain_index=0, miner_id=7, deliver=False)
    changes = bench.state.receive_block(fork)
    assert f"voter_stored:0" in changes and f"voter_tip:0" not in changes
    assert tree.tip == b2.digest


def test_first_arrival_tie_break_keeps_tip():
    bench = Bench()
    b1 = bench.mine("voter", chain_index=0)
    rival_bench = Bench(seed=123)
    rival = rival_bench.mine("voter", chain_index=0, miner_id=9, deliver=False)
    bench.state.receive_block(rival)
    assert bench.state.voter_trees[0].tip == b1.digest


def test_vote_depths_follow_main_chain():
    bench = Bench()
    bench.mine("proposer")  # level 1, gives every chain a vote candidate
    vote_block = bench.mine("voter", chain_index=1)
    assert vote_block.content.votes  # carries the level-1 vote
    assert bench.state.voter_trees[1].vote_and_depth(1)[1] == 1  # vote in the tip
    for _ in range(3):
        bench.mine("voter", chain_index=1)
    digest, depth = bench.state.voter_trees[1].vote_and_depth(1)
    assert depth == 4  # 3 blocks after it, plus one
    assert bench.state.voter_trees[0].vote_and_depth(1) is None or True
    assert bench.state.voter_trees[2].vote_and_depth(99) is None  # never voted


def test_voter_reorg_recomputes_votes():
    """Fork overtaking the tip by one: votes must switch to the fork's,
    hand-traced against the receive/update pseudocode semantics."""
    m = 2
    bench = Bench(m=m)
    prp1 = bench.mine("proposer")  # level 1
    # main chain: vote for prp1 in block v1
    v1 = bench.mine("voter", chain_index=0)
    assert bench.state.voter_trees[0].vote_and_depth(1) == (prp1.digest, 1)

    # competing proposer at level 1 from another miner's view
    other = Bench(m=m, seed=5)
    prp1b = other.mine("proposer", miner_id=3)
    bench.state.receive_block(prp1b)
    assert bench.state.candidates_at(1) == [prp1.digest, prp1b.digest]

    # private fork of chain 0 voting for the competitor, built on a state
    # that saw prp1b first
    fork = Bench(m=m, seed=7)
    fork.state.receive_block(prp1b)
    f1 = fork.mine("voter", chain_index=0, miner_id=3)
    f2 = fork.mine("voter", chain_index=0, miner_id=3)
    assert f1.content.votes == ((1, prp1b.digest),)

    # delivering the two fork blocks overtakes the 1-long main chain
    bench.state.receive_block(f1)
    changes = bench.state.receive_block(f2)
    assert "voter_tip:0" in changes
    assert bench.state.voter_trees[0].vote_and_depth(1) == (prp1b.digest, 2)
    # tally reflects the switch
    assert bench.state.votes_by_level[1] == {prp1b.digest: 1}


def test_tx_block_updates_pools_and_mempool():
    bench = Bench()
    coin = next(iter(genesis_set(1).values()))
    tx = spend(coin, KEYS[1])
    bench.state.receive_transaction(tx, 0.0, SCHEME)
    block = bench.mine("transaction")
    assert tx in [t for t in block.content.txs]
    assert tx.digest not in bench.state.mempool
    assert block.digest in bench.state.unref_tx_pool


def test_proposer_block_prunes_pools_and_advances_parent():
    bench = Bench()
    tx_block = bench.mine("transaction")
    assert tx_block.digest in bench.state.unref_tx_pool
    prp = bench.mine("proposer")
    assert prp.content.tx_refs == (tx_block.digest,)
    assert tx_block.digest not in bench.state.unref_tx_pool
    assert bench.state.prp_parent == prp.digest
    assert bench.state.prp_parent_level == 1
    # next proposer references the new unreferenced proposer pool: empty,
    # since prp became the parent
    prp2 = bench.mine("proposer")
    assert prp2.level == 2
    assert prp2.content.prp_refs == ()
    assert prp2.parent_ref == prp.digest


def test_forked_proposer_is_referenced_by_next_level():
    bench = Bench()
    prp1 = bench.mine("proposer")
    other = Bench(seed=5)
    prp1b = other.mine("proposer", miner_id=3)
    bench.state.receive_block(prp1b)
    # the losing fork stays unreferenced until a next-level block lists it
    assert prp1b.digest in bench.state.unref_prp_pool
    prp2 = bench.mine("proposer")
    assert prp1b.digest in prp2.content.prp_refs
    assert prp1b.digest not in bench.state.unref_prp_pool


def test_deeper_proposer_with_unknown_parent_is_orphaned_and_requested():
    bench = Bench()
    # build a 2-level chain elsewhere
    other = Bench(seed=11)
    p1 = other.mine("proposer", miner_id=2)
    p2 = other.mine("proposer", miner_id=2)
    # buffered; the receiving node requests the parent (Node.on_block)
    assert bench.state.receive_block(p2) == ["orphaned"]
    assert bench.state.prp_parent_level == 0
    changes = bench.state.receive_block(p1)
    assert "prp_parent:2" in " ".join(changes)
    assert bench.state.prp_parent == p2.digest


def test_duplicate_block_is_noop():
    bench = Bench()
    block = bench.mine("voter", chain_index=0)
    assert bench.state.receive_block(block) == ["duplicate"]


def test_superblock_votes_only_unvoted_levels():
    """Scripted 3-block replay: after voting level 1 in an ancestor, a new
    superblock votes only levels >= 2."""
    bench = Bench()
    ctx0 = bench.context()
    assert all(not v for v in ctx0.votes)  # fresh genesis: nothing to vote
    assert ctx0.txs == [] and ctx0.unref_prp_refs == ()

    p1 = bench.mine("proposer")
    ctx1 = bench.context()
    assert ctx1.votes[2] == [(1, p1.digest)]  # single unvoted level

    bench.mine("voter", chain_index=2)
    p2 = bench.mine("proposer")
    ctx2 = bench.context()
    assert ctx2.votes[2] == [(2, p2.digest)]  # level 1 already voted
    assert ctx2.votes[0] == [(1, p1.digest), (2, p2.digest)]


def test_pool_exactness_oracle():
    """unref_tx_pool == received tx blocks minus referenced ones,
    recomputed from scratch."""
    bench = Bench(seed=21)
    rng = np.random.default_rng(3)
    tx_blocks, prp_blocks = [], []
    for _ in range(40):
        kind = rng.choice(["transaction", "proposer", "voter"], p=[0.5, 0.2, 0.3])
        block = bench.mine(str(kind), chain_index=int(rng.integers(bench.params.m)))
        if kind == "transaction":
            tx_blocks.append(block)
        elif kind == "proposer":
            prp_blocks.append(block)
    referenced = {ref for b in prp_blocks for ref in b.content.tx_refs}
    expected = {b.digest for b in tx_blocks} - referenced
    assert set(bench.state.unref_tx_pool) == expected
    # same for proposer pool: referenced or ancestor blocks are out
    referenced_prp = {ref for b in prp_blocks for ref in b.content.prp_refs}
    parents = {b.parent_ref for b in prp_blocks}
    expected_prp = {b.digest for b in prp_blocks} - referenced_prp - parents
    assert set(bench.state.unref_prp_pool) == expected_prp


def test_one_vote_per_level_along_main_chain():
    """Walk-and-count over a random execution."""
    bench = Bench(seed=33)
    rng = np.random.default_rng(4)
    for _ in range(60):
        kind = rng.choice(["proposer", "voter"], p=[0.25, 0.75])
        bench.mine(str(kind), chain_index=int(rng.integers(bench.params.m)))
    for i in range(bench.params.m):
        seen_levels = []
        tree = bench.state.voter_trees[i]
        for block in tree.walk_from_genesis(tree.tip):
            for level, _ in block.content.votes:
                seen_levels.append(level)
        assert len(seen_levels) == len(set(seen_levels))
        # and ancestors' votes are never repeated by descendants: walking is
        # enough since the list above spans the whole chain


def test_shuffled_delivery_matches_in_order_state():
    """Deliver a tie-free history in random order; the orphan buffer must
    drain to the same trees, tips and votes as in-order delivery."""
    source = Bench(m=3, seed=55)
    rng = np.random.default_rng(8)
    history = []
    coins = list(genesis_set(30).values())
    for i, coin in enumerate(coins):
        source.state.receive_transaction(spend(coin, KEYS[(i + 1) % 8]), 0.0, SCHEME)
    for _ in range(50):
        kind = rng.choice(["transaction", "proposer", "voter"], p=[0.3, 0.2, 0.5])
        history.append(source.mine(str(kind), chain_index=int(rng.integers(3))))

    in_order = ChainState(3)
    for block in history:
        in_order.receive_block(block)
    for trial in range(5):
        shuffled = ChainState(3)
        order = rng.permutation(len(history))
        for idx in order:
            shuffled.receive_block(history[idx])
        assert not shuffled.orphans
        assert shuffled.blocks.keys() == in_order.blocks.keys()
        assert shuffled.prp_levels == in_order.prp_levels
        assert shuffled.prp_by_level == in_order.prp_by_level
        assert (shuffled.prp_parent, shuffled.prp_parent_level) == (
            in_order.prp_parent, in_order.prp_parent_level
        )
        assert [(t.tip, t.tip_chainlen) for t in shuffled.voter_trees] == [
            (t.tip, t.tip_chainlen) for t in in_order.voter_trees
        ]
        # pools agree as sets; their order is arrival order by design
        assert set(shuffled.unref_tx_pool) == set(in_order.unref_tx_pool)
        assert set(shuffled.unref_prp_pool) == set(in_order.unref_prp_pool)
        for i in range(3):
            assert shuffled.voter_trees[i].main_votes == in_order.voter_trees[i].main_votes


def test_mined_blocks_validate_over_random_pools():
    bench = Bench(seed=77)
    rng = np.random.default_rng(9)
    coins = list(genesis_set(200).values())
    next_coin = 0
    for _ in range(200):
        if rng.random() < 0.4 and next_coin < len(coins):
            bench.state.receive_transaction(
                spend(coins[next_coin], KEYS[int(rng.integers(8))]), bench.now, SCHEME
            )
            next_coin += 1
        kind = rng.choice(["transaction", "proposer", "voter"], p=[0.4, 0.2, 0.4])
        block = bench.mine(str(kind), chain_index=int(rng.integers(bench.params.m)))
        validate_block(block, bench.params, SCHEME)  # every mined block validates


def test_spam_release_time_gates_inclusion():
    bench = Bench()
    coin = next(iter(genesis_set(1).values()))
    tx = spend(coin, KEYS[1])
    bench.state.receive_transaction(tx, 0.0, SCHEME, release_time=10.0)
    assert bench.state.eligible_transactions(5.0, 10) == []
    assert bench.state.eligible_transactions(10.0, 10) == [tx]


def test_conflicting_mempool_tx_dropped_on_tx_block():
    bench = Bench()
    coin = next(iter(genesis_set(1).values()))
    held = spend(coin, KEYS[2])
    bench.state.receive_transaction(held, 0.0, SCHEME, release_time=100.0)

    # another node mined a conflicting spend of the same coin
    other = Bench(seed=91)
    rival = spend(coin, KEYS[3])
    other.state.receive_transaction(rival, 0.0, SCHEME)
    block = other.mine("transaction", miner_id=4)

    bench.state.receive_block(block)
    assert held.digest not in bench.state.mempool  # dropped before release


def test_deep_voter_chain_delivered_tip_first():
    """A 5000-block voter chain arriving tip first drains the orphan
    buffer in one pass, without recursing once per block."""
    source = Bench(m=1, seed=5)
    chain = [source.mine("voter") for _ in range(5000)]
    state = ChainState(1)
    for block in reversed(chain):
        state.receive_block(block)
    assert not state.orphans and not state.orphan_digests
    tree = state.voter_trees[0]
    assert tree.tip == chain[-1].digest and tree.tip_chainlen == 5000


def test_block_lookup_agrees_with_trees_and_pools():
    bench = Bench(m=3)
    mined = [bench.mine("transaction"), bench.mine("proposer")]
    mined += [bench.mine("voter", chain_index=i) for i in (0, 2, 2, 1)]
    mined += [bench.mine("proposer"), bench.mine("transaction")]
    # orphans: a voter block and a proposer block whose parents never arrive
    other = Bench(m=3, seed=9)
    other.mine("voter", chain_index=1)
    orphans = [other.mine("voter", chain_index=1), None]
    other.mine("proposer")
    orphans[1] = other.mine("proposer")
    for block in orphans:
        assert "orphaned" in bench.state.receive_block(block)

    state = bench.state
    state.check_invariants()  # each stored block has exactly one height record of its kind
    assert list(state.blocks) == [block.digest for block in mined]
    for block in mined:
        assert state.has_block(block.digest)
        assert state.get_block(block.digest) is block
    genesis = [state.proposer_genesis] + [tree.genesis for tree in state.voter_trees]
    for digest in genesis:
        assert state.has_block(digest) and state.get_block(digest) is None
    for block in orphans:
        assert not state.has_block(block.digest) and state.get_block(block.digest) is None
    assert not state.has_block(b"\x77" * 32) and state.get_block(b"\x77" * 32) is None


def relevel(block, level):
    """A copy of ``block`` under the same digest with another level."""
    twin = copy.copy(block)
    twin.level = level
    assert twin.digest == block.digest
    return twin


def test_claimed_level_is_ignored_on_a_forged_proposer():
    params = make_params(m=2)
    state = ChainState(2)
    forged = forge_proposer(params, state.proposer_genesis, level=3)
    validate_block(forged, params, SCHEME)  # the claimed level is not checked
    assert forged.level == 3
    assert state.receive_block(forged) == ["proposer_stored", "new_proposer_level:1", "prp_parent:1"]
    assert state.prp_levels[forged.digest] == 1
    assert state.prp_by_level == {1: [forged.digest]}
    child = relevel(forge_proposer(params, forged.digest, level=4), 0)
    validate_block(child, params, SCHEME)
    assert state.receive_block(child) == ["proposer_stored", "new_proposer_level:2", "prp_parent:2"]
    assert state.prp_parent == child.digest and state.prp_parent_level == 2
    state.check_invariants()


@pytest.mark.parametrize("tampered_first", [False, True], ids=["honest_first", "tampered_first"])
@pytest.mark.parametrize("parent_first", [True, False], ids=["stored", "orphaned"])
def test_level_tampered_copy_is_a_duplicate(parent_first, tampered_first):
    params = make_params(m=2)
    state = ChainState(2)
    parent = forge_proposer(params, state.proposer_genesis, level=1)
    honest = forge_proposer(params, parent.digest, level=2)
    tampered = relevel(honest, 7)
    if parent_first:
        state.receive_block(parent)
    first, second = (tampered, honest) if tampered_first else (honest, tampered)
    assert state.receive_block(first)[0] == ("proposer_stored" if parent_first else "orphaned")
    assert state.receive_block(second) == ["duplicate"]
    if not parent_first:
        assert state.receive_block(parent).count("proposer_stored") == 2
    for copy in (honest, tampered, relevel(honest, 1)):
        assert state.receive_block(copy) == ["duplicate"]
    assert state.get_block(honest.digest) is first
    assert state.prp_levels[honest.digest] == 2
    assert state.prp_by_level == {1: [parent.digest], 2: [honest.digest]}
    assert state.prp_parent == honest.digest and state.prp_parent_level == 2
    assert not state.orphans and not state.orphan_digests
    state.check_invariants()


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["proposer", "voter"]), min_size=4, max_size=16),
    data=st.data(),
)
def test_shuffled_delivery_with_tampered_levels_matches_in_order_state(kinds, data):
    """A one-miner proposer tree with voter blocks, delivered in random
    order with level-tampered copies of proposer blocks mixed in, ends in
    the honest in-order state."""
    source = Bench(m=3, seed=21)
    history = [source.mine(kind, chain_index=i % 3) for i, kind in enumerate(kinds)]
    proposers = [b for b in history if b.block_type.kind == "proposer"]
    picks = data.draw(st.lists(st.sampled_from(proposers), max_size=6)) if proposers else []
    tampered = [
        relevel(block, data.draw(st.integers(0, 40).filter(lambda lvl, b=block: lvl != b.level)))
        for block in picks
    ]
    in_order = ChainState(3)
    for block in history:
        in_order.receive_block(block)
    state = ChainState(3)
    for block in data.draw(st.permutations(history + tampered)):
        state.receive_block(block)
        state.check_invariants()
    assert not state.orphans and not state.orphan_digests
    assert state.prp_by_level == in_order.prp_by_level
    assert (state.prp_parent, state.prp_parent_level) == (in_order.prp_parent, in_order.prp_parent_level)
    assert state.vote_lists == in_order.vote_lists


def test_proposer_on_a_parent_of_another_kind_rejected_with_descendants():
    params = make_params(m=2)
    state = ChainState(2)
    on_voter_genesis = forge_proposer(params, state.voter_trees[1].genesis, level=1)
    child = forge_proposer(params, on_voter_genesis.digest, level=2)
    assert "orphaned" in state.receive_block(child)
    assert state.receive_block(on_voter_genesis) == ["rejected:bad_parent", "rejected:bad_parent"]
    assert not state.orphans and not state.orphan_digests
    for block in (on_voter_genesis, child):
        assert state.receive_block(block) == ["duplicate"]
    late = forge_proposer(params, child.digest, level=3)
    assert state.receive_block(late) == ["rejected:bad_parent"]
    assert state.prp_levels == {} and state.prp_parent_level == 0
    # on a transaction block that arrives later: refused once it arrives
    tx_block = forge_tx_block(params, [])
    on_tx_block = forge_proposer(params, tx_block.digest, level=1)
    assert "orphaned" in state.receive_block(on_tx_block)
    assert state.receive_block(tx_block) == ["tx_block", "rejected:bad_parent"]
    assert not state.orphans and not state.orphan_digests


def test_voter_block_on_a_parent_outside_its_chain_rejected():
    params = make_params(m=2)
    state = ChainState(2)
    # parent already stored elsewhere: rejected at once, not buffered
    on_other_genesis = forge_voter(params, 0, state.voter_trees[1].genesis)
    assert state.receive_block(on_other_genesis) == ["rejected:bad_parent"]
    assert state.receive_block(forge_voter(params, 0, on_other_genesis.digest)) == [
        "rejected:bad_parent"
    ]
    # parent delivered later: rejected when it arrives, with its descendants
    other_chain = forge_voter(params, 1, state.voter_trees[1].genesis)
    proposer = forge_proposer(params, state.proposer_genesis, level=1)
    waiting = []
    for parent in (other_chain, proposer):
        below = forge_voter(params, 0, parent.digest)
        below_below = forge_voter(params, 0, below.digest)
        for block in (below_below, below):
            assert "orphaned" in state.receive_block(block)
        waiting += [below, below_below]
    assert state.receive_block(other_chain) == [
        "voter_stored:1", "voter_tip:1", "rejected:bad_parent", "rejected:bad_parent",
    ]
    assert state.receive_block(proposer)[-2:] == ["rejected:bad_parent", "rejected:bad_parent"]
    assert not state.orphans and not state.orphan_digests
    for block in waiting:
        assert state.receive_block(block) == ["duplicate"]
    assert state.voter_trees[0].chainlens == {} and state.voter_blocks_stored == 1


# --- kept honest vote lists ------------------------------------------------------

_OP = st.tuples(
    st.integers(0, 1),  # which of two miners
    st.sampled_from(["proposer", "proposer", "voter", "voter", "voter", "transaction"]),
    st.integers(0, 2),  # voter chain
    st.integers(0, 5),  # 0: both miners see every block so far first
)


def _two_miner_history(ops, vote_rule, mempools):
    """Blocks of two miners that sync only now and then, so proposer
    levels tie and voter chains fork and reorg."""
    miners = [Bench(m=3, vote_rule=vote_rule, seed=seed) for seed in (1, 2)]
    for miner, txs in zip(miners, mempools):
        for tx in txs:
            miner.state.receive_transaction(tx, 0.0, SCHEME)
    history = []
    for who, kind, chain, sync in ops:
        if sync == 0:
            for miner in miners:
                for block in history:
                    miner.state.receive_block(block)
        history.append(miners[who].mine(kind, chain_index=chain, miner_id=who))
    return history


# no shrink phase: shrinking these histories ran into hypothesis's 5-minute
# cap, and the failure message already names the index that drifted
@settings(max_examples=120, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    vote_rule=st.sampled_from([FIRST_SEEN, MOST_VOTED]),
    ops=st.lists(_OP, min_size=10, max_size=40),
    data=st.data(),
)
def test_kept_indexes_match_a_rebuild_after_every_block(vote_rule, ops, data):
    """Random delivery orders of a forked two-miner history: after every
    block the tallies, pending levels, mempool index and the kept vote
    lists equal a from-scratch rebuild."""
    coins = list(genesis_set(6).values())
    first = [spend(c, KEYS[1]) for c in coins]
    second = [spend(c, KEYS[2]) for c in coins[:3]]  # each conflicts with one in `first`
    history = _two_miner_history(ops, vote_rule, (first, second + first))
    state = ChainState(3, vote_rule=vote_rule)
    for tx in first:
        state.receive_transaction(tx, 0.0, SCHEME)
    for idx in data.draw(st.permutations(range(len(history)))):
        state.receive_block(history[idx])
        state.check_invariants()


@pytest.mark.parametrize("vote_first", [False, True])
def test_vote_list_follows_a_most_voted_flip(vote_first):
    """Two proposer blocks at level 1 and one vote for the later one: the
    choice flips when the tally changes, or when the voted block arrives
    after its vote, and every chain still owing that level follows."""
    a = Bench(m=3, vote_rule=MOST_VOTED, seed=1)
    b = Bench(m=3, vote_rule=MOST_VOTED, seed=2)
    first = a.mine("proposer")
    second = b.mine("proposer")
    vote = b.mine("voter", chain_index=0)  # votes for `second`
    for block in [vote, second] if vote_first else [second, vote]:
        assert a.context().votes[1] == [(1, first.digest)]  # tie: arrival order
        a.state.receive_block(block)
    assert a.context().votes == [[], [(1, second.digest)], [(1, second.digest)]]
    a.state.check_invariants()


def test_vote_list_follows_a_reorg_that_unvotes_a_level():
    main = Bench(m=2, seed=1)
    fork = Bench(m=2, seed=2)
    p1 = main.mine("proposer")
    fork.state.receive_block(p1)
    p2 = main.mine("proposer")  # the fork's miner never sees level 2
    main.mine("voter", chain_index=0)  # votes levels 1 and 2
    assert main.context().votes[0] == []
    for _ in range(2):  # a longer branch that votes level 1 only
        main.state.receive_block(fork.mine("voter", chain_index=0))
    assert main.context().votes[0] == [(2, p2.digest)]
    main.state.check_invariants()


def test_unchanged_vote_lists_keep_their_identity():
    bench = Bench(m=3)
    bench.mine("proposer")
    before = bench.context().votes
    bench.mine("voter", chain_index=1)
    bench.mine("transaction")
    after = bench.context().votes
    assert after[0] is before[0] and after[2] is before[2]
    assert after[1] is not before[1] and after[1] == []
    # a tip move that votes nothing new keeps the chain's list
    tip = bench.state.voter_tips[1]
    bench.mine("voter", chain_index=1)
    assert bench.state.voter_tips[1] != tip
    assert all(a is b for a, b in zip(bench.context().votes, after))


def _drop_tally(state):
    del state.votes_by_level[1]


def _drift_choice(state):
    state.vote_choices[1] = bytes(32)


def _drop_mempool_input(state):
    pooled = [coin for coin, digest in state.spent_coins.items() if digest is not None]
    del state.spent_coins[pooled[0]]


def _forget_mined_coin(state):
    mined = [coin for coin, digest in state.spent_coins.items() if digest is None]
    del state.spent_coins[mined[0]]


def _stale_vote_list(state):
    state.vote_lists[2] = []


def _drift_chainlen(state):
    tree = state.voter_trees[0]
    tree.chainlens[tree.tip] += 1


def _drift_level(state):
    state.prp_levels[state.prp_parent] += 1


def _proposer_in_a_voter_tree(state):
    state.voter_trees[1].chainlens[state.prp_parent] = 1


@pytest.mark.parametrize(
    "drift, index",
    [
        (_drop_tally, "votes_by_level"),
        (_drift_choice, "vote_choices"),
        (_drop_mempool_input, "spent_coins"),
        (_forget_mined_coin, "spent_coins"),
        (_stale_vote_list, "honest vote list"),
        (_drift_chainlen, "chain lengths of chain 0"),
        (_drift_level, "prp_levels"),
        (_proposer_in_a_voter_tree, "chain lengths of chain 1"),
    ],
)
def test_check_invariants_reports_a_drifted_index(drift, index):
    bench = Bench(m=3)
    mined, pooled = genesis_set(2).values()
    bench.state.receive_transaction(spend(mined, KEYS[1]), 0.0, SCHEME)
    bench.mine("transaction")
    bench.state.receive_transaction(spend(pooled, KEYS[1]), 0.0, SCHEME)
    bench.mine("proposer")
    bench.mine("voter", chain_index=0)
    bench.state.check_invariants()
    drift(bench.state)
    with pytest.raises(AssertionError, match=index):
        bench.state.check_invariants()
