import numpy as np
import pytest
from scipy import stats

from prismsim.blocks import (
    BadSortitionProof,
    Block,
    BlockType,
    Header,
    ProposerContent,
    SortitionParams,
    TransactionContent,
    VoterContent,
    proposer_type,
    serialize_content,
    sortition,
    transaction_type,
    validate_block,
    voter_type,
)
from prismsim.crypto import get_scheme
from prismsim.ledger import TxInput, TxOutput, signed_transaction
from prismsim.merkle import merkle_prove, merkle_root

SCHEME = get_scheme("mock")


def make_params(m=4, f_v=1.0, f_t=1.0, f_p=1.0):
    return SortitionParams(m=m, rate_tx=f_t, rate_prop=f_p, rate_voter=f_v)


def test_sortition_first_interval_is_voter_zero():
    assert sortition(0.0, make_params()) == voter_type(0)


def test_sortition_interval_arithmetic():
    # m=2, f_v=f_t=f_p=1 => f=4: voters [0,0.5), tx [0.5,0.75), prop [0.75,1)
    params = make_params(m=2)
    assert sortition(0.6, params) == transaction_type()
    assert sortition(0.2, params) == voter_type(0)
    assert sortition(0.3, params) == voter_type(1)
    assert sortition(0.74, params) == transaction_type()
    assert sortition(0.75, params) == proposer_type()
    assert sortition(0.999, params) == proposer_type()


def test_sortition_is_a_partition():
    params = make_params(m=3, f_v=0.3, f_t=2.0, f_p=0.5)
    rng = np.random.default_rng(7)
    for u in rng.random(1000):
        bt = sortition(float(u), params)
        assert bt.kind in ("transaction", "proposer", "voter")


def test_sortition_frequencies_chi_square():
    m, f_v, f_t, f_p = 5, 0.4, 1.5, 0.3
    params = make_params(m=m, f_v=f_v, f_t=f_t, f_p=f_p)
    f = params.total_rate
    rng = np.random.default_rng(123)
    n = 10**6
    u = rng.random(n)
    # vectorized replica of the interval layout for counting
    voter_width = m * f_v / f
    tx_width = f_t / f
    counts = np.zeros(m + 2, dtype=np.int64)
    voter_mask = u < voter_width
    idx = np.minimum((u[voter_mask] * f / f_v).astype(np.int64), m - 1)
    for i in range(m):
        counts[i] = int(np.sum(idx == i))
    counts[m] = int(np.sum((u >= voter_width) & (u < voter_width + tx_width)))
    counts[m + 1] = n - counts[: m + 1].sum()
    # spot-check the scalar function agrees with the vectorized counting
    for i in range(2000):
        bt = sortition(float(u[i]), params)
        counts_index = bt.leaf_index(m)
        assert 0 <= counts_index < m + 2
    expected = np.array([f_v] * m + [f_t, f_p]) / f * n
    chi2 = stats.chisquare(counts, expected)
    assert chi2.pvalue > 0.001


def test_sortition_rejects_out_of_range_draw():
    with pytest.raises(ValueError):
        sortition(1.0, make_params())
    with pytest.raises(ValueError):
        sortition(-0.1, make_params())


def make_tx(scheme, seed=b"k", value=7):
    kp = scheme.keypair(seed)
    return signed_transaction(
        scheme,
        [TxInput(bytes(32), 0)],
        [TxOutput(value, kp.public)],
        [kp],
    )


def mine_block(block_type, params, content, parent_leaf=b"\x11" * 32, miner_id=3, level=0):
    """Hand-rolled miner: commit m+2 slots, prune to the winning one."""
    m = params.m
    parents = [b"\x22" * 32 for _ in range(m + 2)]
    contents = [serialize_content(VoterContent(())) for _ in range(m + 2)]
    index = block_type.leaf_index(m)
    parents[index] = parent_leaf
    contents[index] = serialize_content(content)
    header = Header(merkle_root(parents), merkle_root(contents), nonce=42)
    return Block(
        header,
        block_type,
        parents[index],
        content,
        merkle_prove(parents, index),
        merkle_prove(contents, index),
        miner_id,
        level,
    )


def test_honestly_mined_blocks_validate():
    params = make_params(m=4)
    tx = make_tx(SCHEME)
    cases = [
        (transaction_type(), TransactionContent((tx,)), 0),
        (proposer_type(), ProposerContent((b"\x33" * 32,), (b"\x44" * 32,)), 2),
        (voter_type(2), VoterContent(((1, b"\x55" * 32),)), 0),
    ]
    for bt, content, level in cases:
        block = mine_block(bt, params, content, level=level)
        validate_block(block, params, SCHEME)


def test_content_swap_after_mining_is_rejected():
    params = make_params(m=4)
    block = mine_block(voter_type(1), params, VoterContent(((1, b"\x55" * 32),)))
    swapped = Block(
        block.header,
        block.block_type,
        block.parent_leaf,
        VoterContent(((1, b"\x66" * 32),)),
        block.parent_proof,
        block.content_proof,
        block.miner_id,
    )
    with pytest.raises(BadSortitionProof):
        validate_block(swapped, params, SCHEME)


def test_wrong_chain_index_claim_is_rejected():
    # block mined at voter index 1 but claiming chain 3
    params = make_params(m=4)
    block = mine_block(voter_type(1), params, VoterContent(((1, b"\x55" * 32),)))
    lying = Block(
        block.header,
        voter_type(3),
        block.parent_leaf,
        block.content,
        block.parent_proof,
        block.content_proof,
        block.miner_id,
    )
    with pytest.raises(BadSortitionProof):
        validate_block(lying, params, SCHEME)


def test_transaction_block_exposes_no_parent():
    params = make_params(m=4)
    block = mine_block(transaction_type(), params, TransactionContent((make_tx(SCHEME),)))
    assert block.parent_ref is None
    voter = mine_block(voter_type(0), params, VoterContent(()), parent_leaf=b"\x09" * 32)
    assert voter.parent_ref == b"\x09" * 32


def test_voter_votes_must_increase_by_level():
    params = make_params(m=4)
    block = mine_block(
        voter_type(0),
        params,
        VoterContent(((2, b"\x55" * 32), (2, b"\x66" * 32))),
    )
    from prismsim.blocks import MalformedContent

    with pytest.raises(MalformedContent):
        validate_block(block, params, SCHEME)


def test_bad_transaction_signature_detected():
    from prismsim.blocks import BadSignature
    from prismsim.ledger import Transaction

    params = make_params(m=4)
    tx = make_tx(SCHEME)
    forged = Transaction(tx.inputs, tx.outputs, ((tx.signatures[0][0], b"\x00" * 32),))
    block = mine_block(transaction_type(), params, TransactionContent((forged,)))
    with pytest.raises(BadSignature):
        validate_block(block, params, SCHEME)


def test_ed25519_scheme_round_trip():
    scheme = get_scheme("ed25519")
    tx = make_tx(scheme, seed=b"real")
    assert tx.signatures_well_formed(scheme)
    params = make_params(m=2)
    block = mine_block(transaction_type(), params, TransactionContent((tx,)))
    validate_block(block, params, scheme)


def test_voter_index_beyond_m_is_a_validation_error():
    # a voter block committed for chain 5 of 8 does not exist at m = 1
    block = mine_block(voter_type(5), make_params(m=8), VoterContent(()))
    with pytest.raises(BadSortitionProof):
        validate_block(block, make_params(m=1), SCHEME)
