"""``prismsim.rng`` and the numpy-free statistics against numpy itself:
the same entropy gives the same state words and the same draws, and the
pairwise mean and sample standard deviation give the same bits."""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismsim.metrics import mean, sample_std
from prismsim.rng import _KE, Generator, default_rng, generate_state

# the shapes a run seeds from -- (seed, purpose, node), (seed, purpose),
# (seed, 0xA11CE) -- and words of 2**32 and more
ENTROPIES = [
    [0, 1, 0],
    [17, 3, 999],
    [0, 2],
    [43, 2],
    [7, 0xA11CE],
    0,
    2**32,
    [2**40 + 5, 1, 2**64 + 3],
    list(range(9)),
]
# integers' bounds: 64-bit and 32-bit Lemire draws, a whole 32-bit word, one value
HIGHS = [2**62, 2**31, 2**32, 2**32 + 1, 2**63, 20, 3, 1]


class _Recording(Generator):
    """A generator that keeps each 64-bit word it draws."""

    def __init__(self, entropy):
        super().__init__(entropy)
        self.words = []

    def _next64(self):
        word = super()._next64()
        self.words.append(word)
        return word


def _ziggurat_branch(word: int) -> str:
    """Which branch a standard exponential whose first word is ``word`` takes."""
    bits = word >> 3
    step, bits = bits & 0xFF, bits >> 8
    if bits < _KE[step]:
        return "fast"
    return "tail" if step == 0 else "wedge"


@pytest.mark.parametrize("entropy", ENTROPIES, ids=str)
def test_state_words_are_numpys(entropy):
    expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    assert generate_state(entropy) == [int(w) for w in expected]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**96), min_size=1, max_size=10))
def test_state_words_are_numpys_for_any_entropy(entropy):
    expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    assert generate_state(entropy) == [int(w) for w in expected]


@pytest.mark.parametrize("entropy", ENTROPIES, ids=str)
def test_interleaved_draws_are_numpys(entropy):
    ours, theirs = _Recording(entropy), np.random.default_rng(entropy)
    order = random.Random(str(entropy))
    branches = set()
    for _ in range(30_000):
        kind = order.randrange(4)
        if kind == 0:
            scale = order.choice([1.0, 0.05, 3.5])
            first = len(ours.words)
            got, want = ours.exponential(scale), theirs.exponential(scale)
            branches.add(_ziggurat_branch(ours.words[first]))
        elif kind == 1:
            got, want = ours.random(), theirs.random()
        elif kind == 2:
            high = order.choice(HIGHS)
            got, want = ours.integers(high), int(theirs.integers(high))
        else:
            got, want = ours.uniform(0.0, 2.5), theirs.uniform(0.0, 2.5)
        assert type(got) is type(want) and got == want
    assert branches == {"fast", "tail", "wedge"}


def test_default_rng_is_deterministic():
    a, b = default_rng([5, 1, 2]), default_rng([5, 1, 2])
    assert [a.exponential(1.0) for _ in range(100)] == [b.exponential(1.0) for _ in range(100)]


@pytest.mark.parametrize("entropy", [-1, [3, -1], [3, 1, -2**40]], ids=str)
def test_negative_entropy_raises_as_numpy_does(entropy):
    with pytest.raises(ValueError):
        np.random.default_rng(entropy)
    with pytest.raises(ValueError):
        default_rng(entropy)


@pytest.mark.parametrize("high", [0, -3, 2**63 + 1])
def test_integers_out_of_bounds_raise(high):
    with pytest.raises(ValueError):
        default_rng(0).integers(high)


FLOATS = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False)
# sizes on both sides of the 8-accumulator block (8) and of the split (128)
VALUES = st.one_of(
    st.lists(FLOATS, min_size=1, max_size=40),
    st.lists(FLOATS, min_size=100, max_size=700),
    st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=700),
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_pairwise_mean_and_std_are_numpys(values):
    arr = np.asarray(values)
    assert mean(values).hex() == float(arr.mean()).hex()
    if len(values) > 1:
        assert sample_std(values).hex() == float(arr.std(ddof=1)).hex()
