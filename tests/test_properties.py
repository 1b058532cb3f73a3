"""Property tests of the structured inversions against the dense oracle, over
every kind of (n, r_lower, r_upper) pair, entry scales near overflow and
underflow, and planted zero pivots."""

import pytest
from conftest import instance, inverters
from hypothesis import example, given, strategies as st

from greenband import (
    BandedMatrix,
    SingularMatrixError,
    ZeroPivotError,
    covered_relative_error,
    dense_invert,
    invert_two_sided_lu,
    invert_two_sided_qr,
    reconstruct_structured,
)

SCALES = (1.0, 1e150, 1e-150)
UPPER_KINDS = ("zero", "one", "below", "equal", "plus2", "above", "full")


@st.composite
def shapes(draw):
    """(n, r_lower, r_upper) with r_upper in {0, 1, < r_l, = r_l, r_l + 2,
    > r_l, n - 1}, clipped to the matrix."""
    n = draw(st.integers(min_value=2, max_value=40))
    r_lower = draw(st.integers(min_value=1, max_value=n - 1))
    kind = draw(st.sampled_from(UPPER_KINDS))
    if kind == "below":
        r_upper = draw(st.integers(min_value=0, max_value=r_lower - 1))
    elif kind == "above":
        r_upper = draw(st.integers(min_value=r_lower + 1, max_value=max(r_lower + 1, n - 1)))
    else:
        r_upper = {"zero": 0, "one": 1, "equal": r_lower, "plus2": r_lower + 2, "full": n - 1}[kind]
    return n, r_lower, min(r_upper, n - 1)


@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), scale=st.sampled_from(SCALES))
@example(shape=(40, 4, 32), seed=0, scale=1.0)  # a banded but wider upper part
@example(shape=(2, 1, 0), seed=1, scale=1.0)  # n = r + 1, r = 1, r_upper = 0
@example(shape=(9, 8, 8), seed=2, scale=1e150)
@example(shape=(12, 1, 11), seed=3, scale=1e-150)
def test_inversions_match_dense_oracle(shape, seed, scale):
    n, r_lower, r_upper = shape
    a = instance(n, r_lower, r_upper, seed, scale)
    ref = dense_invert(a.to_dense())
    for invert in inverters(a):
        err = covered_relative_error(reconstruct_structured(invert(a)), ref, r_lower)
        assert err <= 1e-12, (invert.__name__, err)
    if r_upper > r_lower:
        for invert in (invert_two_sided_qr, invert_two_sided_lu):
            with pytest.raises(ValueError):
                invert(a)


@given(
    shape=shapes(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from(SCALES),
    pick=st.integers(0, 39),
)
@example(shape=(2, 1, 1), seed=0, scale=1.0, pick=1)
@example(shape=(40, 4, 32), seed=0, scale=1.0, pick=17)
def test_planted_zero_pivot_is_named(shape, seed, scale, pick):
    # zeroing row and column j leaves the leading j x j block regular, makes
    # pivot j+1 of the elimination exactly zero and column j of A (hence
    # R(j, j)) exactly zero
    n, r_lower, r_upper = shape
    j = pick % n
    dense = instance(n, r_lower, r_upper, seed, scale).to_dense()
    dense[j, :] = 0.0
    dense[:, j] = 0.0
    a = BandedMatrix.from_dense(dense, r_lower, r_upper)
    for invert in inverters(a):
        expected = ZeroPivotError if invert.__name__.endswith("_lu") else SingularMatrixError
        with pytest.raises(expected) as info:
            invert(a)
        assert info.value.pivot_index == j + 1, invert.__name__
