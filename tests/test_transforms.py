import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from greenband import (
    TransformProduct,
    check_green_rank,
    elementary_factors_from_entrywise,
    expand_transform_product,
    generators_from_transforms,
    lu_factor_lower_band,
    qr_factor_lower_band,
    random_band,
    reconstruct_structured,
    transforms_from_generators,
)
from conftest import random_generators, random_orthogonal


def random_product(n, r, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    factors = [random_orthogonal(r + 1, rng) for _ in range(n - r)]
    return TransformProduct(n, r, factors, random_orthogonal(r, rng))


def test_expand_identity_factors():
    n, r = 6, 2
    t = TransformProduct(n, r, [np.eye(r + 1)] * (n - r), np.eye(r))
    np.testing.assert_array_equal(expand_transform_product(t), np.eye(n))


def test_expand_small_rotation_product():
    # n=3, r=1: hand-multiplied product of two embedded 2x2 rotations
    def rot(th):
        c, s = np.cos(th), np.sin(th)
        return np.array([[c, -s], [s, c]])

    g1, g2 = rot(0.3), rot(-1.1)
    last = np.array([[0.5]])
    t = TransformProduct(3, 1, [g1, g2], last)
    e1 = np.eye(3)
    e1[0:2, 0:2] = g1
    e2 = np.eye(3)
    e2[1:3, 1:3] = g2
    e3 = np.eye(3)
    e3[2:, 2:] = last
    np.testing.assert_allclose(expand_transform_product(t), e3 @ e2 @ e1, atol=1e-15)


def test_expanded_ustar_triangularizes():
    a = random_band(14, 3, 13, seed=2, diag_shift=3.0)
    fact = qr_factor_lower_band(a)
    ustar = expand_transform_product(fact.inverse_product())
    prod = ustar @ a.to_dense()
    assert np.abs(np.tril(prod, -1)).max() <= 1e-12 * np.linalg.norm(a.to_dense())


def test_partition_of_identity_factors():
    n, r = 7, 2
    t = TransformProduct(n, r, [np.eye(3)] * (n - r), np.eye(2))
    g, d = generators_from_transforms(t)
    for k in range(n - r):
        np.testing.assert_array_equal(g.p[k], [1.0, 0.0])
        assert d[k] == 0.0
        np.testing.assert_array_equal(g.a[k], [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(g.q[k], [0.0, 1.0])
    np.testing.assert_array_equal(g.p_last, np.eye(2))


def test_generators_match_expanded_product():
    t = random_product(8, 2, seed=3)
    g, _ = generators_from_transforms(t)
    dense = expand_transform_product(t)
    np.testing.assert_allclose(
        reconstruct_structured(g), np.tril(dense, 1), rtol=1e-12, atol=1e-13
    )


def test_round_trip_is_bit_exact():
    t = random_product(9, 3, seed=5)
    g, d = generators_from_transforms(t)
    t2 = transforms_from_generators(g, d)
    for f1, f2 in zip(t.factors, t2.factors):
        assert np.array_equal(f1, f2)
    assert np.array_equal(t.last, t2.last)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25)
def test_round_trip_property(seed):
    t = random_product(7, 2, seed)
    g, d = generators_from_transforms(t)
    t2 = transforms_from_generators(g, d)
    assert all(np.array_equal(f1, f2) for f1, f2 in zip(t.factors, t2.factors))
    assert np.array_equal(t.last, t2.last)


def test_assembled_product_reproduces_generator_matrix():
    # zero generators with unit block-diagonal entries give a shift-like image
    n, r = 6, 2
    m = n - r
    from greenband import GreenGenerators

    g = GreenGenerators(n, r, np.zeros((m, r)), np.zeros((m, r)), np.zeros((m, r, r)),
                        np.zeros((r, r)))
    t = transforms_from_generators(g, np.ones(m))
    dense = expand_transform_product(t)
    expected = np.zeros((n, n))
    for k in range(m):
        expected[k, k + r] = 1.0
    np.testing.assert_array_equal(dense, expected)


def test_single_factor_case():
    from greenband import GreenGenerators

    g = GreenGenerators(2, 1, [[3.0]], [[5.0]], [[[7.0]]], [[11.0]])
    t = transforms_from_generators(g, [13.0])
    np.testing.assert_array_equal(t.factors[0], [[3.0, 13.0], [7.0, 5.0]])
    np.testing.assert_array_equal(t.last, [[11.0]])


def test_descending_products_are_green_and_upper_banded():
    for seed in range(3):
        n, r = 10, 2
        t = random_product(n, r, seed=50 + seed)
        dense = expand_transform_product(t)
        assert check_green_rank(dense, r, 1e-10)
        assert np.all(np.triu(dense, r + 1) == 0.0)


def test_factors_are_one_stacked_array():
    # a list of blocks is stacked into one C-contiguous array, read as before
    t = random_product(7, 2, seed=9)
    assert t.factors.shape == (5, 3, 3) and t.factors.flags.c_contiguous
    assert len(t.factors) == 5 and t.factors[4].shape == (3, 3)
    assert all(f.shape == (3, 3) for f in t.factors)
    blocks = [np.array(f) for f in t.factors]
    t2 = TransformProduct(7, 2, blocks, t.last)
    assert np.array_equal(t2.factors, t.factors)


@pytest.mark.parametrize(
    "n, r, factors, last, message",
    [
        (2, 2, [], np.eye(2), "need n > r > 0"),
        (3, 0, [np.eye(1)] * 3, np.eye(0), "need n > r > 0"),
        (4, 1, [np.eye(2)] * 2, [[1.0]], "factors must be"),  # one factor short
        (4, 1, [np.eye(2)] * 4, [[1.0]], "factors must be"),  # one too many
        (4, 1, [np.eye(3)] * 3, [[1.0]], "factors must be"),  # blocks of size r + 2
        (4, 1, [np.eye(2), np.eye(2), np.eye(3)], [[1.0]], None),  # ragged
        (4, 1, [np.eye(2)] * 3, np.eye(2), "trailing block must be"),
        (4, 1, [np.eye(2)] * 3, [1.0], "trailing block must be"),
    ],
    ids=["n-equals-r", "r-zero", "too-few", "too-many", "block-size", "ragged", "last-2x2",
         "last-1d"],
)
def test_constructor_rejects_bad_shapes(n, r, factors, last, message):
    with pytest.raises(ValueError, match=message):
        TransformProduct(n, r, factors, last)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_nonfinite_entries(bad):
    blocks = [np.eye(2), np.eye(2)]
    wrong = np.eye(2)
    wrong[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        TransformProduct(3, 1, [blocks[0], wrong], [[1.0]])
    with pytest.raises(ValueError, match="finite"):
        TransformProduct(3, 1, blocks, [[bad]])


def test_factors_are_read_only_views():
    # generators sliced from a product (p is C-contiguous at n = r + 1, so
    # shared) cannot change under their feet; the caller's arrays can
    blocks, last = np.eye(3)[None].copy(), np.eye(2)
    t = TransformProduct(3, 2, blocks, last)
    g, _ = generators_from_transforms(t)
    for arr in (t.factors, t.last):
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0
    blocks[0, 0, 0] = last[0, 0] = 5.0
    assert t.factors[0, 0, 0] == 5.0 and g.p[0, 0] == 5.0 and t.last[0, 0] == 5.0


@pytest.mark.parametrize("n, r_lower, r_upper", [(40, 3, 3), (40, 4, 39), (70, 40, 30)])
def test_product_builders_match_the_per_block_reference(n, r_lower, r_upper):
    # the stacked builders do each block's arithmetic as the per-block loop
    # does, so the blocks are equal, bit for bit
    a = random_band(n, r_lower, r_upper, seed=31, diag_shift=float(r_lower + r_upper + 2))
    for fact in (qr_factor_lower_band(a), lu_factor_lower_band(a)):
        u, w, r = fact.u, fact.w, fact.r
        t = fact.inverse_product()
        reference = [np.eye(r + 1) - np.outer(u[k], w[k]) for k in range(n - r)]
        assert np.array_equal(t.factors, np.stack(reference))
        g, d = generators_from_transforms(t)
        for k, f in enumerate(reference):
            assert np.array_equal(g.p[k], f[0, :r]) and d[k] == f[0, r]
            assert np.array_equal(g.a[k], f[1:, :r]) and np.array_equal(g.q[k], f[1:, r])
    low, r = fact.l_dense(), r_lower
    corner = np.eye(r + 1)
    corner[:r, :r] = scipy.linalg.solve_triangular(low[:r, :r], np.eye(r), lower=True,
                                                   unit_diagonal=True)
    reference = []
    for k in range(n - r):
        blk = np.eye(r + 1)
        blk[r, :r] = -low[k + r, k : k + r]
        reference.append(blk if k else blk @ corner)
    assert np.array_equal(elementary_factors_from_entrywise(low, r).factors, np.stack(reference))
