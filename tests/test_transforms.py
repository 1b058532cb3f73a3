import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greenband import (
    TransformProduct,
    check_green_rank,
    expand_transform_product,
    generators_from_transforms,
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
