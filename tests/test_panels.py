"""The panel-blocked factorizations at their panel boundaries: sizes that end
just before, on and just after a panel edge, planted zero pivots on either
side of the first edge, and a count of the LAPACK/BLAS calls per
factorization (one panel of PANEL columns per call, never one per row)."""

import math

import numpy as np
import pytest
from conftest import instance, inverters
from test_lu import dense_unpivoted_lu

import greenband.lu as lu_module
import greenband.qr as qr_module
from greenband import (
    BandedMatrix,
    SingularMatrixError,
    ZeroPivotError,
    covered_relative_error,
    dense_invert,
    invert_lower_band_lu,
    invert_lower_band_qr,
    lu_factor_lower_band,
    qr_factor_lower_band,
    random_band,
    reconstruct_structured,
)
from greenband.banded import PANEL

SCALES = (1.0, 1e150, 1e-150)
R_LOWERS = (1, 4, PANEL + 3)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("upper", ["zero", "equal", "full"])
@pytest.mark.parametrize("r_lower", R_LOWERS)
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("panels", [1, 3])
def test_inversions_at_panel_edges(panels, offset, r_lower, upper, scale):
    # n = r_l + k b + {-1, 0, 1}: the main columns end one short of, on or
    # one past the k-th panel edge
    n = r_lower + panels * PANEL + offset
    r_upper = {"zero": 0, "equal": r_lower, "full": n - 1}[upper]
    a = instance(n, r_lower, r_upper, seed=n + r_lower, scale=scale)
    ref = dense_invert(a.to_dense())
    for invert in inverters(a):
        err = covered_relative_error(reconstruct_structured(invert(a)), ref, r_lower)
        assert err <= 1e-12, (invert.__name__, err)


@pytest.mark.parametrize("upper", ["zero", "equal", "full"])
@pytest.mark.parametrize("r_lower", R_LOWERS)
@pytest.mark.parametrize("column", [PANEL - 1, PANEL])
def test_zero_pivot_at_panel_edge_is_named(column, r_lower, upper):
    # the last column of panel 1 and the first column of panel 2; zeroing
    # row and column j makes pivot j+1 and R(j+1, j+1) exactly zero (1-based)
    n = r_lower + 3 * PANEL
    r_upper = {"zero": 0, "equal": r_lower, "full": n - 1}[upper]
    dense = instance(n, r_lower, r_upper, seed=column, scale=1.0).to_dense()
    dense[column, :] = 0.0
    dense[:, column] = 0.0
    a = BandedMatrix.from_dense(dense, r_lower, r_upper)
    for invert in inverters(a):
        expected = ZeroPivotError if invert.__name__.endswith("_lu") else SingularMatrixError
        with pytest.raises(expected) as info:
            invert(a)
        assert info.value.pivot_index == column + 1, invert.__name__


def counting(monkeypatch, owner, name, calls):
    """Replace ``owner.name`` by a wrapper that counts its calls (the name
    need not exist: a call to it is then counted if any code makes one)."""
    fn = getattr(owner, name, None)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper, raising=False)


@pytest.mark.parametrize("r_upper", [4, 999])
def test_one_lapack_call_per_panel(monkeypatch, r_upper):
    # a deterministic guard against per-row dispatch: n = 1000, r = 4 takes
    # ceil((n - r) / PANEL) panels, each one window read and one panel call,
    # plus the trailing-block calls on every panel but the last (QR: one per
    # SLAB columns right of the panel); the whole inversions add none, since
    # their bottom r rows are steps of the one backward recursion (no closing
    # QR blocks, no triangular inverse or solve for LU's trailing block)
    n, r = 1000, 4
    panels = math.ceil((n - r) / PANEL)
    qr_width = min(r + r_upper, n - 1)
    slabs = sum(
        math.ceil((min(PANEL + qr_width, n - k0) - PANEL) / qr_module.SLAB)
        for k0 in range(0, (panels - 1) * PANEL, PANEL)
    )
    a = random_band(n, r, r_upper, seed=0, diag_shift=r + 1.0)
    calls = {}
    for name in ("panel", "row_segment", "col_segment"):
        counting(monkeypatch, BandedMatrix, name, calls)
    counting(monkeypatch, qr_module.QrFactorization, "_block", calls)
    for name in ("dgeqrf", "dormqr"):
        counting(monkeypatch, qr_module, name, calls)
    for name in ("dtrsm", "dgemm", "dtrtri"):
        counting(monkeypatch, lu_module, name, calls)

    for run in (qr_factor_lower_band, invert_lower_band_qr):
        calls.clear()
        run(a)
        assert calls == {"panel": panels, "dgeqrf": panels, "dormqr": slabs}, run.__name__
    for run in (lu_factor_lower_band, invert_lower_band_lu):
        calls.clear()
        run(a)
        assert calls == {"panel": panels, "dtrsm": panels - 1, "dgemm": panels - 1}, run.__name__


@pytest.mark.parametrize("upper", ["zero", "equal", "full"])
@pytest.mark.parametrize("offset", [-1, 1])
def test_lu_growth_is_the_largest_row_sum_of_r(offset, upper):
    # growth = max_k ||R(k, k:)||_1 / ||A||_inf, summed panel by panel with
    # the multipliers below each panel's diagonal masked out
    r = 5
    n = r + 2 * PANEL + offset
    a = instance(n, r, {"zero": 0, "equal": r, "full": n - 1}[upper], seed=6, scale=1.0)
    dense = a.to_dense()
    _, up = dense_unpivoted_lu(dense)
    expected = np.abs(up).sum(axis=1).max() / np.abs(dense).sum(axis=1).max()
    assert lu_factor_lower_band(a).growth == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("r_upper", [4, "n-1"])
def test_inversions_make_no_concatenate_call(monkeypatch, r_upper):
    # the backward recursion updates its tail stack in two buffers instead
    # of building a new one per row
    n, r = 3 * PANEL + 7, 4
    a = random_band(n, r, n - 1 if r_upper == "n-1" else r_upper, seed=5, diag_shift=r + 1.0)
    calls = {}
    counting(monkeypatch, np, "concatenate", calls)
    for invert in (invert_lower_band_qr, invert_lower_band_lu):
        invert(a)
        assert calls == {}, invert.__name__


@pytest.mark.parametrize("factor", [qr_factor_lower_band, lu_factor_lower_band])
def test_factorizations_keep_every_row_of_r(factor):
    n, r = 2 * PANEL + 3, 4
    fact = factor(random_band(n, r, 2, seed=2, diag_shift=r))
    # row k holds R(k, k+1:k+1+width), clipped at the matrix edge; the last is empty
    assert [row.size for row in fact.rows] == [min(fact.width, n - 1 - k) for k in range(n)]


def test_qr_stores_reflections_not_blocks():
    n, r = 3 * PANEL + 7, 5
    fact = qr_factor_lower_band(random_band(n, r, r, seed=1, diag_shift=r))
    assert fact.v.shape == (n, r + 1) and fact.tau.shape == (n,)
    assert np.all(fact.v[:, 0] == 1.0)
    # the closing reflections shrink at the matrix edge
    for k in range(n - r, n):
        assert np.all(fact.v[k, n - k :] == 0.0)
    assert fact.tau[n - 1] == 0.0
    assert [u.shape[0] for u in fact.closing] == list(range(r, 1, -1))
    assert all(u.shape == (r + 1, r + 1) for u in fact.factors)


@pytest.mark.parametrize("offset", [-1, 1])
def test_lu_stores_every_column_of_multipliers(offset):
    # f keeps a row for every column of L, zero past the matrix edge, and
    # l_dense reads the trailing block of L from it
    r = 5
    n = r + PANEL + offset
    a = random_band(n, r, r, seed=3, diag_shift=r)
    fact = lu_factor_lower_band(a)
    assert fact.f.shape == (n, r)
    for k in range(n - r, n):
        assert np.all(fact.f[k, n - 1 - k :] == 0.0)
    low, up = dense_unpivoted_lu(a.to_dense())
    np.testing.assert_allclose(fact.l_dense(), low, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(fact.r_dense(), up, rtol=1e-13, atol=1e-14)
