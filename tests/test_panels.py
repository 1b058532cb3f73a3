"""The panel-blocked factorizations and generator stage at their panel
boundaries: sizes that end just before, on and just after a panel edge,
planted zero pivots on either side of the first edge, planted columns that
need no reflection, planted entries that LU's partial pivoting in LAPACK
would swap up, and a count of the LAPACK/BLAS calls per inversion (one
panel of PANEL columns per call, never one per row)."""

import copy
import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dtrsm
from conftest import instance, inverters
from test_generators import backward_recursion
from test_lu import dense_unpivoted_lu

import greenband.banded as banded_module
import greenband.generators as generators_module
import greenband.lu as lu_module
import greenband.qr as qr_module
from greenband import (
    BandedMatrix,
    GreenGenerators,
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
    write_generators,
)
from greenband.banded import (
    PANEL,
    PanelFactorization,
    compact_transform,
    elimination_transform,
    factor_panels,
    reflection_transform,
    panel_edges,
    singularity_tol,
    wide_right_block,
)
from greenband.bench import instability_matrix
from greenband.generators import inverse_generators
from greenband.qr import keeps_t
from greenband.transforms import expand_transform_product

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
    """Replace ``owner.name`` by a wrapper that counts its calls, or the
    reads of a property (the name need not exist: a call to it is then
    counted if any code makes one)."""
    fn = getattr(owner, name, None)
    prop = isinstance(fn, property)
    fn = fn.fget if prop else fn

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, property(wrapper) if prop else wrapper, raising=False)


def plus(counts, name, k):
    """``counts`` with k more calls of ``name`` (none added for k = 0)."""
    return {**counts, name: counts.get(name, 0) + k} if k else counts


def right_blocks(n, r, width):
    """Columns right of the panel in the window of each panel but the last
    (the last one's window ends at its own last column)."""
    m = n - r
    return [min(PANEL + width, n - k0) - PANEL for k0 in range(0, m, PANEL) if k0 + PANEL < m]


@pytest.mark.parametrize("r_upper", [4, 999])
def test_one_lapack_call_per_panel(monkeypatch, r_upper):
    # a deterministic guard against per-row dispatch: n = 1000, r = 4 takes
    # ceil((n - r) / PANEL) = 32 panels, each one window read and one panel
    # call, plus the trailing-block calls.  QR's, on every panel but the
    # last: one explicit transform (compact_transform, below the dgeqrt
    # rule) where the block right of the panel is wider than
    # 2 (PANEL + r) = 72 columns, applied by the panel loop, else one
    # dormqr.  LU's panel loop builds one elimination_transform on every
    # panel, the last one included, and applies it there, with no dtrsm or
    # dgemm of its own.  With r_upper = 999 the first 28 blocks are
    # 1000 - 32 (k + 1) columns wide, the last three 72, 40 and 8 columns.
    # The whole inversions add only the generator stage's one explicit
    # transform per panel that kept none, built by the function that the
    # factorization calls, so each panel's transform is built once: their
    # bottom r rows are steps of the one backward recursion (no closing
    # blocks, no triangular inverse or solve for LU's trailing block), and
    # they read the factorizations' (u, w), never a block of G built from
    # it.  LU factors the two-sided band in one dgbtrf call instead, with no
    # window read and no panel call, and its stage builds every transform
    n, r = 1000, 4
    panels = math.ceil((n - r) / PANEL)
    if r_upper == 4:
        wide = 0
        qr_calls = {"dormqr": 31}
        lu_calls, lu_stage = {"dgbtrf": 1}, panels
    else:
        wide = 28
        assert right_blocks(n, r, n - 1)[-4:] == [104, 72, 40, 8]
        qr_calls = {"dormqr": 3, "compact_transform": wide}
        lu_calls = {"panel": panels, "dgetrf": panels, "elimination_transform": panels}
        lu_stage = 0
    a = random_band(n, r, r_upper, seed=0, diag_shift=r + 1.0)
    calls = {}
    for name in ("panel", "row_segment", "col_segment"):
        counting(monkeypatch, BandedMatrix, name, calls)
    counting(monkeypatch, PanelFactorization, "inverse_product", calls)
    for name in ("dgeqrf", "dormqr", "dgemm", "compact_transform"):
        counting(monkeypatch, qr_module, name, calls)
    for name in ("dgbtrf", "dgetrf", "_eliminate", "dtrsm", "dgemm", "dtrtri", "compact_transform",
                 "elimination_transform"):
        counting(monkeypatch, lu_module, name, calls)

    qr_calls = {"panel": panels, "dgeqrf": panels, **qr_calls}
    for run, stage in ((qr_factor_lower_band, 0), (invert_lower_band_qr, panels - wide)):
        calls.clear()
        run(a)
        assert calls == plus(qr_calls, "compact_transform", stage), run.__name__
    assert qr_factor_lower_band(a).path == "dgeqrf"
    # the diagonal shift leaves dgbtrf and dgetrf nothing to swap: no panel
    # takes the column loop
    for run, stage in ((lu_factor_lower_band, 0), (invert_lower_band_lu, lu_stage)):
        calls.clear()
        run(a)
        assert calls == plus(lu_calls, "elimination_transform", stage), run.__name__
    assert lu_factor_lower_band(a).path == ("dgbtrf" if r_upper == 4 else "panels")


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("method", ["qr", "lu"])
def test_trailing_update_switches_past_twice_the_window_height(monkeypatch, method, extra):
    # r_upper makes the right block of every unclipped window exactly
    # 2 (PANEL + r) columns, on which QR keeps its blocked update, or one
    # more, on which it takes the explicit transform (QR's window is
    # r + r_upper wide, LU's max(r, r_upper)); n = r + 8 PANEL + 1 has five
    # such windows.  LU's panel loop takes its explicit transform on every
    # panel, on both sides of the rule.  An entry three times its pivot in
    # the middle of every panel sends each LU panel through the column
    # loop, whose reference takes the same trailing update, so LU must
    # match it bit for bit on both sides
    r = 4
    block = 2 * (PANEL + r) + extra
    n = r + 8 * PANEL + 1
    r_upper = block - r if method == "qr" else block
    blocks = right_blocks(n, r, block)
    assert blocks.count(block) == 5
    dense = instance(n, r, r_upper, seed=n + extra, scale=1.0).to_dense()
    for k0 in range(0, n - r, PANEL):
        j = (k0 + min(k0 + PANEL, n)) // 2
        dense[j + 1, j] = 3.0 * dense[j, j]
    a = BandedMatrix.from_dense(dense, r, r_upper)
    factor, invert, module = {
        "qr": (qr_factor_lower_band, invert_lower_band_qr, qr_module),
        "lu": (lu_factor_lower_band, invert_lower_band_lu, lu_module),
    }[method]
    transform = "compact_transform" if method == "qr" else "elimination_transform"
    calls = {}
    counting(monkeypatch, module, transform, calls)
    counting(monkeypatch, lu_module, "_eliminate", calls)
    fact = factor(a)
    panels = len(blocks) + 1
    if method == "qr":
        assert calls.get(transform, 0) == (5 if extra else 0)
    else:
        assert calls.get(transform, 0) == panels
        assert all(pair[0] is None and not pair[1].flags.writeable for pair in fact.transforms)
    assert calls.get("_eliminate", 0) == (panels if method == "lu" else 0)
    for top in fact.tops:
        rows, cols = np.indices(top.shape)
        assert np.all(top[cols > rows + fact.width] == 0.0)
    if method == "lu":
        assert same_bits(fact, column_loop_factorization(a))
    err = covered_relative_error(reconstruct_structured(invert(a)), dense_invert(dense), r)
    assert err <= 1e-12


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("r_lower", R_LOWERS)
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_one_sided_inversions_with_wide_right_blocks(monkeypatch, offset, r_lower, scale):
    # n = r_l + 8 b + {-1, 0, 1} with a full upper part: the right blocks of
    # the first panels are wider than 2 (b + r) columns and take the
    # explicit transform, those of the last ones the blocked update.  QR
    # builds it from the panel's T past the dgeqrt rule (r_l = PANEL + 3),
    # else from (u, w); LU from L11^{-1}.  The generator stage builds one,
    # by the same function, for each panel that kept none: one per panel
    n = r_lower + 8 * PANEL + offset
    wide = sum(c > 2 * (PANEL + r_lower) for c in right_blocks(n, r_lower, n - 1))
    assert wide >= 4
    a = instance(n, r_lower, n - 1, seed=n + r_lower, scale=scale)
    ref = dense_invert(a.to_dense())
    calls = {}
    for name in ("compact_transform", "reflection_transform"):
        counting(monkeypatch, qr_module, name, calls)
    counting(monkeypatch, lu_module, "elimination_transform", calls)
    qr_transform = "reflection_transform" if keeps_t(r_lower) else "compact_transform"
    for invert in inverters(a):
        calls.clear()
        err = covered_relative_error(reconstruct_structured(invert(a)), ref, r_lower)
        assert err <= 1e-12, (invert.__name__, err)
        transform = qr_transform if invert.__name__.endswith("_qr") else "elimination_transform"
        assert calls == {transform: len(panel_edges(n, r_lower))}, invert.__name__


WIDE_ROUTES = {
    "qr dgeqrf": (qr_factor_lower_band, 4, "compact_transform"),
    "qr dgeqrt": (qr_factor_lower_band, PANEL + 3, "reflection_transform"),
    "lu dgetrf": (lu_factor_lower_band, 4, "elimination_transform"),
    "lu column loop": (lu_factor_lower_band, 4, "elimination_transform"),
}


def one_sided(route, n, r):
    """A one-sided instance for ``route``: on the column loop's, an entry
    three times its pivot below the diagonal in the middle of every panel,
    which dgetrf's partial pivoting would swap up."""
    dense = instance(n, r, n - 1, seed=n + r, scale=1.0).to_dense()
    if route == "lu column loop":
        for k0, k1 in panel_edges(n, r):
            j = (k0 + k1) // 2
            dense[j + 1, j] = 3.0 * dense[j, j]
    return BandedMatrix.from_dense(dense, r, n - 1)


def rebuilt(fact):
    """``fact`` with no kept transform: its stage builds every panel's."""
    out = copy.copy(fact)
    out.transforms = [None] * len(fact.tops)
    return out


@pytest.mark.parametrize("size", ["r + 8 PANEL + 1", "600"])
@pytest.mark.parametrize("route", list(WIDE_ROUTES))
def test_wide_panels_build_each_transform_once(monkeypatch, route, size):
    # one-sided bands on the four routes of the panel loop (QR's dgeqrf and,
    # at r = PANEL + 3, dgeqrt; LU's dgetrf and its column loop): the
    # factorization builds and keeps, read-only, the (M, F) of each panel
    # whose update is two dgemm calls in the panel loop (QR's panels with a
    # wide right block, every LU panel, the last one's update being empty),
    # and the stage builds only the other panels', so each panel's
    # transform is built once per inversion.  The kept pairs are the ones
    # that the stage would build, entry for entry (LU's masked multipliers
    # may leave a zero negative), and the generators are its bit for bit;
    # they match the dense inverse.  n = 600 makes most panels wide (16 of
    # 19 at r = 4).  LU's elimination_transform makes one more dgemm call
    factor, r, builder = WIDE_ROUTES[route]
    n = r + 8 * PANEL + 1 if size != "600" else 600
    a = one_sided(route, n, r)
    panels = len(panel_edges(n, r))
    wide = sum(c > 2 * (PANEL + r) for c in right_blocks(n, r, n - 1))
    assert wide >= panels // 2
    lu = factor is lu_factor_lower_band
    module = lu_module if lu else qr_module
    calls = {}
    counting(monkeypatch, module, builder, calls)
    counting(monkeypatch, lu_module, "_eliminate", calls)
    counting(monkeypatch, banded_module, "dgemm", calls)
    fact = factor(a)
    keeps = panels if lu else wide
    # the last LU panel has no columns right of it, so no update
    want = plus({builder: keeps, "dgemm": 3 * panels - 2 if lu else 2 * wide}, "_eliminate",
                panels if route == "lu column loop" else 0)
    assert calls == want
    assert fact.path == {"qr dgeqrt": "dgeqrt", "qr dgeqrf": "dgeqrf"}.get(route, "panels")
    kept = [t is not None for t in fact.transforms]
    assert kept == [True] * keeps + [False] * (panels - keeps)
    assert all(top.flags.f_contiguous for top in fact.tops)
    calls.clear()
    g = inverse_generators(fact)
    assert calls == plus({}, builder, panels - keeps)
    for i, (u, w, _, _) in enumerate(panel_bands(fact)[:keeps]):
        for got, built in zip(fact.transforms[i], fact.build_transform(i, u, w)):
            if got is None:
                assert built is None and lu
            else:
                assert not got.flags.writeable and np.array_equal(got, built), i
    ref = inverse_generators(rebuilt(fact))
    for name in ("p", "q", "p_last", "a"):
        assert getattr(g, name).tobytes() == getattr(ref, name).tobytes(), name
    err = covered_relative_error(reconstruct_structured(g), dense_invert(a.to_dense()), r)
    assert err <= 1e-12


@pytest.mark.parametrize("factor", [qr_factor_lower_band, lu_factor_lower_band])
def test_kept_transforms_are_safe_to_share(factor):
    # the kept arrays refuse writes, and two threads that run the stage on
    # one factorization at once get the bytes of a stage run alone, and
    # leave the kept arrays as they were
    n, r = 300, 6
    fact = factor(instance(n, r, n - 1, seed=n, scale=1.0))
    kept = [arr for pair in fact.transforms if pair is not None for arr in pair if arr is not None]
    assert len(kept) >= (5 if factor is lu_factor_lower_band else 10)
    assert not any(arr.flags.writeable for arr in kept)
    with pytest.raises(ValueError):
        kept[0][0, 0] = 0.0
    before = [arr.tobytes() for arr in kept]
    alone = inverse_generators(fact)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            start = threading.Barrier(2)
            outs = [None] * 2

            def run(t, start=start, outs=outs):
                start.wait(timeout=10)
                outs[t] = inverse_generators(fact)

            threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            for g in outs:
                for name in ("p", "q", "p_last", "a"):
                    assert getattr(g, name).tobytes() == getattr(alone, name).tobytes(), name
    finally:
        sys.setswitchinterval(switch)
    assert [arr.tobytes() for arr in kept] == before


def column_loop_factorization(a):
    """x, tops and the multipliers of the LU factorization with every panel
    eliminated one column at a time, the elimination that a panel which
    dgetrf would pivot must reproduce bit for bit (the reference); the
    columns right of each panel take the panel's explicit transform, as
    LU's panel loop applies it."""
    r = a.r_lower

    def reduce(w, k0, b, wide):
        for j in range(b):
            mult = w[j + 1 : j + 1 + r, j]
            mult /= w[j, j]
            w[j + 1 : j + 1 + r, j + 1 : b] -= mult[:, None] * w[j, j + 1 : b]
        return None, elimination_transform(w[:, :b] * banded_module.strictly_lower(b + r, b))

    x, tops, below, _ = factor_panels(a, max(r, a.r_upper), reduce)
    return x, tops, below[:, 1:]


def same_bits(fact, reference):
    x, tops, f = reference
    return (
        fact.x.tobytes() == x.tobytes()
        and fact.f.tobytes() == f.tobytes()
        and [t.tobytes() for t in fact.tops] == [t.tobytes() for t in tops]
    )


@pytest.mark.parametrize("planted", ["middle", "every"])
@pytest.mark.parametrize("upper", ["zero", "equal", "full"])
@pytest.mark.parametrize("r", [4, PANEL + 8])
@pytest.mark.parametrize("offset", [-1, 1])
def test_lu_panels_that_dgetrf_would_pivot_take_the_column_loop(
    monkeypatch, offset, r, upper, planted
):
    # an entry three times its pivot below the diagonal, in the middle of
    # the second panel or of every panel, makes dgetrf's partial pivoting
    # swap rows there; the instance stays strongly regular, so exactly those
    # panels are restored and eliminated one column at a time.  Every
    # panel's update, the two-sided bands' narrow ones too, is its explicit
    # transform: the factorization solves nothing and keeps each panel's
    # (None, F), read-only, so the stage builds none
    n = r + 3 * PANEL + offset
    r_upper = {"zero": 0, "equal": r, "full": n - 1}[upper]
    m = n - r
    panels = [(k0, k0 + PANEL if k0 + PANEL < m else n) for k0 in range(0, m, PANEL)]
    dense = instance(n, r, r_upper, seed=n + r, scale=1.0).to_dense()
    planted_in = panels[1:2] if planted == "middle" else panels
    for j in ((k0 + k1) // 2 for k0, k1 in planted_in):
        dense[j + 1, j] = 3.0 * dense[j, j]
    a = BandedMatrix.from_dense(dense, r, r_upper)
    calls = {}
    for name in ("dgbtrf", "dgetrf", "_eliminate", "dtrsm"):
        counting(monkeypatch, lu_module, name, calls)
    counting(monkeypatch, banded_module, "dtrsm", calls)
    counting(monkeypatch, lu_module.LuFactorization, "build_transform", calls)
    fact = lu_factor_lower_band(a)
    # a band within dgbtrf's rule tries it first, sees the swap and falls back
    tried = {} if wide_right_block(max(r, r_upper), PANEL + r) else {"dgbtrf": 1}
    assert calls == {**tried, "dgetrf": len(panels), "_eliminate": len(planted_in)}
    assert fact.path == "panels"
    assert len(fact.transforms) == len(panels)
    assert all(pair[0] is None and not pair[1].flags.writeable for pair in fact.transforms)
    calls.clear()
    g = inverse_generators(fact)
    assert calls == {}
    low, up = dense_unpivoted_lu(dense)
    np.testing.assert_allclose(fact.l_dense(), low, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(fact.r_dense(), up, rtol=1e-13, atol=1e-13)
    if planted == "every":
        x, tops, f = column_loop_factorization(a)
        assert same_bits(fact, (x, tops, f))
        u = np.hstack((np.zeros((n, 1)), f))
        want = inverse_generators(lu_module.LuFactorization(n, r, u, x, tops, fact.width, a.norm_inf()))
        got = invert_lower_band_lu(a)
        for name in ("p", "q", "p_last", "a"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    ref = dense_invert(dense)
    err = covered_relative_error(reconstruct_structured(g), ref, r)
    assert err <= 1e-12


def test_instability_witness_takes_the_column_loop(monkeypatch):
    # the witness's leading 3 x 3 block has entries below its first pivot
    # that partial pivoting would swap up, so its one panel is the column loop's
    # (n = 10 with a full upper part is within dgbtrf's rule, and dgbtrf's
    # partial pivoting swaps there too)
    calls = {}
    for name in ("dgbtrf", "_eliminate"):
        counting(monkeypatch, lu_module, name, calls)
    for c in range(9):
        calls.clear()
        a = instability_matrix(10.0**-c)
        fact = lu_factor_lower_band(a)
        assert calls == {"dgbtrf": 1, "_eliminate": 1} and fact.path == "panels"
        assert same_bits(fact, column_loop_factorization(a))


@pytest.mark.parametrize("upper", ["zero", "equal", "full"])
@pytest.mark.parametrize("r_lower", R_LOWERS)
@pytest.mark.parametrize("column", [PANEL - 1, PANEL])
@pytest.mark.parametrize("plant", ["row and column", "row up to the diagonal"])
def test_lu_zero_pivot_is_named_on_both_branches(monkeypatch, plant, column, r_lower, upper):
    # both plants make pivot j+1 exactly zero (1-based).  Zeroing row and
    # column j leaves nothing to swap up, so dgetrf's own result names it;
    # zeroing row j up to its diagonal leaves a nonzero entry below the
    # pivot that dgetrf would swap up, so the column loop names it, without
    # dividing by it (pytest.ini turns a RuntimeWarning into an error)
    n = r_lower + 3 * PANEL
    r_upper = {"zero": 0, "equal": r_lower, "full": n - 1}[upper]
    dense = instance(n, r_lower, r_upper, seed=column, scale=1.0).to_dense()
    if plant == "row and column":
        dense[column, :] = dense[:, column] = 0.0
    else:
        dense[column, : column + 1] = 0.0
    a = BandedMatrix.from_dense(dense, r_lower, r_upper)
    calls = {}
    counting(monkeypatch, lu_module, "_eliminate", calls)
    with pytest.raises(ZeroPivotError) as info:
        lu_factor_lower_band(a)
    assert info.value.pivot_index == column + 1
    assert calls == ({} if plant == "row and column" else {"_eliminate": 1})


@pytest.mark.parametrize(
    "offset, upper, last",
    [
        pytest.param(offset, upper, last, id=f"{offset}-{upper}" + ("-last panel" if last else ""))
        for last in (False, True)
        for offset in (-1, 1)
        for upper in ("zero", "equal", "full", "equal, swapped", "full past the rule")
    ],
)
def test_lu_growth_is_the_largest_row_sum_of_r(offset, upper, last):
    # growth = max_k ||R(k, k:)||_1 / ||A||_inf: on either branch summed
    # over R's panels with the multipliers below each panel's diagonal
    # masked out, when it is first read.  The loop runs
    # where dgbtrf would swap (an entry three times its pivot below it) and
    # on a full upper part past dgbtrf's rule (n - 1 > 2 (PANEL + r)).
    # Scaling the rows of the last panel (PANEL + r - 1 or PANEL + r + 1
    # rows) by 8 scales those rows of R, so its largest row sum sits there
    r = 5
    n = r + (3 if upper == "full past the rule" else 2) * PANEL + offset
    r_upper = {"zero": 0, "equal": r, "equal, swapped": r}.get(upper, n - 1)
    a = instance(n, r, r_upper, seed=6, scale=1.0)
    dense = a.to_dense()
    if upper == "equal, swapped":
        dense[PANEL // 2 + 1, PANEL // 2] = 3.0 * dense[PANEL // 2, PANEL // 2]
    if last:
        dense[-(PANEL + r + offset) :] *= 8.0
    a = BandedMatrix.from_dense(dense, r, r_upper)
    _, up = dense_unpivoted_lu(dense)
    sums = np.abs(up).sum(axis=1)
    if last:
        assert sums.argmax() >= n - (PANEL + r + offset)
    expected = sums.max() / np.abs(dense).sum(axis=1).max()
    fact = lu_factor_lower_band(a)
    # the zero upper band's diagonal shift is only 1 + r, so the rows scaled
    # by 8 hold entries left of the edge larger than their pivot: a swap
    loop = upper in ("equal, swapped", "full past the rule") or (last and upper == "zero")
    assert fact.path == ("panels" if loop else "dgbtrf")
    assert fact.growth == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("route", ["dgbtrf", "dgetrf", "column loop"])
def test_no_inversion_computes_the_growth(monkeypatch, route):
    # the growth is computed on its first read, so the stage, which reads
    # every panel of R, leaves it uncomputed on each route: dgbtrf's, the
    # panel loop past dgbtrf's rule, and the column loop after a swap
    r = 5
    n = r + 3 * PANEL + 1
    r_upper = n - 1 if route == "dgetrf" else r
    dense = instance(n, r, r_upper, seed=n, scale=1.0).to_dense()
    if route == "column loop":
        dense[PANEL // 2 + 1, PANEL // 2] = 3.0 * dense[PANEL // 2, PANEL // 2]
    a = BandedMatrix.from_dense(dense, r, r_upper)
    calls = {}
    counting(monkeypatch, lu_module, "_eliminate", calls)
    fact = lu_factor_lower_band(a)
    assert fact.path == ("dgbtrf" if route == "dgbtrf" else "panels")
    assert calls == ({"_eliminate": 1} if route == "column loop" else {})
    inverse_generators(fact)
    assert "growth" not in vars(fact)
    _, up = dense_unpivoted_lu(dense)
    expected = np.abs(up).sum(axis=1).max() / np.abs(dense).sum(axis=1).max()
    assert fact.growth == pytest.approx(expected, rel=1e-13)
    assert vars(fact)["growth"] == fact.growth


def loop_factorization(a):
    """The panel loop on ``a`` whatever its bandwidths, the factorization
    that every band took before dgbtrf's branch (the reference)."""
    norm = a.norm_inf()
    return lu_module._factor_panels(a, max(a.r_lower, a.r_upper), singularity_tol(a.n, norm), norm)


@pytest.mark.parametrize(
    "r, r_upper, extra",
    [
        pytest.param(4, 0, 3 * PANEL + 1, id="r_upper=0"),
        pytest.param(6, 2, 2 * PANEL - 1, id="r_upper<r_lower"),
        pytest.param(5, 5, 3 * PANEL + 1, id="r_upper=r_lower"),
        pytest.param(4, 2 * (PANEL + 4), 3 * PANEL + 1, id="r_upper>r_lower, the rule's edge"),
        pytest.param(PANEL + 3, PANEL + 3, PANEL - 1, id="r_lower>PANEL"),
        pytest.param(5, 5, 1, id="n=r+1"),
        pytest.param(1, 0, 1, id="n=2"),
    ],
)
def test_dgbtrf_branch_agrees_with_the_panel_loop(monkeypatch, r, r_upper, extra):
    # within the rule max(r_lower, r_upper) <= 2 (PANEL + r_lower), a band
    # that dgbtrf's partial pivoting leaves unswapped is factored by that one
    # call: R and L are the unpivoted ones, the panels of R have the loop's
    # shapes and are zero past each row's reach, the growth is R's largest
    # row sum, and the generators agree with the loop's (p and p_last to
    # rounding, q exactly) and with the dense inverse
    n = r + extra
    a = instance(n, r, r_upper, seed=n + r_upper, scale=1.0)
    calls = {}
    for name in ("dgbtrf", "dgetrf", "_eliminate"):
        counting(monkeypatch, lu_module, name, calls)
    fact = lu_factor_lower_band(a)
    assert calls == {"dgbtrf": 1} and fact.path == "dgbtrf"
    ref = loop_factorization(a)
    assert ref.path == "panels" and fact.width == ref.width
    dense = a.to_dense()
    low, up = dense_unpivoted_lu(dense)
    np.testing.assert_allclose(fact.l_dense(), low, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(fact.r_dense(), up, rtol=1e-13, atol=1e-13)
    assert np.all(fact.u[:, 0] == 0.0) and fact.u.shape == (n, r + 1)
    assert [t.shape for t in fact.tops] == [t.shape for t in ref.tops]
    for top in fact.tops:
        rows, cols = np.indices(top.shape)
        assert top.flags.f_contiguous and np.all(top[cols > rows + r_upper] == 0.0)
    expected = np.abs(up).sum(axis=1).max() / np.abs(dense).sum(axis=1).max()
    assert fact.growth == pytest.approx(expected, rel=1e-13)
    assert fact.growth == pytest.approx(ref.growth, rel=1e-13)
    got, want = (inverse_generators(f) for f in (fact, ref))
    assert rel(got.p, want.p) <= 1e-13 and rel(got.p_last, want.p_last) <= 1e-13
    assert got.q.tobytes() == want.q.tobytes()
    g = invert_lower_band_lu(a)
    assert covered_relative_error(reconstruct_structured(g), dense_invert(dense), r) <= 1e-12


@pytest.mark.parametrize("column", [0, PANEL - 1, PANEL, 3 * PANEL])
def test_dgbtrf_names_a_zero_pivot_with_nothing_below_it(monkeypatch, column):
    # zeroing row and column j leaves dgbtrf nothing to swap and an exactly
    # zero pivot, which it reports (info = j + 1) and steps over; the pivot
    # check names the same 1-based index, and the panel loop never runs
    r, r_upper = 4, 3
    n = r + 3 * PANEL + 1
    dense = instance(n, r, r_upper, seed=column, scale=1.0).to_dense()
    dense[column, :] = dense[:, column] = 0.0
    a = BandedMatrix.from_dense(dense, r, r_upper)
    infos, calls = [], {}
    dgbtrf = lu_module.dgbtrf

    def spy(*args, **kwargs):
        out = dgbtrf(*args, **kwargs)
        infos.append(out[2])
        return out

    monkeypatch.setattr(lu_module, "dgbtrf", spy)
    counting(monkeypatch, lu_module, "dgetrf", calls)
    with pytest.raises(ZeroPivotError) as info:
        lu_factor_lower_band(a)
    assert info.value.pivot_index == column + 1
    assert infos == [column + 1] and calls == {}


@pytest.mark.parametrize("column", [PANEL - 1, PANEL + 5])
def test_tiny_pivot_is_named_alike_on_both_branches(monkeypatch, column):
    # a pivot a thousandth of the singularity tolerance with nothing below
    # it: the two-sided declaration takes dgbtrf, the same matrix declared
    # with a full upper part (past the rule) the panel loop, whose dgetrf
    # swaps nothing either; both name the same 1-based pivot
    r = 4
    n = r + 3 * PANEL
    dense = instance(n, r, r, seed=column, scale=1.0).to_dense()
    dense[column, :] = dense[:, column] = 0.0
    dense[column, column] = 1e-3 * singularity_tol(n, np.abs(dense).sum(axis=1).max())
    for r_upper, branch in ((r, {"dgbtrf": 1}), (n - 1, {"dgetrf": column // PANEL + 1})):
        calls = {}
        for name in ("dgbtrf", "dgetrf", "_eliminate"):
            counting(monkeypatch, lu_module, name, calls)
        with pytest.raises(ZeroPivotError) as info:
            lu_factor_lower_band(BandedMatrix.from_dense(dense, r, r_upper))
        assert info.value.pivot_index == column + 1
        assert calls == branch, r_upper


@pytest.mark.parametrize("upper", ["one past the rule", "full"])
@pytest.mark.parametrize("r", [1, 6])
def test_bands_past_the_rule_never_call_dgbtrf(monkeypatch, r, upper):
    # r_upper = 2 (PANEL + r) + 1, or a full upper part with n - 1 past it
    # (the lower_full workload's shape): the panel loop runs as before, bit
    # for bit, with its one dgetrf per panel
    n = r + 4 * PANEL + 1
    r_upper = 2 * (PANEL + r) + 1 if upper != "full" else n - 1
    a = instance(n, r, r_upper, seed=n + r, scale=1.0)
    calls = {}
    for name in ("dgbtrf", "dgetrf", "_eliminate"):
        counting(monkeypatch, lu_module, name, calls)
    fact = lu_factor_lower_band(a)
    assert calls == {"dgetrf": len(panel_edges(n, r))} and fact.path == "panels"
    ref = loop_factorization(a)
    assert same_bits(fact, (ref.x, ref.tops, ref.f)) and fact.growth == ref.growth


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
    ustar = fact.inverse_product()
    assert [u.shape for u in ustar.factors] == [(r + 1, r + 1)] * (n - r)
    assert ustar.last.shape == (r, r)


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


def stage_inputs(fact):
    """(u, w) of a factorization: its inverse factor's blocks I - u_k w_k^T."""
    if hasattr(fact, "tau"):
        return fact.tau[:, None] * fact.v, fact.v
    u = np.hstack((np.zeros((fact.n, 1)), fact.f))
    return u, np.broadcast_to(np.eye(1, fact.r + 1), u.shape)


def stage_blocks(u, w):
    """a(k) = S - u_k[1:] w_k[:r]^T for every row of (u, w), S the r x r shift."""
    r = u.shape[1] - 1
    return np.subtract(np.eye(r + 1)[1:, :r], u[:, 1:, None] * w[:, None, :r])


@pytest.mark.parametrize("upper", ["zero", "equal", "full"])
@pytest.mark.parametrize("extra", [1, PANEL - 1, PANEL + 1, 3 * PANEL + 1])
@pytest.mark.parametrize("r", [1, 5, 3 * PANEL // 4])
@pytest.mark.parametrize("factor", [qr_factor_lower_band, lu_factor_lower_band])
def test_one_record_of_the_inverse_factor(factor, r, extra, upper):
    # both factorizations keep G^{-1} (U^T or L^{-1}) as (u, w), equal bit
    # for bit to the derivation from their own fields (stage_inputs), and
    # build from it n - r full blocks and an r x r trailing block whose
    # descending product takes A to R; n = r + 1, n = r + PANEL +- 1, one
    # column short of and past the first panel edge, and n = r + 3 PANEL + 1,
    # whose full upper part is wider than 2 (PANEL + r).  Every route is
    # taken: QR's dgeqrt from r = 3 PANEL / 4 (keeps_t) and dgeqrf below,
    # LU's dgbtrf and, on that full upper part, its panel loop
    n = r + extra
    r_upper = {"zero": 0, "equal": r, "full": n - 1}[upper]
    a = instance(n, r, r_upper, seed=n + r, scale=1.0)
    fact = factor(a)
    if factor is qr_factor_lower_band:
        assert fact.path == ("dgeqrt" if keeps_t(r) else "dgeqrf")
    else:
        assert fact.path == ("panels" if wide_right_block(max(r, r_upper), PANEL + r) else "dgbtrf")
    u, w = stage_inputs(fact)
    assert fact.u.tobytes() == u.tobytes() and fact.w.tobytes() == w.tobytes()
    assert fact.u.shape == fact.w.shape == (n, r + 1)
    inverse = fact.inverse_product()
    assert [blk.shape for blk in inverse.factors] == [(r + 1, r + 1)] * (n - r)
    assert inverse.last.shape == (r, r)
    assert rel(expand_transform_product(inverse) @ a.to_dense(), fact.r_dense()) <= 1e-13


@pytest.mark.parametrize("extra", [1, PANEL - 1, PANEL + 1])
@pytest.mark.parametrize("r", [1, 5])
@pytest.mark.parametrize("method", ["qr", "lu"])
def test_inversions_build_a_on_first_read(tmp_path, method, r, extra):
    # an inversion keeps a(k) as (u, w) and builds it when it is first read:
    # the bytes of stage_inputs' blocks, read-only, one array for every later
    # read and for threads that read it first at the same time, and the same
    # file as a dense copy; n = r + 1 and n = r + PANEL +- 1
    n = r + extra
    a = instance(n, r, r, seed=n + r, scale=1.0)
    factor, invert = {
        "qr": (qr_factor_lower_band, invert_lower_band_qr),
        "lu": (lu_factor_lower_band, invert_lower_band_lu),
    }[method]
    blocks = stage_blocks(*stage_inputs(factor(a)))[: n - r]
    g = invert(a)
    assert g.a.tobytes() == blocks.tobytes() and g.a is g.a
    assert not g.a.flags.writeable
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            g = invert(a)
            start = threading.Barrier(4)
            reads = [None] * 4

            def read(t, g=g, start=start, reads=reads):
                start.wait(timeout=10)
                reads[t] = g.a

            threads = [threading.Thread(target=read, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
            assert not any(th.is_alive() for th in threads)
            assert all(x is g.a for x in reads) and g.a.tobytes() == blocks.tobytes()
    finally:
        sys.setswitchinterval(switch)
    g = invert(a)
    write_generators(tmp_path / "compact.json", g)
    write_generators(tmp_path / "dense.json", GreenGenerators(g.n, g.r, g.p, g.q, g.a, g.p_last))
    assert (tmp_path / "compact.json").read_bytes() == (tmp_path / "dense.json").read_bytes()


def recursion_generators(fact, u, w):
    """p, q, a and p_last by the per-row backward recursion over all n rows
    of R, started from an empty stack at the last row (the reference)."""
    n, r = u.shape[0], u.shape[1] - 1
    m = n - r
    c = np.eye(1, r) - u[:, :1] * w[:, :r]  # becomes p
    blocks = stage_blocks(u, w)
    q = np.subtract(np.eye(r + 1)[1:, r], u[:m, 1:] * w[:m, r:])
    rows = fact.rows
    p_last = backward_recursion(fact.x[m:], rows[m:], fact.width, blocks[m:], np.empty((0, r)), c[m:])
    backward_recursion(fact.x[:m], rows[:m], fact.width, blocks[:m], p_last, c[:m])
    return c[:m], q, blocks[:m], p_last


def dense_windows(fact, a):
    """p(k) and p_last from dense matrices: for LU the windows B[k, k:k+r] and
    B[m:, m:] of B = A^{-1}; for QR Z_k[k, k:k+r] and Z_m[m:, m:] of
    Z_k = R^{-1} H_{n-1} ... H_k."""
    n, r = fact.n, fact.r
    m = n - r
    if not hasattr(fact, "tau"):
        b = dense_invert(a.to_dense())
        return np.array([b[k, k : k + r] for k in range(m)]), b[m:, m:]
    z = scipy.linalg.solve_triangular(fact.r_dense(), np.eye(n))
    p = np.empty((m, r))
    for k in range(n - 1, -1, -1):
        cols = slice(k, min(k + r + 1, n))
        v = fact.v[k, : cols.stop - k]
        z[:, cols] -= fact.tau[k] * np.outer(z[:, cols] @ v, v)  # Z_k = Z_{k+1} H_k
        if k < m:
            p[k] = z[k, k : k + r]
        elif k == m:
            p_last = z[m:, m:].copy()
    return p, p_last


def plant_reduced_columns(dense, columns):
    """Zero A[j+1:, :j+1] for each column j: column j is then already
    reduced when the factorization reaches it (LAPACK skips its reflection,
    tau = 0; LU's multipliers are zero), and A stays diagonally dominant."""
    for j in columns:
        dense[j + 1 :, : j + 1] = 0.0
    return dense


def rel(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("upper", ["zero", "equal", "equal + 2", "full"])
@pytest.mark.parametrize("r", R_LOWERS)
@pytest.mark.parametrize("offset", [-1, 1])
@pytest.mark.parametrize("panels", [1, 3])
def test_generator_stage_against_recursion_and_dense(panels, offset, r, upper):
    # the panel-blocked stage against the per-row backward recursion (a and
    # q bit for bit, p and p_last to rounding) and against dense windows of
    # the inverse (LU) or of R^{-1} H_{n-1} ... H_k (QR), at n = r + k b +- 1,
    # 1e+-150 scales and with columns at both sides of the first panel edge
    # and in the middle that need no reflection
    n = r + panels * PANEL + offset
    r_upper = {"zero": 0, "equal": r, "equal + 2": r + 2, "full": n - 1}[upper]
    planted = [j for j in (0, PANEL - 1, PANEL, n // 2) if j < n - 1]
    for scale in SCALES:
        dense = instance(n, r, r_upper, seed=n + r, scale=scale).to_dense()
        a = BandedMatrix.from_dense(plant_reduced_columns(dense, planted), r, r_upper)
        for factor in (qr_factor_lower_band, lu_factor_lower_band):
            fact = factor(a)
            if factor is qr_factor_lower_band:
                assert np.all(fact.tau[planted] == 0.0)
            g = inverse_generators(fact)
            p, q, blocks, p_last = recursion_generators(fact, *stage_inputs(fact))
            assert g.a.tobytes() == blocks.tobytes() and g.q.tobytes() == q.tobytes()
            assert rel(g.p, p) <= 1e-13 and rel(g.p_last, p_last) <= 1e-13, factor.__name__
            p, p_last = dense_windows(fact, a)
            assert rel(g.p, p) <= 1e-13 and rel(g.p_last, p_last) <= 1e-13, factor.__name__


@pytest.mark.parametrize("upper", ["equal", "full"])
@pytest.mark.parametrize("offset", [-1, 1])
@pytest.mark.parametrize("factor", [qr_factor_lower_band, lu_factor_lower_band])
def test_panels_of_r_are_zero_past_each_rows_reach(factor, offset, upper):
    # the generator stage multiplies a panel's whole right block of R by the
    # stack below it, unmasked, so the cells past each row's reach of width
    # columns must be exact zeros, as the window's arithmetic leaves them;
    # with a full upper part the first five panels' right blocks are wider
    # than 2 (PANEL + r) columns and take the explicit transform
    r = 5
    n = r + 8 * PANEL + offset
    r_upper = {"equal": r, "full": n - 1}[upper]
    dense = instance(n, r, r_upper, seed=offset + 2, scale=1.0).to_dense()
    fact = factor(BandedMatrix.from_dense(plant_reduced_columns(dense, [PANEL]), r, r_upper))
    assert sum(len(top) for top in fact.tops) == n
    for top in fact.tops:
        rows, cols = np.indices(top.shape)
        assert np.all(top[cols > rows + fact.width] == 0.0)


def t_factors(fact):
    """The T factors that a factorization kept for the stage (QR past the
    dgeqrt rule), else None."""
    return getattr(fact, "t_factors", None)


@pytest.mark.parametrize("r_upper", [4, 999])
def test_generator_stage_calls_blas_per_panel(monkeypatch, r_upper):
    # no per-row recursion: the stage takes one explicit transform per
    # panel of the factorization, never one per row, and one triangular
    # solve with R's diagonal block; its only other solve is
    # compact_transform's (QR below the dgeqrt rule), and LU's transform
    # takes one dtrtri; the prefix corrections solve nothing.  Each
    # factorization's class builds its transforms (qr and lu call them).
    # Counted over the stage alone: with r_upper = 999 QR's factorization
    # keeps the transforms of the 28 panels with a wide right block, and
    # the stage builds only the other four; LU's panel loop keeps every
    # panel's, and the stage builds none.  With r_upper = 4 LU factors by
    # dgbtrf, which keeps none: the stage builds every panel's
    n, r = 1000, 4
    panels = math.ceil((n - r) / PANEL)
    wide = sum(c > 2 * (PANEL + r) for c in right_blocks(n, r, min(r + r_upper, n - 1)))
    assert wide == (28 if r_upper == 999 else 0)
    a = random_band(n, r, r_upper, seed=0, diag_shift=r + 1.0)
    calls = {}
    counting(monkeypatch, generators_module, "dtrsm", calls)
    for name in ("compact_transform", "reflection_transform"):
        counting(monkeypatch, qr_module, name, calls)
    counting(monkeypatch, lu_module, "elimination_transform", calls)
    for name in ("dtrsm", "dtrtri"):
        counting(monkeypatch, banded_module, name, calls)
    expected = {
        qr_factor_lower_band: {"dtrsm": 2 * panels - wide, "compact_transform": panels - wide},
        lu_factor_lower_band: {"dtrsm": panels, "dtrtri": panels, "elimination_transform": panels}
        if r_upper == 4 else {"dtrsm": panels},
    }
    for factor, want in expected.items():
        fact = factor(a)
        calls.clear()
        inverse_generators(fact)
        assert calls == want, factor.__name__


def ascending_factor(u, w):
    """M = U (I + striu X)^{-1} with X = W^T U, by a triangular solve: the
    factor of the ascending product G_0 ... G_{b-1} = I - M W^T of any
    blocks G_j = I - u_j w_j^T (the reference)."""
    return dtrsm(1.0, w.T @ u, u, side=1, diag=1)


def stage_transforms(ut, wt, tau, t, eliminate):
    """M and F of a panel built as the stage builds them: F from L11^{-1}
    for elimination steps, from T when given, else from compact_transform's
    y with M = y diag(tau); for elimination steps, whose M the stage never
    builds, M by the solve of ``ascending_factor``."""
    if t is not None:
        return reflection_transform(wt.T, t)
    if eliminate:
        f = elimination_transform(ut.T)
        return ascending_factor(ut.T, wt.T), f
    y, f = compact_transform(ut.T, wt.T)
    return y * tau, f


def solved_transforms(ut, wt, tau, t, eliminate):
    """M and F of a panel by the stage's former arithmetic, one triangular
    solve for each, whatever the blocks."""
    return ascending_factor(ut.T, wt.T), compact_transform(ut.T, wt.T)[1]


def corrected_stage(fact, transforms=stage_transforms):
    """``inverse_generators`` with the prefix correction applied on every
    panel, LU's too, and M and F built by ``transforms`` (the reference)."""
    n, r, width, u, w = fact.n, fact.r, fact.width, fact.u, fact.w
    m = n - r
    p, q, p_last = np.empty((m, r)), np.empty((m, r)), np.empty((r, r))
    np.multiply(u[:m, 1:], w[:m, r:], out=q)
    np.subtract(np.eye(r)[-1], q, out=q)
    eliminate = not hasattr(fact, "tau")
    stacks = np.empty((2, width, r))
    t = stacks[1, :0]
    j0 = n
    for i, top in enumerate(reversed(fact.tops)):
        b, h = len(top), len(t)
        j0 -= b
        (ut, wt, z), bands = generators_module._skewed(b, r, 3)
        bands[0] = u[j0 : j0 + b]
        bands[1] = w[j0 : j0 + b]
        tf = None if t_factors(fact) is None else fact.t_factors[-1 - i]
        mult, f = transforms(ut, wt, u[j0 : j0 + b, 0], tf, eliminate)
        np.dot(top[:, b : b + h] @ t, f[b:], out=z)
        np.subtract(f[:b], z, out=z)
        z[:] = dtrsm(1.0, top[:, :b], z.T, side=1, trans_a=1, overwrite_b=1).T
        nxt = stacks[i & 1]
        keep = min(b, width)
        nxt[:keep] = z[:keep, :r]
        height = min(b + h, width)
        np.dot(t[: height - keep], f[b:, :r], out=nxt[keep:height])
        t = nxt[:height]
        prefix = z @ mult
        prefix *= np.tri(b, b, -1)
        e = min(m - j0, b)
        prefix[:, e:] = 0.0
        z -= prefix @ wt
        p[j0 : j0 + e] = bands[2, :e, :r]
        if e < b:
            p_last[:] = z[e:, e : e + r]
    return GreenGenerators._compact(n, r, p, q, p_last, u, w)


@pytest.mark.parametrize("upper", ["zero", "equal", "equal + 2", "full"])
@pytest.mark.parametrize("r", R_LOWERS)
@pytest.mark.parametrize("extra", [1, PANEL - 1, PANEL + 1, 3 * PANEL - 1, 3 * PANEL + 1])
def test_skipped_correction_keeps_every_bit(monkeypatch, extra, r, upper):
    # LU's elimination steps change only columns left of each p(k), so the
    # stage that skips their correction writes the reference's bytes; QR
    # keeps it, and with it the reference's bytes too.  Neither solves
    # anything but R's diagonal blocks.  n = r + 1 and n = r + k PANEL +- 1
    # for one and three panels, at 1e+-150 scales; r = PANEL + 3 takes the
    # dgeqrt path, its T factors included
    n = r + extra
    r_upper = min({"zero": 0, "equal": r, "equal + 2": r + 2, "full": n - 1}[upper], n - 1)
    calls = {}
    counting(monkeypatch, generators_module, "dtrsm", calls)
    for scale in SCALES:
        a = instance(n, r, r_upper, seed=n + r, scale=scale)
        for factor in (qr_factor_lower_band, lu_factor_lower_band):
            fact = factor(a)
            calls.clear()
            g = inverse_generators(fact)
            assert calls == {"dtrsm": len(fact.tops)}, factor.__name__
            ref = corrected_stage(fact)
            for name in ("p", "q", "p_last"):
                got, want = getattr(g, name), getattr(ref, name)
                assert got.tobytes() == want.tobytes(), (factor.__name__, name)


def as_elimination_steps(fact):
    """The generators of a QR factorization that reflected nothing (every
    u_k = 0, every w_k = e_1) with its blocks taken as elimination steps,
    whose stage skips the correction (the reference)."""
    lu_like = lu_module.LuFactorization(fact.n, fact.r, fact.u, fact.x, fact.tops, fact.width, 0.0)
    assert fact.w.tobytes() == lu_like.w.tobytes()
    return inverse_generators(lu_like)


@pytest.mark.parametrize("upper", ["equal", "full"])
@pytest.mark.parametrize("r", [1, 4])
def test_qr_that_reflects_nothing_corrects_by_exact_zeros(monkeypatch, r, upper):
    # an upper triangular A leaves dgeqrf nothing to reflect: every tau is
    # 0 and every v_k, and so w_k, is e_1.  The stage still takes the
    # panels' reflections from compact_transform, with M = y diag(tau)
    # exactly zero and F = I, so its correction changes no value: the
    # generators equal, up to the sign of a zero, those of the same blocks
    # taken as elimination steps, which skip it, and the dense oracle's
    n = r + 3 * PANEL + 1
    r_upper = {"equal": r, "full": n - 1}[upper]
    dense = np.triu(instance(n, r, r_upper, seed=n + r, scale=1.0).to_dense())
    a = BandedMatrix.from_dense(dense, r, r_upper)
    fact = qr_factor_lower_band(a)
    assert np.all(fact.tau == 0.0) and fact.path == "dgeqrf"
    assert np.all(fact.w[:, 0] == 1.0) and np.all(fact.w[:, 1:] == 0.0)
    for u, w, _, _ in panel_bands(fact):
        mult, f = fact.panel_transform(0, u, w)
        assert np.all(mult == 0.0) and np.array_equal(f, np.eye(len(u)))
    calls = {}
    counting(monkeypatch, generators_module, "dtrsm", calls)
    counting(monkeypatch, qr_module, "compact_transform", calls)
    g = invert_lower_band_qr(a)
    assert calls == {"dtrsm": len(fact.tops), "compact_transform": len(fact.tops)}
    ref = as_elimination_steps(fact)
    for name in ("p", "q", "p_last", "a"):
        assert np.array_equal(getattr(g, name), getattr(ref, name)), name
    err = covered_relative_error(reconstruct_structured(g), dense_invert(dense), r)
    assert err <= 1e-12


RULE = 3 * PANEL // 4  # the first r_lower whose QR keeps T (keeps_t)


def right_normal_form_residual(g):
    """max over k of ||a(k) a(k)^T + q(k) q(k)^T - I||_F (criterion 5)."""
    a, q = g.a, g.q
    resid = a @ a.transpose(0, 2, 1) + q[:, :, None] * q[:, None, :] - np.eye(g.r)
    return np.sqrt((resid**2).sum(axis=(1, 2))).max()


@pytest.mark.parametrize("upper", ["zero", "equal", "full"])
@pytest.mark.parametrize("offset", [-1, 1])
@pytest.mark.parametrize("r", [RULE - 1, RULE])
def test_qr_on_both_sides_of_the_t_rule(monkeypatch, r, offset, upper):
    # r_lower just below and at the rule: dgeqrf, or dgeqrt with one T per
    # panel and tau its diagonal; both against the dense oracle, and QR
    # against the generators of dgeqrf's factorization with the stage's
    # former arithmetic (a triangular solve for F and for M), with right
    # normal form kept; n = r + 3 PANEL +- 1
    n = r + 3 * PANEL + offset
    r_upper = {"zero": 0, "equal": r, "full": n - 1}[upper]
    a = instance(n, r, r_upper, seed=n + r, scale=1.0)
    fact = qr_factor_lower_band(a)
    assert keeps_t(r) == (r == RULE) and not keeps_t(RULE - 1)
    if r == RULE:
        assert fact.path == "dgeqrt" and len(fact.t_factors) == len(fact.tops)
        diag = np.concatenate([t.diagonal() for t in fact.t_factors])
        assert diag.tobytes() == fact.tau.tobytes()
        assert all(np.all(np.tril(t, -1) == 0.0) for t in fact.t_factors)
    else:
        assert fact.path == "dgeqrf" and fact.t_factors is None
    ref_dense = dense_invert(a.to_dense())
    for invert in inverters(a):
        err = covered_relative_error(reconstruct_structured(invert(a)), ref_dense, r)
        assert err <= 1e-12, (invert.__name__, err)
    g = invert_lower_band_qr(a)
    assert right_normal_form_residual(g) <= 1e-13
    monkeypatch.setattr(qr_module, "keeps_t", lambda r: False)
    old = qr_factor_lower_band(a)
    assert old.path == "dgeqrf"
    assert rel(fact.r_dense(), old.r_dense()) <= 1e-13
    ref = corrected_stage(old, transforms=solved_transforms)
    for name in ("p", "q", "a", "p_last"):
        assert rel(getattr(g, name), getattr(ref, name)) <= 1e-13, name


@pytest.mark.parametrize("upper", ["equal", "full"])
def test_dgeqrt_band_that_reflects_nothing_corrects_by_exact_zeros(monkeypatch, upper):
    # an upper triangular A past the rule leaves dgeqrt nothing to reflect:
    # every tau and every T is 0, so M = V T is exactly zero and F = I, and
    # the correction that the stage applies through T changes no value: the
    # stage equals the reference that applies it, the same blocks taken as
    # elimination steps (every w_k = e_1, every u_k = 0), which skip it, up
    # to the sign of a zero, and the dense oracle
    r = RULE
    n = r + 3 * PANEL + 1
    r_upper = {"equal": r, "full": n - 1}[upper]
    dense = np.triu(instance(n, r, r_upper, seed=n + r, scale=1.0).to_dense())
    a = BandedMatrix.from_dense(dense, r, r_upper)
    fact = qr_factor_lower_band(a)
    assert fact.path == "dgeqrt" and np.all(fact.tau == 0.0)
    assert all(np.all(t == 0.0) for t in fact.t_factors)
    j0 = 0
    for top, t in zip(fact.tops, fact.t_factors):
        b = len(top)
        (ut, wt, _), bands = generators_module._skewed(b, r, 3)
        bands[1] = fact.w[j0 : j0 + b]
        mult, f = reflection_transform(wt.T, t)
        assert np.all(mult == 0.0) and np.array_equal(f, np.eye(b + r))
        j0 += b
    calls = {}
    counting(monkeypatch, qr_module, "reflection_transform", calls)
    g = invert_lower_band_qr(a)
    assert calls == {"reflection_transform": len(fact.tops)}
    for ref in (corrected_stage(fact), as_elimination_steps(fact)):
        for name in ("p", "q", "p_last"):
            assert np.array_equal(getattr(g, name), getattr(ref, name)), name
    err = covered_relative_error(reconstruct_structured(g), dense_invert(dense), r)
    assert err <= 1e-12


def panel_bands(fact):
    """Each panel's U and W as (b + r) x b banded matrices, built as the
    stage builds them, with its tau and its T (or None)."""
    r, j0, out = fact.r, 0, []
    for i, top in enumerate(fact.tops):
        b = len(top)
        (ut, wt, _), bands = generators_module._skewed(b, r, 3)
        bands[0] = fact.u[j0 : j0 + b]
        bands[1] = fact.w[j0 : j0 + b]
        t = None if t_factors(fact) is None else fact.t_factors[i]
        out.append((ut.T, wt.T, fact.u[j0 : j0 + b, 0], t))
        j0 += b
    return out


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("r", R_LOWERS)
def test_ascending_factor_needs_no_solve(scale, r):
    # M = U (I + striu X)^{-1}, the factor of a panel's ascending product,
    # is y diag(tau) from compact_transform's y and, for dgeqrt's panels
    # (r = PANEL + 3), V T, against the triangular solve; F from T is the
    # compact form's.  n = r + 3 PANEL + 1 with a planted column that needs
    # no reflection (tau = 0), at 1e+-150 scales
    n = r + 3 * PANEL + 1
    dense = instance(n, r, r, seed=n + r, scale=scale).to_dense()
    a = BandedMatrix.from_dense(plant_reduced_columns(dense, [PANEL]), r, r)
    fact = qr_factor_lower_band(a)
    assert fact.tau[PANEL] == 0.0
    for u, w, tau, t in panel_bands(fact):
        want = ascending_factor(u, w)
        assert rel(compact_transform(u, w)[0] * tau, want) <= 1e-14
        if t is not None:
            mult, f = reflection_transform(w, t)
            assert rel(mult, want) <= 1e-14
            assert rel(f, compact_transform(u, w)[1]) <= 1e-14
    assert (fact.t_factors is not None) == keeps_t(r)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("upper", ["zero", "full"])
@pytest.mark.parametrize("r", R_LOWERS)
def test_elimination_transform_is_the_compact_form(r, upper, scale):
    # F = [[L11^{-1}, 0], [-L21 L11^{-1}, I]] from one dtrtri against the
    # compact form I - U (I + stril X)^{-1} W^T of the same elimination
    # steps, panel by panel of LU factorizations (dgbtrf's and the panel
    # loop's), with a planted column whose multipliers are zero
    n = r + 3 * PANEL + 1
    r_upper = {"zero": 0, "full": n - 1}[upper]
    dense = instance(n, r, r_upper, seed=n + r, scale=scale).to_dense()
    a = BandedMatrix.from_dense(plant_reduced_columns(dense, [PANEL]), r, r_upper)
    fact = lu_factor_lower_band(a)
    for u, w, _, _ in panel_bands(fact):
        assert rel(elimination_transform(u), compact_transform(u, w)[1]) <= 1e-14


@pytest.mark.parametrize("r_upper", [RULE, 999])
def test_dgeqrt_panels_keep_one_t_each(monkeypatch, r_upper):
    # past the rule (r = 3 PANEL / 4) each panel takes one dgeqrt call,
    # whose T serves the trailing update (one dgemqrt, or on a right block
    # wider than 2 (PANEL + r) = 112 columns one reflection_transform, kept
    # and applied by the panel loop) and the stage (one reflection_transform
    # for each panel that kept none, no solve but R's); dgeqrf, dormqr,
    # compact_transform and qr's own dgemm are never called
    n, r = 1000, RULE
    panels = math.ceil((n - r) / PANEL)
    blocks = right_blocks(n, r, min(r + r_upper, n - 1))
    wide = sum(c > 2 * (PANEL + r) for c in blocks)
    assert wide == (0 if r_upper == RULE else 27)
    a = random_band(n, r, r_upper, seed=0, diag_shift=r + 1.0)
    calls = {}
    for name in ("dgeqrf", "dormqr", "dgeqrt", "dgemqrt", "dgemm", "compact_transform",
                 "reflection_transform"):
        counting(monkeypatch, qr_module, name, calls)
    counting(monkeypatch, generators_module, "dtrsm", calls)
    fact = qr_factor_lower_band(a)
    want = {"dgeqrt": panels, "dgemqrt": len(blocks) - wide}
    if wide:
        want.update(reflection_transform=wide)
    assert calls == want and fact.path == "dgeqrt" and len(fact.t_factors) == panels
    calls.clear()
    invert_lower_band_qr(a)
    want["dtrsm"] = panels
    want["reflection_transform"] = panels
    assert calls == want


def arange_gather(w, b):
    """R's diagonal and the r entries below it in each of a panel's b
    columns of its window ``w``, by the per-panel fancy index."""
    diag = np.arange(b)[:, None]
    return w[diag + np.arange(len(w) - b + 1), diag]


@pytest.mark.parametrize("r", [1, 4, PANEL + 3])
def test_cached_gather_matches_the_index_arithmetic(r):
    # every window shape that factor_panels makes: b = 1..PANEL + r rows of
    # R over b + r rows, as wide as its b columns (clipped at the matrix
    # edge, n = r + 1 among them) or wider
    rng = np.random.Generator(np.random.PCG64(r))
    for b in range(1, PANEL + r + 1):
        for cols in (b, b + 1, b + r, 2 * (b + r) + 1):
            w = np.asfortranarray(rng.standard_normal((b + r, cols)))
            got = w.T.reshape(-1)[banded_module._diagonals(b, b + r)]
            assert got.tobytes() == arange_gather(w, b).tobytes(), (b, cols)


@pytest.mark.parametrize("upper", ["zero", "equal", "full"])
@pytest.mark.parametrize("r", [1, 4, PANEL + 3])
@pytest.mark.parametrize("extra", [1, PANEL - 1, PANEL + 1, 3 * PANEL + 1])
def test_panel_loop_gathers_every_windows_diagonals(extra, r, upper):
    # the loop's x and entries below the diagonal are the index arithmetic's
    # gathers of each window it reduced, at n = r + 1 and past panel edges
    n = r + extra
    r_upper = {"zero": 0, "equal": r, "full": n - 1}[upper]
    a = instance(n, r, r_upper, seed=n, scale=1.0)
    rng = np.random.Generator(np.random.PCG64(n))
    gathered = []

    def reduce(w, k0, b, wide):
        w[...] = rng.standard_normal(w.shape)
        gathered.append(arange_gather(w, b))

    x, tops, below, _ = factor_panels(a, min(r + r_upper, n - 1), reduce)
    expected = np.vstack(gathered)
    assert below.tobytes() == expected.tobytes() and x.tobytes() == expected[:, 0].tobytes()
