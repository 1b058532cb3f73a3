import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greenband import run_bench, slope_fit, write_bench_csv
from greenband.bench import fit_records, instability_matrix, run_example


def test_slope_of_linear_law():
    fit = slope_fit([(n, 3.0e-6 * n) for n in (100, 200, 400, 800)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-20)


def test_slope_of_cubic_law():
    fit = slope_fit([(n, 2.0e-9 * n**3) for n in (100, 200, 400)])
    assert fit.slope == pytest.approx(3.0, abs=1e-12)


def test_slope_of_geometric_data():
    t = 0.017
    fit = slope_fit([(250, t), (500, 2 * t), (1000, 4 * t), (2000, 8 * t)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


@given(
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=1e-9, max_value=1e-3),
)
@settings(max_examples=30)
def test_slope_recovers_exponent(alpha, coeff):
    fit = slope_fit([(n, coeff * n**alpha) for n in (64, 128, 256, 512)])
    assert fit.slope == pytest.approx(alpha, abs=1e-9)


def test_slope_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        slope_fit([(10, 1.0), (20, 2.0)])
    with pytest.raises(ValueError):
        slope_fit([(10, 1.0), (10, 2.0), (10, 3.0)])
    with pytest.raises(ValueError):
        slope_fit([(10, 1.0), (20, 0.0), (30, 3.0)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("1e400")],
                         ids=["nan", "inf", "1e400"])
@pytest.mark.parametrize("where", [0, 1], ids=["size", "time"])
def test_slope_fit_rejects_a_nonfinite_size_or_time(bad, where):
    points = [[10, 1.0], [20, 2.0], [30, 3.0]]
    points[1][where] = bad
    with pytest.raises(ValueError, match="finite"):
        slope_fit(points)


def test_run_bench_records_and_csv(tmp_path):
    recs = run_bench([12, 16, 24], r=2, method="qr", trials=1, seed=0, oracle_cutoff=16)
    assert [rec.n for rec in recs] == [12, 16, 24]
    assert all(rec.seconds > 0 for rec in recs)
    assert recs[0].rel_err is not None and recs[0].rel_err <= 1e-10
    assert recs[2].rel_err is None  # above the oracle cutoff
    path = tmp_path / "bench.csv"
    write_bench_csv(path, recs)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "method", "seconds", "rel_err"]
    assert len(rows) == 4
    assert rows[3][3] == ""  # skipped oracle leaves the field empty
    fit = fit_records(recs)
    assert np.isfinite(fit.slope)


def test_bench_csv_of_no_records_is_its_header(tmp_path):
    path = tmp_path / "bench.csv"
    write_bench_csv(path, [])
    assert path.read_text().splitlines() == ["n,method,seconds,rel_err"]


def test_run_bench_rejects_unknown_method():
    with pytest.raises(ValueError):
        run_bench([8, 12, 16], r=2, method="cholesky")
    # and run_example an unknown example id, before it runs anything
    for example_id in (0, 6):
        with pytest.raises(ValueError, match=re.escape("example id must be one of (1, 2, 3, 4, 5)")):
            run_example(example_id, "unused")


def test_instability_matrix_shape():
    a = instability_matrix(1e-3)
    assert a.n == 10 and a.r_lower == 2 and a.full_upper
    dense = a.to_dense()
    np.testing.assert_array_equal(
        dense[:3, :3], [[1.0, 1.0, 1.0], [2.0, 2.0 + 1e-3, 5.0], [4.0, 6.0, 8.0]]
    )
    # well conditioned for every tested perturbation size
    for c in range(9):
        kappa = np.linalg.cond(instability_matrix(10.0**-c).to_dense(), 2)
        assert kappa <= 1e3
