import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from greenband import read_generators, read_matrix, write_generators, write_matrix
from greenband.banded import BandedMatrix, random_band
from greenband.cli import main
from greenband.generators import GreenGenerators


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_invert_verify_round_trip(tmp_path):
    m = tmp_path / "a.txt"
    g = tmp_path / "g.json"
    assert run("gen", "--n", 30, "--r", 3, "--r-upper", 3, "--seed", 5,
               "--diag-shift", 3.0, "--out", m) == 0
    assert run("invert", m, "--method", "qr", "--out", g) == 0
    assert run("verify", m, g) == 0
    # and through the LU path
    assert run("invert", m, "--method", "lu", "--out", g) == 0
    assert run("verify", m, g) == 0


def test_gen_is_deterministic(tmp_path):
    m1, m2 = tmp_path / "a1.txt", tmp_path / "a2.txt"
    for out in (m1, m2):
        assert run("gen", "--n", 12, "--r", 2, "--seed", 9, "--diag-shift", 1.5,
                   "--out", out) == 0
    assert m1.read_text() == m2.read_text()


def test_gen_with_cond_flag(tmp_path):
    m = tmp_path / "a.txt"
    assert run("gen", "--n", 40, "--r", 3, "--cond", 1e4, "--seed", 2, "--out", m) == 0
    a = read_matrix(m)
    kappa = np.linalg.cond(a.to_dense(), 2)
    assert 5e3 <= kappa <= 2e4


def test_gen_conflicting_flags_exit_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("gen", "--n", 10, "--r", 2, "--cond", 10.0, "--diag-shift", 1.0,
            "--out", tmp_path / "x.txt")
    assert info.value.code == 2


@pytest.mark.parametrize("r_upper", [0, 3, 8])
def test_gen_cond_with_banded_upper_part_exit_2(tmp_path, capsys, r_upper):
    # --cond always builds a full upper part, so a narrower one is refused
    out = tmp_path / "x.txt"
    assert run("gen", "--n", 10, "--r", 2, "--r-upper", r_upper, "--cond", 100.0,
               "--out", out) == 2
    assert "--r-upper" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r_upper", ["full", 9])
def test_gen_cond_with_full_upper_part(tmp_path, r_upper):
    out = tmp_path / "x.txt"
    assert run("gen", "--n", 10, "--r", 2, "--r-upper", r_upper, "--cond", 100.0,
               "--out", out) == 0
    assert read_matrix(out).r_upper == 9


def test_invert_identity_reconstructs_identity(tmp_path):
    m, g, rec = tmp_path / "i.txt", tmp_path / "g.json", tmp_path / "rec.txt"
    write_matrix(m, BandedMatrix.from_dense(np.eye(8), 2, 7))
    assert run("invert", m, "--method", "qr", "--out", g) == 0
    assert run("reconstruct", g, "--out", rec) == 0
    image = read_matrix(rec)
    np.testing.assert_allclose(image.to_dense(), np.tril(np.eye(8), 1), atol=1e-14)


def test_invert_singular_exit_3(tmp_path, capsys):
    dense = np.eye(6)
    dense[3] = 0.0
    m = tmp_path / "s.txt"
    write_matrix(m, BandedMatrix.from_dense(dense, 1, 5))
    assert run("invert", m, "--method", "qr", "--out", tmp_path / "g.json") == 3
    assert "singular" in capsys.readouterr().err


def test_invert_zero_pivot_exit_3(tmp_path, capsys):
    dense = np.eye(6)
    dense[1, 1] = 0.0
    dense[1, 2] = 1.0
    dense[2, 1] = 1.0
    m = tmp_path / "p.txt"
    write_matrix(m, BandedMatrix.from_dense(dense, 2, 5))
    assert run("invert", m, "--method", "lu", "--out", tmp_path / "g.json") == 3
    assert "pivot 2" in capsys.readouterr().err


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    assert run("invert", bad, "--out", tmp_path / "g.json") == 2
    assert "error" in capsys.readouterr().err


def test_lu_on_small_pivot_matrix_succeeds_but_fails_verify(tmp_path):
    # a tiny (nonzero) pivot is not a hard failure for the unpivoted path;
    # the damage shows up in verification instead
    from greenband.bench import instability_matrix

    m, g = tmp_path / "a.txt", tmp_path / "g.json"
    write_matrix(m, instability_matrix(1e-8))
    assert run("invert", m, "--method", "lu", "--out", g) == 0
    assert run("verify", m, g) == 4
    # the same matrix through the QR path verifies fine
    assert run("invert", m, "--method", "qr", "--out", g) == 0
    assert run("verify", m, g) == 0


def test_verify_detects_planted_corruption(tmp_path):
    m, g = tmp_path / "a.txt", tmp_path / "g.json"
    a = random_band(20, 2, 2, seed=3, diag_shift=2.0)
    write_matrix(m, a)
    assert run("invert", m, "--out", g) == 0
    gens = read_generators(g)
    p_bad = np.array(gens.p)
    p_bad[4] += 1e-3
    write_generators(g, GreenGenerators(gens.n, gens.r, p_bad, gens.q, gens.a,
                                        gens.p_last))
    assert run("verify", m, g) == 4


def test_verify_trivial_identity_case(tmp_path, capsys):
    m, g = tmp_path / "i.txt", tmp_path / "g.json"
    write_matrix(m, BandedMatrix.from_dense(np.eye(7), 1, 6))
    assert run("invert", m, "--out", g) == 0
    assert run("verify", m, g) == 0
    out = capsys.readouterr().out
    rel = float([ln for ln in out.splitlines() if ln.startswith("rel_err")][0].split()[1])
    assert rel <= 1e-14


def test_bench_command_writes_csv_and_slope(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run("bench", "--sizes", "12,18,27", "--r", 2, "--method", "lu",
               "--trials", 1, "--oracle-cutoff", 0, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "slope" in stdout
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "method", "seconds", "rel_err"]
    assert len(rows) == 4


def test_bench_needs_three_sizes(tmp_path):
    assert run("bench", "--sizes", "12,18", "--out", tmp_path / "b.csv") == 2


def test_example_5_csv(tmp_path):
    assert run("example", 5, "--out-dir", tmp_path) == 0
    with open(tmp_path / "example5_instability.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    lu = [float(row["lu_rel_err"]) for row in rows]
    qr = [float(row["qr_rel_err"]) for row in rows]
    assert lu[-1] >= 1e4 * lu[0]
    assert max(qr) <= 1e-10


def test_generator_file_is_json_with_17_digits(tmp_path):
    m, g = tmp_path / "a.txt", tmp_path / "g.json"
    write_matrix(m, random_band(9, 2, 2, seed=4, diag_shift=2.0))
    assert run("invert", m, "--out", g) == 0
    data = json.loads(g.read_text())
    assert set(data) == {"n", "r", "p", "q", "a", "p_last"}
    assert len(data["p"]) == 7 and len(data["p"][0]) == 2


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "greenband.cli", "gen", "--n", "8", "--r", "2",
         "--seed", "1", "--out", str(tmp_path / "m.txt")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "m.txt").exists()
