"""Tests of the benchmark itself, at tiny sizes."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import greenband
from perfbench import driver, workloads
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "narrow_band": workloads.InversionSpec(n=40, r=3, one_sided=False),
    "wide_band": workloads.InversionSpec(n=60, r=8, one_sided=False),
    "lower_full": workloads.InversionSpec(n=40, r=3, one_sided=True),
    "generator_io": workloads.GeneratorIoSpec(n_query=200, n_io=60, n_image=50, r=3, near=12),
}


def library(**overrides):
    """A stand-in for the greenband module with some functions replaced."""
    return types.SimpleNamespace(**{**{k: getattr(greenband, k) for k in greenband.__all__}, **overrides})


def run(capsys, tmp_path, workload, trace=0, gb=greenband, seed=1):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)]
    assert driver.main(argv, root=tmp_path, specs=TINY, gb=gb) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(report, name, unit):
    return any(ln.split()[:1] == [name] and ln.split()[2] == unit for ln in report if not ln.startswith("#"))


def test_benchmark_json_matches_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SPECS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == driver.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == driver.PER_LAYER


@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_printed_with_its_unit(capsys, tmp_path, workload):
    report, res = run(capsys, tmp_path, workload)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == driver.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    kind = "generator_io" if workload == "generator_io" else "inversion"
    for name, unit in {**driver.END_TO_END, **driver.WORKLOAD_METRICS[kind], **driver.RAW_ROUND}.items():
        assert printed(report, name, unit), name

    report, res = run(capsys, tmp_path, workload, trace=1)
    assert res["correct"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == driver.PER_LAYER
    for name, unit in driver.PER_LAYER.items():
        assert printed(report, name, unit), name
    saved = json.loads((tmp_path / "perfbench" / "out" / f"trace-{workload}-seed1.json").read_text())
    assert saved["summary"].keys() == driver.PER_LAYER.keys()
    assert {"name", "start", "end", "parent", "op", "self_s"} <= saved["spans"][0].keys()


def nudged(fn, field="q"):
    """Wrap a function returning generators so one array is off by 0.1%."""

    def wrapped(*args):
        g = fn(*args)
        arrays = {f: getattr(g, f) for f in ("p", "q", "a", "p_last")}
        arrays[field] = arrays[field] * 1.001
        return greenband.GreenGenerators(g.n, g.r, **arrays)

    return wrapped


@pytest.mark.parametrize(
    "workload, overrides, failed_share",
    [
        # a QR/LU disagreement fails both inversions of the instance
        ("narrow_band", {"invert_two_sided_qr": nudged(greenband.invert_two_sided_qr)}, 1),
        ("wide_band", {"invert_two_sided_lu": nudged(greenband.invert_two_sided_lu, "p")}, 1),
        # p_last only reaches the bottom rows, which QR/LU agreement does not sample
        ("lower_full", {"invert_lower_band_lu": nudged(greenband.invert_lower_band_lu, "p_last")}, 1 / 2),
        # set-up inverts the query and image sets by QR: entry and reconstruct fail
        # (scaling q scales whole columns, which only the exact columns reveal)
        ("generator_io", {"invert_two_sided_qr": nudged(greenband.invert_two_sided_qr)}, 2 / 3),
        # a load that is not bit-identical fails the save/load op only
        ("generator_io", {"read_generators": nudged(greenband.read_generators, "a")}, 1 / 3),
    ],
)
def test_corrupted_generators_count_as_failed_ops(capsys, tmp_path, workload, overrides, failed_share):
    _, res = run(capsys, tmp_path, workload, gb=library(**overrides))
    assert not res["correct"]
    assert res["failed"] == pytest.approx(failed_share * res["attempted"])


def test_raising_op_counts_as_failed(capsys, tmp_path):
    def broken(a):
        raise greenband.ZeroPivotError("pivot 1 is zero", pivot_index=1)

    report, res = run(capsys, tmp_path, "narrow_band", gb=library(invert_two_sided_lu=broken))
    assert res["failed"] == res["attempted"] // 2
    assert any("ZeroPivotError" in ln for ln in report)


def test_same_seed_gives_same_inputs():
    for spec in (TINY["narrow_band"], TINY["lower_full"]):
        first = workloads.instance_bands(spec, workloads.rng(5, workloads.MATRIX, 3))[3]
        again = workloads.instance_bands(spec, workloads.rng(5, workloads.MATRIX, 3))[3]
        other = workloads.instance_bands(spec, workloads.rng(6, workloads.MATRIX, 3))[3]
        assert np.array_equal(first, again) and not np.array_equal(first, other)
    spec = TINY["generator_io"]
    assert workloads.batch_positions(workloads.rng(5), spec) == workloads.batch_positions(workloads.rng(5), spec)
    assert workloads.batch_positions(workloads.rng(5), spec) != workloads.batch_positions(workloads.rng(6), spec)


@pytest.mark.parametrize("r_lower, r_upper", [(3, 3), (3, 0), (2, 11)])
def test_band_array_is_a_valid_band(r_lower, r_upper):
    n = 12
    bands = workloads.band_array(n, r_lower, r_upper, workloads.rng(0), r_lower)
    assert bands.shape == (r_lower + r_upper + 1, n)
    a = greenband.BandedMatrix(n, r_lower, r_upper, bands)
    # from_dense rejects entries outside the band and zero-fills the corners
    assert greenband.BandedMatrix.from_dense(a.to_dense(), r_lower, r_upper) == a


def test_entry_steps_and_positions():
    g = workloads.rng(1)
    n, r = 50, 4
    for i, j in workloads.covered_positions(g, n, r, workloads.check_distances(n, r)):
        assert j - i <= r - 1 and workloads.entry_steps(n, r, i, j) == i - j + r - 1


def test_self_time_excludes_children():
    t = Tracer()
    with t.span("outer", 0):
        with t.span("inner", 0):
            pass
    outer, inner = t.self_times()
    assert t.spans[1][3] == 0
    assert outer == pytest.approx((t.spans[0][2] - t.spans[0][1]) - (t.spans[1][2] - t.spans[1][1]))
    assert inner == pytest.approx(t.spans[1][2] - t.spans[1][1])


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["perfbench/run.py", "--workload", "narrow_band", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
