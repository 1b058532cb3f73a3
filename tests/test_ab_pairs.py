"""The summary of tools/ab_pairs.py on canned run results; no benchmark runs."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def line(workload, seed, side, failed=0, **metrics):
    # the last line of a perfbench run
    result = {"correct": True, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v, "unit": "ratio"} for k, v in metrics.items()}}
    return json.dumps({"workload": workload, "seed": seed, "side": side, "result": result})


def lines_of(parent, change, metric="round_cal_p50", workload="generator_io", seeds=None):
    seeds = seeds or range(len(parent))
    return [line(workload, s, side, **{metric: v})
            for s, p, c in zip(seeds, parent, change) for side, v in (("parent", p), ("change", c))]


def only_row(lines, better=None, bound=None):
    (row,) = ab_pairs.summarize(lines, better, bound)
    return row


PARENT = [28.5, 28.9, 29.3, 29.0, 28.7, 29.1, 28.6, 29.4, 28.8, 29.2]


def test_nine_wins_and_a_gap_past_the_quartiles_hold():
    change = [25.2, 25.3, 25.4, 25.6, 25.1, 25.5, 25.2, 25.3, 29.0, 25.4]  # loses seed 8
    row = only_row(lines_of(PARENT, change))
    assert (row["wins"], row["pairs"], row["claim"]) == (9, 10, True)
    assert row["parent"] == pytest.approx((28.725, 28.95, 29.175))
    assert row["change"][1] == pytest.approx(25.35)


def test_eight_wins_do_not_hold():
    change = [25.2, 25.3, 25.4, 25.6, 25.1, 25.5, 25.2, 30.0, 29.0, 25.4]
    row = only_row(lines_of(PARENT, change))
    assert (row["wins"], row["claim"]) == (8, False)


def test_every_pair_won_inside_the_quartiles_does_not_hold():
    # the parent's quartile distance is 0.45; every pair won by 0.1
    row = only_row(lines_of(PARENT, [p - 0.1 for p in PARENT]))
    assert (row["wins"], row["claim"]) == (10, False)


def test_ties_count_for_neither_side():
    row = only_row(lines_of(PARENT, PARENT))
    assert (row["wins"], row["claim"]) == (0, False)


def test_a_higher_is_better_metric_wins_upward():
    change = [p + 5.0 for p in PARENT]
    assert only_row(lines_of(PARENT, change, "qr.gflops"), {"qr.gflops": "higher"})["claim"]
    assert only_row(lines_of(PARENT, change, "qr.gflops"))["wins"] == 0


def test_unpaired_runs_are_left_out_and_failed_ops_summed():
    lines = lines_of(PARENT[:3], PARENT[:3])
    lines[1] = line("generator_io", 0, "change", failed=2, round_cal_p50=28.5)
    lines.append(line("generator_io", 99, "parent", round_cal_p50=1.0))
    row = only_row(lines)
    assert row["pairs"] == 3 and row["failed"] == {"parent": [0, 30], "change": [2, 30]}
    # a second run of seed 0's change side would count twice: an error
    lines.append(line("generator_io", 0, "change", round_cal_p50=28.5))
    with pytest.raises(ValueError, match=r"run \('generator_io', 0, 'change'\) appears twice"):
        ab_pairs.summarize(lines)


def test_paired_ratios_are_reported_but_judge_nothing():
    # two host modes: the parent's quartiles span both, so no gain holds,
    # yet every pair's ratio is 0.94 or 0.95, and the summary shows them
    parent = [2.40, 2.45, 2.75, 2.42, 2.78, 2.44, 2.72, 2.48, 2.80, 2.46]
    change = [round(p * (0.94 if k % 2 else 0.95), 6) for k, p in enumerate(parent)]
    row = only_row(lines_of(parent, change), bound=BOUND)
    assert row["ratio"] == pytest.approx((0.94, 0.945, 0.95))
    assert (row["wins"], row["claim"], row["verdict"]) == (10, False, "in bound")
    assert "0.9450 [0.9400, 0.9500]" in ab_pairs.report([row])
    # a parent value of zero leaves its pair out of the ratios, and with
    # no ratio left the column reads "-"
    assert only_row(lines_of([0.0, 2.0], [1.0, 3.0]))["ratio"] == (1.5, 1.5, 1.5)
    zero = only_row(lines_of([0.0, 0.0], [1.0, 3.0]))
    assert zero["ratio"] is None and " - " in ab_pairs.report([zero])


def test_workloads_and_metrics_have_rows_of_their_own():
    lines = [line(w, s, side, round_cal_p50=1.0 + s, setup_s=0.01)
             for w in ("narrow_band", "generator_io") for s in range(2) for side in ("parent", "change")]
    rows = ab_pairs.summarize(lines)
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("generator_io", "round_cal_p50"), ("generator_io", "setup_s"),
        ("narrow_band", "round_cal_p50"), ("narrow_band", "setup_s"),
    ]
    assert "generator_io" in ab_pairs.report(rows)


BOUND = {"round_cal_p50": 0.25, "setup_s": 0.25, "qr.gflops": 0.25}
# two modes, as setup_s shows: quartiles 9.575 and 13.95 about a median of
# 10.1, a distance past a quarter of the median
BIMODAL = [9.0, 9.5, 10.0, 14.0, 15.0, 9.2, 14.5, 9.8, 13.8, 10.2]


def test_the_bound_in_the_benchmark_file_is_read_for_end_to_end_metrics_only():
    assert ab_pairs.bounds(ROOT / "BENCHMARK.json") == {"setup_s": 0.25, "peak_rss_mb": 0.05, "round_cal_p50": 0.25}


def test_a_median_worse_by_more_than_the_bound_is_worse():
    row = only_row(lines_of(PARENT, [1.3 * p for p in PARENT]), bound=BOUND)
    assert row["verdict"] == "worse"
    # worse even where the parent's quartiles are too far apart to resolve
    assert only_row(lines_of(BIMODAL, [1.3 * p for p in BIMODAL], "setup_s"), bound=BOUND)["verdict"] == "worse"


def test_a_median_worse_within_the_bound_is_in_bound():
    row = only_row(lines_of(PARENT, [1.2 * p for p in PARENT]), bound=BOUND)
    assert (row["wins"], row["verdict"]) == (0, "in bound")


def test_quartiles_wider_than_the_bound_leave_it_unresolved():
    assert only_row(lines_of(BIMODAL, BIMODAL, "setup_s"), bound=BOUND)["verdict"] == "unresolved"
    # a change better than the parent in the median is unresolved too
    change = [0.9 * p for p in BIMODAL]
    assert only_row(lines_of(BIMODAL, change, "setup_s"), bound=BOUND)["verdict"] == "unresolved"


def test_every_change_run_beating_every_parent_run_is_in_bound():
    change = [p - 6.5 for p in BIMODAL]  # the largest, 8.5, below the parent's least, 9.0
    assert only_row(lines_of(BIMODAL, change, "setup_s"), bound=BOUND)["verdict"] == "in bound"


def test_a_higher_is_better_metric_is_worse_downward():
    better = {"qr.gflops": "higher"}
    down = only_row(lines_of(PARENT, [0.7 * p for p in PARENT], "qr.gflops"), better, BOUND)
    up = only_row(lines_of(PARENT, [1.3 * p for p in PARENT], "qr.gflops"), better, BOUND)
    assert (down["verdict"], up["verdict"]) == ("worse", "in bound")


def test_a_metric_without_a_bound_gets_no_verdict():
    rows = ab_pairs.summarize(lines_of(PARENT, [2.0 * p for p in PARENT], "lu.invert_s"), bound=BOUND)
    assert rows[0]["verdict"] is None
    text = ab_pairs.report(rows + ab_pairs.summarize(lines_of(PARENT, PARENT), bound=BOUND))
    assert "in bound" in text and " - " in text


def test_saved_runs_of_two_sessions_are_summarized_together(tmp_path, capsys):
    # each file as the script prints it: the run lines, then the summary
    first, second = lines_of(PARENT[:5], PARENT[:5]), lines_of(PARENT[5:], PARENT[5:], seeds=range(5, 10))
    paths = [tmp_path / "first.txt", tmp_path / "second.txt"]
    for path, lines in zip(paths, (first, second)):
        path.write_text("\n".join(lines + [ab_pairs.report(ab_pairs.summarize(lines))]) + "\n")
    assert ab_pairs.saved_lines(paths) == first + second
    assert ab_pairs.main(["--saved", *map(str, paths)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and " 0/10 " in out[1]
    assert out[1].split()[:2] == ["generator_io", "round_cal_p50"] and "in bound" in out[1]


def test_a_run_saved_twice_is_an_error(tmp_path):
    lines = lines_of(PARENT[:3], PARENT[:3])
    paths = [tmp_path / "first.txt", tmp_path / "again.txt"]
    paths[0].write_text("\n".join(lines) + "\n")
    paths[1].write_text(lines[4] + "\n")  # seed 2, parent side, once more
    with pytest.raises(ValueError, match=r"again.txt:1: run \('generator_io', 2, 'parent'\) also at .*first.txt:5"):
        ab_pairs.saved_lines(paths)
    with pytest.raises(SystemExit) as info:
        ab_pairs.main(["--saved", *map(str, paths)])
    assert info.value.code == 2
