import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(values, first_seed=101, b_side=False):
    # b ran first at odd pair numbers, as schedule() orders them
    return [
        {"seed": first_seed + i, "ran_first": (i % 2 == 1) == b_side, "correct": True,
         "attempted": 10, "failed": 0, "metrics": {"rounds_per_s": {"value": v, "unit": "1/s"}}}
        for i, v in enumerate(values)
    ]


def test_schedule_alternates_which_side_runs_first():
    assert bench_pairs.schedule(4, 7) == [
        (7, ("a", "b")), (8, ("b", "a")), (9, ("a", "b")), (10, ("b", "a")),
    ]


def test_compare_metric_counts_wins_by_direction_and_order():
    a = _runs([1.0, 2.0, 3.0, 4.0, 9.0])
    b = _runs([2.0, 3.0, 2.0, 5.0, 10.0], b_side=True)
    higher = bench_pairs.compare_metric(a, b, "rounds_per_s", "higher")
    # statistics.quantiles(n=4), exclusive method: 1.5 and 6.5 for 1, 2, 3, 4, 9
    assert higher["a"] == (3.0, 1.5, 6.5)
    assert higher["b"] == (3.0, 2.0, 7.5)
    assert higher["ratio"] == 1.0
    assert (higher["wins"], higher["pairs"]) == (4, 5)
    # b ran first in pairs 1 and 3 (seeds 102, 104): a win, then a win
    assert (higher["wins_b_first"], higher["pairs_b_first"]) == (2, 2)
    assert higher["gap_over_iqr"] == 0.0
    lower = bench_pairs.compare_metric(a, b, "rounds_per_s", "lower")
    assert (lower["wins"], lower["wins_b_first"]) == (1, 0)


def test_gap_is_measured_in_a_quartile_distances():
    a = _runs([10.0, 11.0, 12.0, 13.0])
    b = _runs([20.0, 20.0, 21.0, 21.0], b_side=True)
    c = bench_pairs.compare_metric(a, b, "rounds_per_s", "higher")
    # a: median 11.5, quartiles 10.25 and 12.75; b: median 20.5
    assert c["gap_over_iqr"] == (20.5 - 11.5) / 2.5
    assert c["ratio"] == 20.5 / 11.5
    assert c["wins"] == 4


def test_resolved_needs_nine_tenths_of_the_pairs_and_a_gap_above_a_quartile_distance():
    a_values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    a = _runs(a_values)
    # a's quartiles are 11.75 and 17.25 (IQR 5.5), its median 14.5

    def resolved(b_values):
        return bench_pairs.compare_metric(a, _runs(b_values, b_side=True), "rounds_per_s", "higher")

    nine_far = resolved([v + 8.0 for v in a_values[:9]] + [a_values[9]])  # a tie in pair 10
    assert (nine_far["wins"], nine_far["gap_over_iqr"] > 1.0) == (9, True)
    assert nine_far["resolved"]
    eight_far = resolved([v + 8.0 for v in a_values[:8]] + [5.0, 5.0])
    assert eight_far["wins"] == 8 and eight_far["gap_over_iqr"] > 1.0
    assert not eight_far["resolved"]
    ten_near = resolved([v + 1.0 for v in a_values])  # gap 1.0 of 5.5
    assert ten_near["wins"] == 10 and not ten_near["resolved"]
    # a gain in the other direction is not resolved for this metric
    assert not bench_pairs.compare_metric(a, _runs([v + 8.0 for v in a_values], b_side=True), "rounds_per_s", "lower")["resolved"]
    lines = bench_pairs.report_lines(
        {"runs": {"verify": a}}, {"runs": {"verify": _runs([v + 8.0 for v in a_values], b_side=True)}},
        [{"name": "rounds_per_s", "better": "higher"}],
    )
    assert lines[1].endswith("  resolved")
    lines = bench_pairs.report_lines(
        {"runs": {"verify": a}}, {"runs": {"verify": _runs([v + 1.0 for v in a_values], b_side=True)}},
        [{"name": "rounds_per_s", "better": "higher"}],
    )
    assert lines[1].endswith("  unresolved")


def test_runs_pair_by_seed_over_the_seeds_both_sides_ran():
    a_doc = {"runs": {"long": _runs([1.0, 2.0, 3.0])}}
    b_doc = {"runs": {"long": list(reversed(_runs([5.0, 6.0], first_seed=102, b_side=True)))}}
    pairs = bench_pairs.paired(a_doc, b_doc)
    a_runs, b_runs = pairs["long"]
    assert [r["seed"] for r in a_runs] == [r["seed"] for r in b_runs] == [102, 103]
    assert [r["metrics"]["rounds_per_s"]["value"] for r in a_runs] == [2.0, 3.0]
    lines = bench_pairs.report_lines(
        a_doc, b_doc, [{"name": "rounds_per_s", "better": "higher"}]
    )
    assert lines[0].startswith("long: 2 pairs, failed a 0/20 b 0/20, all correct: True")
    assert "b better 2/2" in lines[1]


def test_both_trees_must_declare_the_same_benchmark():
    bench = {"command": ["python3", "perfbench/run.py"], "run_seconds": 35,
             "workloads": [{"name": "long", "why": "x"}, {"name": "scan", "why": "y"}],
             "end_to_end": [{"name": "rounds_per_s", "better": "higher", "bound": 0.25}]}
    reworded = dict(bench, workloads=[{"name": "long", "why": "z"}, {"name": "scan", "why": "y"}])
    assert bench_pairs.shared_benchmark(bench, reworded) is bench
    shorter = dict(bench, run_seconds=15)
    with pytest.raises(ValueError, match="run_seconds"):
        bench_pairs.shared_benchmark(bench, shorter)
    fewer = dict(bench, workloads=bench["workloads"][:1])
    with pytest.raises(ValueError, match="workloads"):
        bench_pairs.shared_benchmark(bench, fewer)


def test_run_refuses_a_workdir_that_exists(tmp_path):
    # a tree left from an earlier set would be run under the new revision's name
    (tmp_path / "a").mkdir()
    with pytest.raises(FileExistsError):
        bench_pairs.main(["run", "--a", "HEAD", "--b", "HEAD", "--workdir", str(tmp_path),
                          "--out", str(tmp_path / "out")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]


@pytest.fixture
def nothing_runs(monkeypatch):
    # a refused set extracts no tree and spends no run time
    def fail(*args, **kwargs):
        raise AssertionError("a refused set extracted or ran something")

    monkeypatch.setattr(bench_pairs, "_extract", fail)
    monkeypatch.setattr(bench_pairs, "_run_once", fail)


def test_run_refuses_an_out_directory_that_does_not_exist(tmp_path, nothing_runs):
    workdir = tmp_path / "w"
    with pytest.raises(SystemExit, match="does not exist"):
        bench_pairs.main(["run", "--a", "HEAD", "--b", "HEAD", "--workdir", str(workdir),
                          "--out", str(tmp_path / "missing" / "long")])
    assert not workdir.exists()


def test_run_refuses_fewer_than_two_pairs(tmp_path, nothing_runs):
    workdir = tmp_path / "w"
    with pytest.raises(SystemExit, match="--pairs"):
        bench_pairs.main(["run", "--a", "HEAD", "--b", "HEAD", "--pairs", "1",
                          "--workdir", str(workdir), "--out", str(tmp_path / "long")])
    assert not workdir.exists()


def test_run_accepts_an_out_prefix_inside_the_workdir_it_makes(tmp_path, monkeypatch):
    # the module docstring's example puts --out under --workdir
    class Extracted(Exception):
        pass

    def extract(checkout, rev, dest):
        raise Extracted

    monkeypatch.setattr(bench_pairs, "_extract", extract)
    workdir = tmp_path / "w"
    with pytest.raises(Extracted):
        bench_pairs.main(["run", "--a", "HEAD", "--b", "HEAD", "--workdir", str(workdir),
                          "--out", str(workdir / "long")])
    assert workdir.is_dir()
