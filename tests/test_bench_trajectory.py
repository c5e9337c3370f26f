import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).parents[1] / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)

END_TO_END = ["setup_s", "rounds_per_s", "peak_rss_mb"]


def _result(value, failed=0):
    metrics = {m: {"value": value, "unit": "u"} for m in END_TO_END}
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}


def _steady(values):
    return {"run_seconds": 35, "runs": {"long": [
        {**_result(v, failed=int(v == 9.0)), "seed": 101 + i} for i, v in enumerate(values)
    ]}}


def _traced(expand_ns):
    metrics = {"protocols.expand_ns_per_round": {"value": expand_ns, "unit": "ns"},
               "cli.validate_ms_per_op": {"value": 0.0, "unit": "ms"}}
    return {"correct": True, "attempted": 50, "failed": 0, "metrics": metrics}


def test_build_keeps_medians_quartiles_counts_and_layers():
    doc = bench_trajectory.build(
        _steady([4.0, 1.0, 3.0, 2.0, 9.0]), [("long", 1, _traced(100.0))], "0.0.1", "abc",
        ["rounds_per_s", "setup_s"],
    )
    long = doc["workloads"]["long"]
    # only the named end-to-end metrics are kept
    assert list(long["end_to_end"]) == ["rounds_per_s", "setup_s"]
    rate = long["end_to_end"]["rounds_per_s"]
    # statistics.quantiles(n=4), exclusive method: 1.5 and 6.5 for 1, 2, 3, 4, 9
    assert (rate["median"], rate["q1"], rate["q3"]) == (3.0, 1.5, 6.5)
    assert rate["values"] == [4.0, 1.0, 3.0, 2.0, 9.0]
    assert (long["attempted"], long["failed"], long["all_correct"]) == (500, 1, False)
    assert long["seeds"] == [101, 102, 103, 104, 105]
    assert long["traced"]["seed"] == 1
    assert long["traced"]["per_layer"]["protocols.expand_ns_per_round"] == 100.0
    assert (doc["version"], doc["git_head"]) == ("0.0.1", "abc")
    assert doc["host"]["nproc"] >= 1
    assert set(doc["known_misreadings"]) == {
        "cli.validate_ms_per_op", "runtime.unexited_threads_per_op",
        "protocols.directions_ns_per_round", "geometry.complete_ns_per_round",
        "runtime.chunk_calls",
    }


def test_end_to_end_names_come_from_the_checkouts_benchmark(tmp_path):
    bench = {"end_to_end": [{"name": "rounds_per_s", "better": "higher"},
                            {"name": "op_ms_p50", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    assert bench_trajectory._end_to_end_names(tmp_path) == ["rounds_per_s", "op_ms_p50"]


def test_delta_is_new_over_old_and_marks_misreadings():
    old = bench_trajectory.build(
        _steady([2.0] * 4), [("long", 1, _traced(100.0))], "0", "a", ["rounds_per_s", "setup_s"]
    )
    new = bench_trajectory.build(
        _steady([3.0] * 4), [("long", 1, _traced(40.0))], "1", "b", ["peak_rss_mb", "rounds_per_s"]
    )
    lines = {line.split()[1]: line for line in bench_trajectory.delta(old, new)}
    # an end-to-end metric only one of the files holds is not compared
    assert "setup_s" not in lines and "peak_rss_mb" not in lines
    assert lines["rounds_per_s"].endswith("1.500x")
    assert lines["protocols.expand_ns_per_round"].endswith("0.400x")
    assert "n/a" in lines["cli.validate_ms_per_op"] and "known misreading" in lines["cli.validate_ms_per_op"]

