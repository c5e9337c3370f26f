"""Run the benchmark as interleaved pairs of two trees, and compare the sides.

    python3 tools/bench_pairs.py run --a HEAD~1 --b HEAD --workload long \\
        --pairs 10 --first-seed 101 --workdir /tmp/pairs --out /tmp/pairs/long
    python3 tools/bench_pairs.py report /tmp/pairs/long.a.json /tmp/pairs/long.b.json

``run`` first refuses a ``--pairs`` below 2 (a workload pairs at least two
seeds) and an ``--out`` whose directory neither exists nor is ``--workdir``.
It makes ``--workdir``, which must not exist yet, and extracts each revision
with ``git archive`` into its own directory under it (``a/`` and ``b/``, so
a revision against itself is an A/A control from two copies).
Both trees' BENCHMARK.json must declare the same ``command``,
``run_seconds``, ``end_to_end`` metrics and workload names; ``run``
refuses trees that differ.  It runs that command for ``run_seconds`` with
``--trace 0``, once per seed, side and workload (all of them, or those
named by ``--workload``), back to back, each side in its own tree.
Side a runs first at even pair numbers and side b at odd ones, so a bias
towards the side that runs first or second shows as a split in the wins.
Each side's runs go to ``OUT.a.json`` and ``OUT.b.json`` in the format
``perfbench/steady.py run`` writes (``tools/bench_trajectory.py build
--steady`` reads it), and each run also records ``ran_first``.  The files
are rewritten after every run, so a stopped set keeps what it measured.

``report`` pairs the two files' runs by workload and seed and prints, per
workload and end-to-end metric: each side's median and quartiles (from
``perfbench/steady.py``'s ``spread``), the ratio of b's median to a's, in
how many pairs b was better (by the metric's direction in BENCHMARK.json),
split by which side ran first, and the distance between the medians over
a's quartile distance.  It ends with ``resolved`` when b was better in at
least nine tenths of the pairs (ties count for neither side) and that
distance is above 1, the two things a claimed gain must show, and with
``unresolved`` otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from steady import spread  # noqa: E402

RUN_TIMEOUT_S = 400
# What must be the same in both trees' BENCHMARK.json for their runs to pair.
SHARED_KEYS = ("command", "run_seconds", "end_to_end")


def schedule(pairs: int, first_seed: int) -> list[tuple[int, tuple[str, str]]]:
    """(seed, run order) per pair: side a first at even pair numbers."""
    return [(first_seed + i, ("a", "b") if i % 2 == 0 else ("b", "a")) for i in range(pairs)]


def compare_metric(a_runs: list, b_runs: list, metric: str, better: str) -> dict:
    """One metric over runs paired by seed (both lists in the same seed order)."""
    a = [r["metrics"][metric]["value"] for r in a_runs]
    b = [r["metrics"][metric]["value"] for r in b_runs]
    sign = 1 if better == "higher" else -1
    wins = [sign * (y - x) > 0 for x, y in zip(a, b)]
    b_first = [r["ran_first"] for r in b_runs]
    med_a, q1_a, q3_a, _ = spread(a)
    med_b, q1_b, q3_b, _ = spread(b)
    iqr_a = q3_a - q1_a
    gap = abs(med_b - med_a)
    return {
        "a": (med_a, q1_a, q3_a),
        "b": (med_b, q1_b, q3_b),
        "ratio": med_b / med_a if med_a else float("nan"),
        "wins": sum(wins),
        "pairs": len(wins),
        "wins_b_first": sum(w for w, f in zip(wins, b_first) if f),
        "pairs_b_first": sum(b_first),
        "gap_over_iqr": gap / iqr_a if iqr_a else float("inf") if gap else 0.0,
        "resolved": 10 * sum(wins) >= 9 * len(wins) and gap > iqr_a,
    }


def paired(a_doc: dict, b_doc: dict) -> dict:
    """{workload: (a runs, b runs)} over the seeds both sides ran, in seed order."""
    out = {}
    for workload, a_runs in a_doc["runs"].items():
        b_by_seed = {r["seed"]: r for r in b_doc["runs"].get(workload, [])}
        a_by_seed = {r["seed"]: r for r in a_runs}
        seeds = sorted(set(a_by_seed) & set(b_by_seed))
        if len(seeds) >= 2:
            out[workload] = ([a_by_seed[s] for s in seeds], [b_by_seed[s] for s in seeds])
    return out


def report_lines(a_doc: dict, b_doc: dict, end_to_end: list) -> list[str]:
    lines = []
    for workload, (a_runs, b_runs) in paired(a_doc, b_doc).items():
        failed = [(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)) for runs in (a_runs, b_runs)]
        correct = all(r["correct"] for r in a_runs + b_runs)
        lines.append(f"{workload}: {len(a_runs)} pairs, failed a {failed[0][0]}/{failed[0][1]} "
                     f"b {failed[1][0]}/{failed[1][1]}, all correct: {correct}")
        for m in end_to_end:
            c = compare_metric(a_runs, b_runs, m["name"], m["better"])
            lines.append(
                f"  {m['name']:12s} a {c['a'][0]:11.5g} [{c['a'][1]:.5g}, {c['a'][2]:.5g}]"
                f"  b {c['b'][0]:11.5g} [{c['b'][1]:.5g}, {c['b'][2]:.5g}]"
                f"  x{c['ratio']:.3f}  b better {c['wins']}/{c['pairs']}"
                f" (b first {c['wins_b_first']}/{c['pairs_b_first']})"
                f"  gap/IQR_a {c['gap_over_iqr']:.2f}"
                f"  {'resolved' if c['resolved'] else 'unresolved'}"
            )
    return lines


def shared_benchmark(a_bench: dict, b_bench: dict) -> dict:
    """The benchmark both trees declare, or ValueError naming what differs."""
    names = [[w["name"] for w in bench["workloads"]] for bench in (a_bench, b_bench)]
    differ = [k for k in SHARED_KEYS if a_bench[k] != b_bench[k]]
    differ += ["workloads"] if names[0] != names[1] else []
    if differ:
        raise ValueError(f"the two trees' BENCHMARK.json differ in {', '.join(differ)}")
    return a_bench


def _extract(checkout: Path, rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(checkout), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # filter= exists from Python 3.10.12 and 3.11.4 on; the archive
        # comes from the local checkout either way.
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def _run_once(bench: dict, tree: Path, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_run(args) -> int:
    workdir = Path(args.workdir)
    # Refuse what would fail only after the first run, or print an empty report.
    if args.pairs < 2:
        raise SystemExit(f"--pairs must be at least 2 to pair seeds, got {args.pairs}")
    out_dir = Path(args.out).parent
    if not (out_dir.is_dir() or out_dir.resolve() == workdir.resolve()):
        raise SystemExit(f"--out's directory does not exist: {out_dir}")
    workdir.mkdir(parents=True)
    trees = {"a": workdir / "a", "b": workdir / "b"}
    for side, rev in (("a", args.a), ("b", args.b)):
        _extract(Path(args.checkout), rev, trees[side])
    bench = shared_benchmark(*(json.loads((trees[s] / "BENCHMARK.json").read_text()) for s in "ab"))
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        raise SystemExit(f"not a workload of the benchmark: {', '.join(unknown)}")
    docs = {side: {"run_seconds": bench["run_seconds"], "rev": rev, "runs": {w: [] for w in workloads}}
            for side, rev in (("a", args.a), ("b", args.b))}
    for seed, order in schedule(args.pairs, args.first_seed):
        for workload in workloads:
            for side in order:
                result = _run_once(bench, trees[side], workload, seed)
                result["seed"] = seed
                result["ran_first"] = side == order[0]
                docs[side]["runs"][workload].append(result)
                Path(f"{args.out}.{side}.json").write_text(json.dumps(docs[side], indent=1) + "\n")
                metrics = "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"{workload:7s} seed {seed:4d} {side}  failed {result['failed']}/"
                      f"{result['attempted']}  {metrics}", flush=True)
    print("\n".join(report_lines(docs["a"], docs["b"], bench["end_to_end"])))
    return 0


def cmd_report(args) -> int:
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in (args.a_file, args.b_file))
    bench = json.loads(Path(args.benchmark).read_text())
    print("\n".join(report_lines(a_doc, b_doc, bench["end_to_end"])))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run interleaved pairs of two revisions")
    run.add_argument("--a", required=True, help="revision of side a (the parent)")
    run.add_argument("--b", required=True, help="revision of side b (the change)")
    run.add_argument("--checkout", default=str(ROOT), help="the git checkout to archive from")
    run.add_argument("--workload", action="append",
                     help="a workload of the benchmark (repeatable; default: all of them)")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=101)
    run.add_argument("--workdir", required=True, help="a new directory for the two trees")
    run.add_argument("--out", required=True, help="prefix of the two result files")
    run.set_defaults(func=cmd_run)
    rep = sub.add_parser("report", help="compare the two sides of a run")
    rep.add_argument("a_file")
    rep.add_argument("b_file")
    rep.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    rep.set_defaults(func=cmd_report)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
