"""Steadiness of the benchmark: repeated runs, quartiles, and two-set comparison.

    python3 perfbench/steady.py run --first-seed 101 --out perfbench/out/set-a.json
    python3 perfbench/steady.py run --first-seed 201 --out perfbench/out/set-b.json
    python3 perfbench/steady.py compare perfbench/out/set-a.json perfbench/out/set-b.json

``run`` invokes the command in BENCHMARK.json RUNS times per workload, with
seeds first-seed, first-seed + 1, ..., untraced, for ``run_seconds``; the
workloads are interleaved so that drift of the machine spreads over all of
them.  It prints each end-to-end metric's median, first and third quartile
(``statistics.quantiles(values, n=4)``) and spread, the quartile distance
as a share of the median, next to the metric's bound.

``compare`` checks two such sets the way a regression gate would: every
spread within its bound, every second median no worse than the first by
more than the bound, and the same share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: list) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_run(args) -> int:
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    runs = {w["name"]: [] for w in bench["workloads"]}
    for i in range(RUNS):
        seed = args.first_seed + i
        for w in runs:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = wall
            runs[w].append(result)
            m = result["metrics"]
            print(f"{w:7s} seed {seed:4d}  {wall:5.1f}s  attempted {result['attempted']:4d} "
                  f"failed {result['failed']}  correct {result['correct']}  "
                  + "  ".join(f"{k}={v['value']:.6g}" for k, v in m.items()), flush=True)
    doc = {"run_seconds": seconds, "runs": runs}
    Path(args.out).write_text(json.dumps(doc, indent=1))
    report(doc, bench)
    return 0


def report(doc: dict, bench: dict) -> None:
    for w, results in doc["runs"].items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{w}: {len(results)} runs, failed {failed}/{attempted}, "
              f"all correct: {all(r['correct'] for r in results)}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            flag = "ok" if sp <= metric["bound"] / 3 else ("WITHIN BOUND" if sp <= metric["bound"] else "OVER BOUND")
            print(f"  {metric['name']:12s} median {med:12.6g} {metric['unit']:4s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {sp:6.2%} bound {metric['bound']:.0%}  {flag}")


def cmd_compare(args) -> int:
    bench = load_benchmark()
    a = json.loads(Path(args.first).read_text())["runs"]
    b = json.loads(Path(args.second).read_text())["runs"]
    ok = True
    for w in a:
        if w not in b:
            continue
        share_a = sum(r["failed"] for r in a[w]) / sum(r["attempted"] for r in a[w])
        share_b = sum(r["failed"] for r in b[w]) / sum(r["attempted"] for r in b[w])
        same = share_a == share_b
        ok &= same
        print(f"\n{w}: failed share {share_a:.6f} vs {share_b:.6f} {'ok' if same else 'DIFFERENT'}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ma, _, _, sa = spread([r["metrics"][name]["value"] for r in a[w]])
            mb, _, _, sb = spread([r["metrics"][name]["value"] for r in b[w]])
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            good = sa <= bound and sb <= bound and worse <= bound
            ok &= good
            print(f"  {name:12s} median {ma:12.6g} -> {mb:12.6g} worse by {worse:+7.2%} "
                  f"spreads {sa:6.2%} {sb:6.2%} bound {bound:.0%}  {'ok' if good else 'FAIL'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run each workload repeatedly and summarise")
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)
    cmp_ = sub.add_parser("compare", help="compare two sets against the bounds")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    cmp_.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
