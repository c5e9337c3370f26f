"""Build a BENCH_<version>.json trajectory file from benchmark output, or compare two.

    python3 perfbench/steady.py run --first-seed 101 --out steady.json
    python3 perfbench/run.py --workload long --seed 1 --seconds 35 --trace 1 > traced-long.json
    ... (the same for scan and verify)
    python3 tools/bench_trajectory.py build --checkout . --steady steady.json \\
        --traced long 1 traced-long.json --traced scan 1 traced-scan.json \\
        --traced verify 1 traced-verify.json --out BENCH_0.13.0.json
    python3 tools/bench_trajectory.py delta BENCH_0.12.0.json BENCH_0.13.0.json

``build`` only reads what the benchmark printed: the JSON document that
``steady.py run`` writes (untraced runs per workload) and the last stdout
line of one traced ``run.py`` run per workload.  Per workload it keeps each
end-to-end metric that the checkout's BENCHMARK.json names, with its
values, median and quartiles (``statistics.quantiles(values, n=4)``, as
steady.py reports them), the attempted and failed operation counts, and
the traced run's per-layer metrics.  It adds the host (usable cores, CPU model, numpy version), the
checkout's git HEAD and package version, and the per-layer metrics known to
misread at this benchmark, each with the reason.  Run it on the host that
made the runs.

``delta`` prints, per workload, each end-to-end median and each per-layer
value that both files hold, the second file's as a ratio to the first's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

# Per-layer metrics that the benchmark at this version is known to misread.
KNOWN_MISREADINGS = {
    "cli.validate_ms_per_op": (
        "reads 0: the tracer wraps cli.jsonschema.validate, which the CLI has "
        "not called since 0.6.0 (it validates through cli._report_validator)"
    ),
    "runtime.unexited_threads_per_op": (
        "counts the kept run_experiment pool's live threads as still exiting; "
        "since 0.12.0 the pool lives for the process and no thread exits"
    ),
    "protocols.directions_ns_per_round": (
        "divides by direction-table rows (one table of 2 x 2^k rows per batch), "
        "not by sampled rounds"
    ),
    "geometry.complete_ns_per_round": (
        "divides by direction-table rows (one table of 2 x 2^k rows per batch), "
        "not by sampled rounds"
    ),
    "runtime.chunk_calls": (
        "counts round_uniform_block calls, and since 0.15.0 each draws one "
        "16 384-row sub-block, so a full 65 536-row chunk counts about four "
        "(BENCH_0.16.0.json reads 32.0 per long operation of about 8 chunks)"
    ),
}


def _quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor()
    found = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    return found.group(1) if found else platform.processor()


def _package_version(checkout: Path) -> str:
    text = (checkout / "src" / "mboxsim" / "__init__.py").read_text()
    return re.search(r'^__version__ = "([^"]+)"$', text, re.M).group(1)


def _end_to_end_names(checkout: Path) -> list[str]:
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["end_to_end"]]


def build(steady: dict, traced: list, version: str, git_head: str, end_to_end: list) -> dict:
    """The trajectory document; traced is a list of (workload, seed, result),
    end_to_end the names of the end-to-end metrics to keep."""
    workloads = {}
    for name, runs in steady["runs"].items():
        workloads[name] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "end_to_end": {
                m: {"unit": runs[0]["metrics"][m]["unit"],
                    **_quartiles([r["metrics"][m]["value"] for r in runs])}
                for m in end_to_end
            },
        }
    for name, seed, result in traced:
        workloads[name]["traced"] = {
            "seed": seed,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "correct": result["correct"],
            "per_layer": {m: v["value"] for m, v in result["metrics"].items()},
        }
    return {
        "version": version,
        "git_head": git_head,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "run_seconds": steady["run_seconds"],
        "known_misreadings": KNOWN_MISREADINGS,
        "workloads": workloads,
    }


def delta(old: dict, new: dict) -> list:
    """Lines 'workload metric old -> new (ratio)' for every metric in both files."""
    lines = []
    for name, w_new in new["workloads"].items():
        w_old = old["workloads"].get(name)
        if w_old is None:
            continue
        e2e_old = w_old["end_to_end"]
        pairs = [(m, e2e_old[m]["median"], e["median"])
                 for m, e in w_new["end_to_end"].items() if m in e2e_old]
        layers_old = w_old.get("traced", {}).get("per_layer", {})
        layers_new = w_new.get("traced", {}).get("per_layer", {})
        pairs += [(m, layers_old[m], v) for m, v in layers_new.items() if m in layers_old]
        for metric, a, b in pairs:
            ratio = f"{b / a:.3f}x" if a else "n/a"
            mark = "  (known misreading)" if metric in KNOWN_MISREADINGS else ""
            lines.append(f"{name:7s} {metric:36s} {a:14.6g} -> {b:14.6g}  {ratio}{mark}")
    return lines


def _last_json_line(path: str) -> dict:
    return json.loads(Path(path).read_text().strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build", help="write a trajectory file from benchmark output")
    b.add_argument("--checkout", default=".", help="the checkout the runs measured")
    b.add_argument("--steady", required=True, help="the document steady.py run wrote")
    b.add_argument("--traced", nargs=3, action="append", default=[],
                   metavar=("WORKLOAD", "SEED", "FILE"), help="one traced run.py run's stdout")
    b.add_argument("--out", required=True)
    d = sub.add_parser("delta", help="compare two trajectory files")
    d.add_argument("old")
    d.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "delta":
        old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
        print("\n".join(delta(old, new)))
        return 0
    traced = [(w, int(seed), _last_json_line(path)) for w, seed, path in args.traced]
    head = subprocess.run(["git", "-C", args.checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    checkout = Path(args.checkout)
    doc = build(json.loads(Path(args.steady).read_text()), traced,
                _package_version(checkout), head, _end_to_end_names(checkout))
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
