"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload {long,scan,verify} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
The workload runs in one fresh process (``workload.py``).  With
``--trace 0`` the result holds the end-to-end metrics: ``setup_s`` is the
median over the fresh interpreters that process times between its cycles,
each from spawn until the workload's first inputs are built and it has
exited, spread evenly over the run so that they sample the machine when the
operations do.  With ``--trace 1`` the process runs traced and the result
holds the per-layer metrics instead; the spans go to ``perfbench/out/``.

Every child runs with single-threaded BLAS, so a run uses at most as many
compute threads as ``run_experiment`` has workers (the usable cores).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long", "scan", "verify")
RUN_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(args) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("the workload run timed out")
    if proc.returncode != 0:
        raise BenchError(f"workload exited with {proc.returncode}: {err.decode()[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mboxsim benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mboxsim" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'mboxsim'} is missing",
              file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    try:
        summary = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = summary.pop("layers")
    else:
        metrics = {
            "setup_s": {"value": summary["setup_s"], "unit": "s"},
            "rounds_per_s": {"value": summary["rounds_per_s"], "unit": "1/s"},
            "op_ms_p50": {"value": summary["op_ms_p50"], "unit": "ms"},
            "op_ms_p90": {"value": summary["op_ms_p90"], "unit": "ms"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({k: v for k, v in summary.items()
                      if k not in ("attempted", "failed", "correct")}), file=sys.stderr)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
