"""One benchmark workload, run in this fresh process; prints one JSON line.

    python3 perfbench/workload.py --workload long --seed 1 --seconds 35 --trace 0
    python3 perfbench/workload.py --workload scan --seed 1 --setup-only

``run.py`` starts this script; it is not meant to be started by hand.  With
``--setup-only`` it imports the program, builds the first cycle's inputs,
prints ``ready`` and exits, so that a run can time fresh starts.

A run attempts whole cycles of the workload's operations until the timed
operations have taken ``--seconds`` and at least MIN_OPS operations are done.
Each operation's output is checked outside its timed section (see
``checks.py``); the tracer, when on, is paused while checks run.  Between
cycles an untraced run also times SETUP_STARTS fresh starts, spread evenly
over its timed seconds; they do not count as operation time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import jsonschema  # noqa: E402

import mboxsim  # noqa: E402
import mboxsim.cli  # noqa: E402
from mboxsim import runtime, verify  # noqa: E402
from mboxsim.geometry import Completion, CompletionStrategy, sample_unit_sphere  # noqa: E402
from mboxsim.quantum import EntanglementParam  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

GAMMA = math.pi / 8
# Every p90 then has at least ten samples beyond it.
MIN_OPS = 100
# Stop starting cycles after this long, so a run ends well inside 180 s.
WALL_CAP_S = 120.0
# Fresh starts per untraced run; setup_s is their median.
SETUP_STARTS = 10
SETUP_TIMEOUT_S = 30
COMPLETIONS = tuple(c.value for c in Completion)
# Bound before a tracer swaps module attributes, so checks never run traced.
EXACT_MU_AVERAGE = verify.exact_mu_average


@dataclass
class Op:
    run: object  # () -> output
    check: object  # (output) -> checks.Verdict
    rounds: int


def _rng(seed: int, stream: int, k: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, k])


def _unit(rng: np.random.Generator) -> tuple:
    v = rng.standard_normal(3)
    return tuple(float(x) for x in v / np.linalg.norm(v))


def _strategy(completion: str) -> CompletionStrategy:
    return CompletionStrategy(Completion(completion))


class Long:
    """run_experiment reports at workers = usable cores, fresh settings per cycle.

    A cycle runs each of the seven configs once, at rounds of 1 to 7 CHUNKs
    per setting; the sizes rotate over the configs from cycle to cycle.
    """

    CONFIGS = tuple(("p1", c) for c in COMPLETIONS) + tuple(("p2", c) for c in COMPLETIONS) + (
        ("tb", "normalize"),
    )
    SETTINGS = 2
    SIZES = tuple(range(1, len(CONFIGS) + 1))  # rounds per setting, in CHUNKs

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir
        self.workers = len(os.sched_getaffinity(0))
        self.param = EntanglementParam(GAMMA)
        self.kept = None  # (config, report bytes, verdict) for the worker-count check

    def cycle(self, k: int) -> list:
        rng = _rng(self.seed, 1, k)
        ops = []
        for i, (protocol, completion) in enumerate(self.CONFIGS):
            rounds = runtime.CHUNK * self.SIZES[(i + k) % len(self.SIZES)]
            settings = tuple((_unit(rng), _unit(rng)) for _ in range(self.SETTINGS))
            config = runtime.ExperimentConfig(
                protocol=protocol, gamma=GAMMA, rounds=rounds,
                seed=int(rng.integers(2**63)), completion=completion,
                settings=settings, workers=self.workers,
            )
            keep = k == 0 and (protocol, completion) == ("p1", "ortho-sign")
            ops.append(Op(
                run=lambda config=config: runtime.run_experiment(config),
                check=lambda report, config=config, keep=keep: self._check(report, config, keep),
                rounds=rounds * self.SETTINGS,
            ))
        return ops

    def _check(self, report, config, keep: bool) -> checks.Verdict:
        spec = {
            "protocol": config.protocol, "gamma": config.gamma, "completion": config.completion,
            "rounds": config.rounds, "settings": config.settings,
        }
        payload = verify.report_to_json_dict(report)
        v = checks.check_report(payload, spec, EXACT_MU_AVERAGE, self.param, _strategy(config.completion))
        if keep:
            self.kept = (config, self._bytes(report, "long-workers-n.json"), v)
        return v

    def _bytes(self, report, name: str) -> bytes:
        path = self.outdir / name
        runtime.write_report(report, path)
        return path.read_bytes()

    def finish(self) -> None:
        """Outside the timed runs: one report at workers=1 equals the kept one.

        A difference fails the operation that produced the kept report.
        """
        if self.kept is None:  # that operation raised, and already counts as failed
            return
        config, kept, verdict = self.kept
        one = runtime.run_experiment(runtime.ExperimentConfig(**{**config.__dict__, "workers": 1}))
        verdict.exact(self._bytes(one, "long-workers-1.json") == kept,
                      f"report bytes differ between 1 and {self.workers} workers")


class Scan:
    """In-process `mboxsim simulate` on seeded settings CSVs, p1 and p2 x completions.

    A cycle runs one operation per CSV size, 20 to 60 settings; the six
    configs rotate over the sizes from cycle to cycle.
    """

    CONFIGS = tuple((p, c) for p in ("p1", "p2") for c in COMPLETIONS)
    SIZES = tuple(range(20, 61, 5))  # settings per CSV
    ROUNDS = 2048

    def __init__(self, seed: int, outdir: Path):
        self.outdir = outdir
        self.param = EntanglementParam(GAMMA)
        rng = _rng(seed, 2)
        self.settings = tuple((_unit(rng), _unit(rng)) for _ in range(max(self.SIZES)))
        for n in self.SIZES:
            with open(self._csv_path(n), "w") as fh:
                fh.write("ax,ay,az,bx,by,bz\n")
                for a, b in self.settings[:n]:
                    fh.write(",".join(repr(x) for x in a + b) + "\n")
        self.sim_seeds = [int(x) for x in rng.integers(2**63, size=len(self.CONFIGS))]
        schema = mboxsim.cli.report_schema()
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        self.first_digest: dict = {}
        self.verdicts: dict = {}

    def _csv_path(self, n: int) -> Path:
        return self.outdir / f"settings-{n}.csv"

    def cycle(self, k: int) -> list:
        ops = []
        out = self.outdir / "scan.json"
        csv_out = self.outdir / "scan.csv"
        for j, n in enumerate(self.SIZES):
            i = (j + k) % len(self.CONFIGS)
            protocol, completion = self.CONFIGS[i]
            argv = [
                "simulate", "--protocol", protocol, "--gamma", repr(GAMMA),
                "--settings", str(self._csv_path(n)), "--rounds", str(self.ROUNDS),
                "--seed", str(self.sim_seeds[i]), "--completion", completion,
                "--out", str(out), "--csv", str(csv_out),
            ]
            spec = {
                "protocol": protocol, "gamma": GAMMA, "completion": completion,
                "rounds": self.ROUNDS, "settings": self.settings[:n],
            }
            ops.append(Op(
                run=lambda argv=argv: _quiet_main(argv),
                check=lambda rc, key=(i, n), spec=spec: self._check(rc, key, spec, out, csv_out),
                rounds=self.ROUNDS * n,
            ))
        return ops

    def _check(self, rc, key, spec, out: Path, csv_out: Path) -> checks.Verdict:
        if rc != 0:
            return checks.Verdict(problems=[f"simulate exited with {rc}"])
        text = out.read_text()
        csv_text = csv_out.read_text()
        digest = hashlib.sha256((text + "\0" + csv_text).encode()).hexdigest()
        first = self.first_digest.setdefault(key, digest)
        if first != digest:
            return checks.Verdict(problems=["report bytes changed between cycles of one config"])
        # Equal bytes get equal verdicts, so each distinct output is checked once.
        if digest not in self.verdicts:
            v, payload = checks.check_schema(text, self.validator)
            v.extend(checks.check_csv(csv_text, len(spec["settings"])))
            if payload is not None:
                v.extend(checks.check_report(
                    payload, spec, EXACT_MU_AVERAGE, self.param, _strategy(spec["completion"])
                ))
            self.verdicts[digest] = v
        return self.verdicts[digest]

    def finish(self) -> None:
        pass


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return mboxsim.cli.main(argv)


class Verify:
    """One reduced pass over the acceptance gate's suites per operation.

    The statistical suites (mbox, kernel, oracle, the moment accumulator)
    keep the gate's seed: their 4-sigma bands are the program's own, and a
    fresh seed per run would fail one pass in a few hundred by chance.  The
    exact suites take their inputs from the run's seed.
    """

    # A cycle runs one pass at each scale; the Monte Carlo rounds and the
    # flip trials scale with it, the quadrature, epr2 grid and residual
    # report do not.
    SCALES = tuple(x / 10 for x in range(5, 20, 2))
    MC_ROUNDS = 16384
    ORACLE_ROUNDS = 4096

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.param = EntanglementParam(GAMMA)
        # The setting the gate's pre-flip nullity criterion draws first.
        g = np.random.Generator(np.random.Philox(key=verify.DEFAULT_SEED + 41))
        self.moment_setting = (sample_unit_sphere(g), sample_unit_sphere(g))

    def cycle(self, k: int) -> list:
        rng = _rng(self.seed, 3, k)
        ops = []
        for scale in self.SCALES:
            exact_seed = int(rng.integers(2**32))
            mc, oracle = int(self.MC_ROUNDS * scale), int(self.ORACLE_ROUNDS * scale)
            ops.append(Op(
                run=lambda exact_seed=exact_seed, scale=scale: self._pass(exact_seed, scale),
                check=lambda out, exact_seed=exact_seed: self._check(out, exact_seed),
                # kernel: 1 fixed pair; oracle: 2 protocols x 3 completions x
                # 1 setting; moments: p1 and p2.
                rounds=mc + 6 * oracle + 2 * mc,
            ))
        return ops

    def _pass(self, exact_seed: int, scale: float):
        seed = verify.DEFAULT_SEED
        mc, oracle = int(self.MC_ROUNDS * scale), int(self.ORACLE_ROUNDS * scale)
        results = []
        results += verify.suite_mbox(rounds=int(2000 * scale), seed=seed)
        results += verify.suite_kernel(n_pairs=0, rounds=mc, n_nodes=2000, seed=seed)
        results += verify.suite_flip(trials=int(40 * scale), seed=exact_seed)
        results += verify.suite_epr2(gamma=GAMMA, grid_n=10)
        results += verify.suite_oracle(gamma=GAMMA, n_settings=1, rounds=oracle, seed=seed)
        residual = verify.claim_residual_report(n_settings=2, seed=exact_seed)
        a, b = self.moment_setting
        strategy = _strategy("normalize")
        moments = [
            verify.mc_round_moments(self.param, a, b, strategy, protocol, rounds=mc, seed=seed + i)
            for i, protocol in enumerate(("p1", "p2"))
        ]
        return results, residual, moments

    def _check(self, out, exact_seed: int) -> checks.Verdict:
        results, residual, moments = out
        v = checks.check_suite_results(results)
        again = verify.claim_residual_report(n_settings=2, seed=exact_seed)
        v.exact(json.dumps(residual, sort_keys=True) == json.dumps(again, sort_keys=True),
                "claim_residual_report differs between two calls")
        a, b = self.moment_setting
        c = self.param.cos2g
        v.extend(checks.check_moments(moments[0], {"alpha0": 0.0, "beta0": 0.0, "alpha": c * a[2], "beta": c * b[2]}, "p1"))
        v.extend(checks.check_moments(moments[1], {"alpha0": 0.0, "beta0": 0.0}, "p2"))
        return v

    def finish(self) -> None:
        pass


WORKLOADS = {"long": Long, "scan": Scan, "verify": Verify}


def _percentile_summary(times_ms: list) -> tuple[float, float]:
    return statistics.median(times_ms), statistics.quantiles(times_ms, n=10)[-1]


def _os_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def _settle(threads: int, timeout_s: float = 0.5) -> None:
    """Wait, untimed, until the threads an operation started have exited.

    run_experiment joins its pool, but the OS threads finish exiting a little
    later, and only then does the C allocator free their arenas for reuse.
    A next operation that starts first makes fresh arenas, so peak RSS would
    depend on that race rather than on the program.  peak_rss_mb is thus
    taken with a settled pool; the traced run's
    runtime.unexited_threads_per_op keeps the race itself in view.
    """
    deadline = time.monotonic() + timeout_s
    while _os_threads() > threads and time.monotonic() < deadline:
        time.sleep(0.0005)


def fresh_start_s(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has built its inputs and exited."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=SETUP_TIMEOUT_S)
    # The child exits right after printing "ready".
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout.strip() != b"ready":
        raise RuntimeError(f"setup start failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}")
    return elapsed


def tally(results: list) -> tuple[int, bool, list]:
    """(failed, correct, problems) from (raised, verdict) pairs, z-band applied.

    An operation fails when it raised or when any of its checks failed, and
    any failure makes the run incorrect.
    """
    distinct = {id(v): v for _, v in results}
    band = checks.z_band(sum(len(v.zs) for v in distinct.values()))
    failed = 0
    problems = []
    for raised, v in results:
        if raised or not v.passed(band):
            failed += 1
            problems.extend(v.problems[:3])
            problems.extend(f"{label}: |z| = {z:.2f} > {band:.2f}" for label, z in v.zs if z > band)
    return failed, failed == 0, problems


def run(workload: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    wl = WORKLOADS[workload](seed, outdir)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(mboxsim)
    times_ns = []
    rounds_done = 0
    results = []  # (failed to run, verdict) per op
    unexited = []  # OS threads an operation left still running when it returned
    setup_s = []
    started = time.perf_counter()
    k = 0
    while True:
        for op in wl.cycle(k):
            if tracer:
                tracer.active = True
            error = None
            threads_before = _os_threads()
            t0 = time.perf_counter_ns()
            try:
                if tracer:
                    with tracer.span("op"):
                        out = op.run()
                else:
                    out = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter_ns() - t0
            if tracer:
                tracer.active = False
            unexited.append(max(0, _os_threads() - threads_before))
            _settle(threads_before)
            if error is None:
                times_ns.append(dt)
                rounds_done += op.rounds
                results.append((False, op.check(out)))
            else:
                results.append((True, checks.Verdict(problems=[error])))
        k += 1
        timed_s = sum(times_ns) * 1e-9
        while not trace and len(setup_s) < SETUP_STARTS and timed_s >= len(setup_s) * seconds / SETUP_STARTS:
            setup_s.append(fresh_start_s(workload, seed))
        if (timed_s >= seconds and len(results) >= MIN_OPS) or time.perf_counter() - started > WALL_CAP_S:
            break

    metrics = {}
    if tracer:
        metrics = layer_metrics(tracer.spans, len(results), statistics.fmean(unexited))
        tracer.uninstall()
    wl.finish()

    failed, correct, problems = tally(results)
    distinct = {id(v): v for _, v in results}
    n_z = sum(len(v.zs) for v in distinct.values())
    worst = max(((z, label) for v in distinct.values() for label, z in v.zs), default=(0.0, ""))

    times_ms = [t * 1e-6 for t in times_ns]
    p50, p90 = _percentile_summary(times_ms) if len(times_ms) >= 2 else (float("nan"),) * 2
    summary = {
        "workload": workload,
        "seed": seed,
        "attempted": len(results),
        "failed": failed,
        "correct": correct,
        "cycles": k,
        "z_checks": n_z,
        "z_band": checks.z_band(n_z),
        "max_z": worst[0],
        "max_z_at": worst[1],
        "problems": problems[:20],
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "rounds_per_s": rounds_done / (sum(times_ns) * 1e-9) if times_ns else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if setup_s:
        summary["setup_s"] = statistics.median(setup_s)
        summary["setup_starts_s"] = setup_s
    if tracer:
        summary["layers"] = metrics
        trace_path = HERE / "out" / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write(trace_path, {k: v for k, v in summary.items() if k != "layers"})
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0, help="timed seconds (not with --setup-only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(mboxsim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported mboxsim from {mboxsim.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    outdir = HERE / "out" / f"work-{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, outdir).cycle(0)
        else:
            summary = run(args.workload, args.seed, args.seconds, bool(args.trace), outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if args.setup_only:
        print("ready", flush=True)
        # Interpreter teardown is not set-up; leave at once.
        os._exit(0)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
