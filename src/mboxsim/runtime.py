"""Batch execution: settings sweeps over deterministic streams, and the report.

Every round's randomness comes from protocols.round_uniform_block, a
PCG64DXSM stream seeded per (seed, setting index, chunk index) that starts
at any row.  A worker that is handed chunk k of setting i regenerates
exactly those rows no matter which thread it runs on or how many peers it
has.  sample_settings is the one sampler: it turns every sampled chunk, for
run_experiment and for verify's Monte Carlo alike, into one integer
histogram (ChunkStats), so a setting's aggregate is a pure function of
(seed, setting index, rounds).  It runs a chunk as cache-sized sub-blocks,
and hands the chunks of a request that spans two or more of them to one
kept thread pool.

The report format lives here too: a record's sample and comparison fields,
the record itself, the JSON document (what run_experiment returns) and its
CSV projection.  This module imports nothing from verify; verify samples
through it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import Completion, as_unit_vector, sample_unit_sphere
from .protocols import (
    CHUNK,
    PROTOCOL_IDS,
    STREAM,
    RoundRandomness,
    _check_p2_gamma,
    _check_seed,
    round_uniform_block,
    run_batch,
    seeded_generator,
)
from .quantum import (
    EntanglementParam,
    _joint_from_moments,
    checked_distribution,
    joint_nl,
    joint_qm,
)

__all__ = [
    "ChunkStats",
    "EstimateWithError",
    "ExperimentConfig",
    "compare",
    "estimate_joint_from_counts",
    "load_settings_csv",
    "report_csv_rows",
    "report_to_json_dict",
    "resolve_settings",
    "run_experiment",
    "sample_settings",
    "sign_mean_estimate",
    "write_report",
]

SETTINGS_CSV_HEADER = ["ax", "ay", "az", "bx", "by", "bz"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run.  Frozen: reports echo it verbatim.

    Exactly one settings source must be given: an explicit tuple of
    (a, b) pairs of unit 3-vectors, or random_settings > 0 for a seeded
    draw.  workers only changes how the work is scheduled, never what is
    computed, so it is deliberately absent from the report echo.
    """

    protocol: str
    gamma: float
    rounds: int
    seed: int
    completion: str = Completion.NORMALIZE.value
    settings: tuple = ()
    random_settings: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOL_IDS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        _check_seed(self.seed)
        _check_p2_gamma(EntanglementParam(self.gamma), self.protocol)
        Completion(self.completion)
        if self.random_settings < 0:
            raise ValueError(f"random_settings must be >= 0, got {self.random_settings}")
        if (len(self.settings) > 0) == (self.random_settings > 0):
            raise ValueError("provide exactly one of explicit settings or random_settings")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        frozen = []
        for si, pair in enumerate(self.settings):
            try:
                a, b = (tuple(as_unit_vector(v).tolist()) for v in pair)
                frozen.append((a, b))
            except ValueError as exc:
                raise ValueError(f"explicit setting {si}: {exc}") from None
        object.__setattr__(self, "settings", tuple(frozen))

    @property
    def settings_source(self) -> str:
        if self.random_settings:
            return f"random:{self.random_settings}"
        return f"explicit:{len(self.settings)}"


def resolve_settings(config: ExperimentConfig) -> tuple:
    """Materialize the settings list as unit-vector pairs; explicit ones were
    validated when the config was built."""
    if config.random_settings:
        g = seeded_generator(config.seed)
        return tuple(
            (sample_unit_sphere(g), sample_unit_sphere(g))
            for _ in range(config.random_settings)
        )
    return tuple((np.array(a), np.array(b)) for a, b in config.settings)


def load_settings_csv(path) -> tuple:
    """Read settings pairs; normalizes rows, warning past 1e-6 deviation."""
    pairs = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SETTINGS_CSV_HEADER:
            raise ValueError(
                f"settings CSV must start with header {','.join(SETTINGS_CSV_HEADER)}, "
                f"got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ValueError(f"settings CSV line {lineno}: expected 6 fields, got {len(row)}")
            try:
                vals = [float(x) for x in row]
            except ValueError as exc:
                raise ValueError(f"settings CSV line {lineno}: {exc}") from None
            vecs = []
            for name, v in (("a", np.array(vals[:3])), ("b", np.array(vals[3:]))):
                norm = float(np.linalg.norm(v))
                if not math.isfinite(norm) or norm <= 0.0:
                    raise ValueError(f"settings CSV line {lineno}: {name} is not a direction")
                if abs(norm - 1.0) > 1e-6:
                    warnings.warn(
                        f"settings CSV line {lineno}: |{name}| deviates from 1 "
                        f"by {abs(norm - 1.0):.2e}; normalizing"
                    )
                vecs.append(v / norm)
            pairs.append((vecs[0], vecs[1]))
    if not pairs:
        raise ValueError("settings CSV contains no setting rows")
    return tuple(pairs)


def _target_joint(param: EntanglementParam, a, b, protocol: str) -> np.ndarray:
    if protocol == "p1":
        joint = joint_qm(param, a, b)
    elif protocol == "p2":
        joint = joint_nl(param, a, b)
    else:
        # Kernel rounds reproduce zero marginals with correlation a.b.
        joint = _joint_from_moments(0.0, 0.0, float(np.asarray(a) @ np.asarray(b)))
    return checked_distribution(joint)


@dataclass(frozen=True)
class EstimateWithError:
    """Sample mean with its standard error (sample sd over sqrt(n))."""

    mean: float
    stderr: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2 samples, got {self.n}")
        if not (math.isfinite(self.mean) and math.isfinite(self.stderr)):
            raise ValueError("estimate must be finite")
        if self.stderr < 0.0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr}")


def sign_mean_estimate(total: int, n: int) -> EstimateWithError:
    """Estimate for a +-1 variable given its exact integer sum."""
    if n < 2:
        raise ValueError(f"need n >= 2 samples, got {n}")
    mean = total / n
    var = max(0.0, (1.0 - mean * mean) * n / (n - 1))
    return EstimateWithError(mean=mean, stderr=math.sqrt(var / n), n=n)


def _z_floor(stderr: float, n: int) -> float:
    # A degenerate sample (all outcomes equal) has stderr 0; floor at 1/n so
    # z-scores stay finite, which errs on the side of flagging mismatches.
    return max(stderr, 1.0 / n)


# Each output sign's value, +1 or -1, at every (alpha0, beta0, alpha, beta) cell.
_CELL_SIGNS = dict(zip(("alpha0", "beta0", "alpha", "beta"), 1 - 2 * np.indices((2, 2, 2, 2))))


@dataclass(eq=False)
class ChunkStats:
    """The transcript histogram of sampled rounds; every aggregate is a projection.

    hist counts rounds over (p, q, alpha0, beta0, alpha, beta), with p and q
    = -1, 0, +1 at index 0, 1, 2 (tb's p = q = 0 is the middle cell) and a
    sign -1 at index 1.  Merging is one integer add, so it is order-independent.
    """

    hist: np.ndarray = field(default_factory=lambda: np.zeros((3, 3, 2, 2, 2, 2), np.int64))

    def add(self, other: "ChunkStats") -> "ChunkStats":
        self.hist += other.hist
        return self

    @property
    def n(self) -> int:
        return int(self.hist.sum())

    @property
    def counts(self) -> list[int]:
        """(alpha, beta) counts in the outcome order (+,+), (+,-), (-,+), (-,-)."""
        return self.hist.sum(axis=(0, 1, 2, 3)).reshape(4).tolist()

    def _by_branch(self, *names: str) -> np.ndarray:
        # per-(p, q) sums of the product of the named signs; no name counts rounds
        weight = math.prod((_CELL_SIGNS[name] for name in names), start=1)
        return (self.hist * weight).sum(axis=(2, 3, 4, 5))

    def sign_sum(self, *names: str) -> int:
        """Sum over the rounds of the product of the named output signs."""
        return int(self._by_branch(*names).sum())

    @property
    def branches(self) -> dict:
        """{(p, q): (rounds, sum of alpha0 * beta0)} per realized p1/p2 branch, sorted."""
        rounds, corr = self._by_branch(), self._by_branch("alpha0", "beta0")
        return {
            (p, q): (int(rounds[p + 1, q + 1]), int(corr[p + 1, q + 1]))
            for p in (-1, 1)
            for q in (-1, 1)
            if rounds[p + 1, q + 1]
        }


def _stats_from_batch(out) -> ChunkStats:
    # The cell index fits a byte (at most 143), so it is built in uint8.
    idx = (out.p + 1).view(np.uint8) * 3 + (out.q + 1).view(np.uint8)
    for x in (out.alpha0, out.beta0, out.alpha, out.beta):
        idx = idx * 2 + (x < 0)
    return ChunkStats(np.bincount(idx, minlength=3 * 3 * 16).reshape(3, 3, 2, 2, 2, 2))


# Rows drawn and run at once inside a chunk: 16 384 rows of 24 doubles are
# 3 MiB, and a smaller batch pays run_batch's per-call set-up more often.
# It only schedules work; the stream's layout is CHUNK.
SUB_BLOCK = 16384

# The cores this process may run on: sample_settings' default worker count.
if hasattr(os, "sched_getaffinity"):
    _CORES = len(os.sched_getaffinity(0))
else:
    _CORES = os.cpu_count() or 1


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    # One pool per worker count, kept for the life of the process: with a
    # fresh pool per call, the last call's threads are still exiting when the
    # next call's start, and the two race for the allocator's arenas.
    return ThreadPoolExecutor(max_workers=workers)


def sample_settings(
    param: EntanglementParam,
    pairs,
    strategy: Completion,
    protocol: str,
    rounds: int,
    seed: int,
    workers: int = _CORES,
) -> list[ChunkStats]:
    """Histogram rounds [0, rounds) of each (a, b) in pairs, chunk by chunk.

    Pair i reads the addressed stream of (seed, i), so its histogram equals,
    integer for integer, that of setting i in a run_experiment with the same
    seed.  A chunk is drawn and run as SUB_BLOCK-row sub-blocks, so its
    working set stays a few MiB.  The chunks run on the kept pool when
    workers > 1 (by default every usable core) and the request spans two or
    more chunks, else in order on the calling thread; merging is an integer
    add, so neither the sub-block size nor the worker count can change any
    count.
    """

    def run_chunk(task):
        i, a, b, start, end = task
        stats = ChunkStats()
        for pos in range(start, end, SUB_BLOCK):
            rr = RoundRandomness.from_uniform_block(
                round_uniform_block(seed, i, pos, min(SUB_BLOCK, end - pos))
            )
            stats.add(_stats_from_batch(run_batch(param, a, b, rr, strategy, protocol)))
        return i, stats

    tasks = [
        (i, a, b, start, min(start + CHUNK, rounds))
        for i, (a, b) in enumerate(pairs)
        for start in range(0, rounds, CHUNK)
    ]
    stats = [ChunkStats() for _ in pairs]
    # One chunk has nothing to share out, and a pool thread that ran it would
    # cost its own allocator arena.
    if workers == 1 or len(tasks) < 2:
        chunks = map(run_chunk, tasks)
    else:
        chunks = _pool(workers).map(run_chunk, tasks)
    for i, chunk in chunks:
        stats[i].add(chunk)
    return stats


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every (setting, round) cell and return the JSON report document.

    The work is split into fixed chunks whose randomness is addressed by
    (seed, setting, chunk); merging uses integer sums only, so worker count
    and completion order cannot change any reported value.  Every setting's
    target goes through quantum.checked_distribution before any round is
    sampled, so a target that is not a distribution raises its ValueError,
    naming the setting's index, a and b, at once.

    The document is what write_report writes: {"config", "summary",
    "records"}, with one _record dict per setting.
    """
    param = EntanglementParam(config.gamma)
    settings = resolve_settings(config)
    targets = []
    for si, (a, b) in enumerate(settings):
        try:
            targets.append(_target_joint(param, a, b, config.protocol))
        except ValueError as exc:
            raise ValueError(
                f"{exc}, in the target of setting {si}: "
                f"a = {[float(x) for x in a]}, b = {[float(x) for x in b]}"
            ) from None

    agg = sample_settings(
        param, settings, Completion(config.completion), config.protocol,
        config.rounds, config.seed, config.workers,
    )
    records = [_record(a, b, t, stats) for (a, b), t, stats in zip(settings, targets, agg)]
    return {
        "config": {
            "stream": STREAM,
            "protocol": config.protocol,
            "gamma": config.gamma,
            "completion": config.completion,
            "seed": config.seed,
            "rounds": config.rounds,
            "settings_source": config.settings_source,
        },
        "summary": {
            "n_settings": len(records),
            "max_tv": max((r["tv"] for r in records), default=0.0),
            "max_abs_z": max((r["max_abs_z"] for r in records), default=0.0),
        },
        "records": records,
    }


def estimate_joint_from_counts(counts) -> dict:
    """A record's sample fields from its four (alpha, beta) counts: the
    round count, the counts, the frequencies and their multinomial errors."""
    counts = [int(c) for c in counts]
    if len(counts) != 4 or any(c < 0 for c in counts):
        raise ValueError(f"need 4 nonnegative outcome counts, got {counts!r}")
    n = sum(counts)
    if n < 1:
        raise ValueError("need at least one round")
    freqs = [c / n for c in counts]
    stderr = [math.sqrt(f * (1.0 - f) / n) for f in freqs]
    return {"n": n, "counts": counts, "empirical": freqs, "stderr": stderr}


def compare(target: np.ndarray, sample: dict) -> dict:
    """A record's comparison fields: the sample fields plus the target (a
    checked_distribution), the total-variation distance and the worst z."""
    diff = np.abs(target - np.array(sample["empirical"]))
    zs = [d / _z_floor(se, sample["n"]) for d, se in zip(diff.tolist(), sample["stderr"])]
    return {
        **sample,
        "target": target.tolist(),
        "tv": 0.5 * float(diff.sum()),
        "max_abs_z": max(zs),
    }


def _record(a, b, target: np.ndarray, stats: ChunkStats) -> dict:
    """One setting's entry under the JSON report's "records", as written."""
    # A single-round record has no standard error to report.
    n = stats.n
    pre_flip = None
    if n >= 2:
        pre_flip = {}
        for name in ("alpha0", "beta0"):
            est = sign_mean_estimate(stats.sign_sum(name), n)
            pre_flip[f"{name}_mean"], pre_flip[f"{name}_stderr"] = est.mean, est.stderr
    branches = []
    for (p, q), (bn, bsum) in stats.branches.items():
        if bn >= 2:
            est = sign_mean_estimate(bsum, bn)
            corr, stderr = est.mean, est.stderr
        else:
            corr, stderr = bsum / bn, 0.0
        branches.append({"p": p, "q": q, "n": bn, "corr_mean": corr, "corr_stderr": stderr})
    return {
        "a": [float(x) for x in a],
        "b": [float(x) for x in b],
        **compare(target, estimate_joint_from_counts(stats.counts)),
        "pre_flip": pre_flip,
        "branches": branches,
    }


def report_to_json_dict(report: dict) -> dict:
    """run_experiment's document, unchanged: perfbench/ still calls this.
    The benchmark's next change deletes it."""
    return report


_CSV_HEADER = [
    "ax", "ay", "az", "bx", "by", "bz",
    "n", "tv", "max_abs_z",
    "target_pp", "target_pm", "target_mp", "target_mm",
    "emp_pp", "emp_pm", "emp_mp", "emp_mm",
    "alpha0_mean", "beta0_mean",
]


def report_csv_rows(report: dict) -> tuple[list[str], list[list]]:
    """Flat per-setting rows for the CSV sibling: a projection of the JSON records."""
    rows = []
    for rec in report["records"]:
        pre = rec["pre_flip"]
        rows.append(
            rec["a"]
            + rec["b"]
            + [rec["n"], rec["tv"], rec["max_abs_z"]]
            + rec["target"]
            + rec["empirical"]
            + (["", ""] if pre is None else [pre["alpha0_mean"], pre["beta0_mean"]])
        )
    return list(_CSV_HEADER), rows


def write_report(report: dict, out_path, csv_path=None) -> None:
    """Write run_experiment's report document as JSON (and optionally CSV).

    json.dumps with sorted keys and repr floats keeps the bytes a pure
    function of the report content.  The JSON is one line and a newline:
    without indent, json uses its C encoder, several times faster on a
    report of many settings.  If either file cannot be written in full,
    every file this call opened is removed again before the OSError
    propagates: no half a report.
    """
    text = json.dumps(report, sort_keys=True) + "\n"
    opened = []
    try:
        with open(out_path, "w") as fh:
            opened.append(out_path)
            fh.write(text)
        if csv_path is not None:
            header, rows = report_csv_rows(report)
            with open(csv_path, "w", newline="") as fh:
                opened.append(csv_path)
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
    except OSError:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
