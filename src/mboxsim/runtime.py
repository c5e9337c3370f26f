"""Batch execution: settings sweeps over deterministic streams.

Every round's randomness comes from protocols.round_uniform_block, a
counter-style stream keyed by (seed, setting index, chunk index).  A worker
that is handed chunk k of setting i regenerates exactly those rows no matter
which thread it runs on or how many peers it has, and per-setting
aggregation is one integer histogram (verify.ChunkStats), so the report is a
pure function of the config.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import Completion, as_unit_vector, sample_unit_sphere
from .protocols import (
    CHUNK,
    PROTOCOL_IDS,
    RoundRandomness,
    round_uniform_block,
    run_batch,
)
from .quantum import EntanglementParam, JointDist, _joint_from_moments, joint_nl, joint_qm
from .verify import (
    ChunkStats,
    ComparisonReport,
    _stats_from_batch,
    compare,
    estimate_joint_from_counts,
    report_csv_rows,
    report_to_json_dict,
    sign_mean_estimate,
)

__all__ = [
    "ExperimentConfig",
    "load_settings_csv",
    "resolve_settings",
    "run_experiment",
    "write_report",
]

SETTINGS_CSV_HEADER = ["ax", "ay", "az", "bx", "by", "bz"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run.  Frozen: reports echo it verbatim.

    Exactly one settings source must be given: an explicit tuple of
    (a, b) pairs, or random_settings > 0 for a seeded draw.  workers only
    changes how the work is scheduled, never what is computed, so it is
    deliberately absent from the report echo.
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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        EntanglementParam(self.gamma)
        if self.protocol == "p2" and self.gamma <= 0.0:
            raise ValueError("protocol 2 requires gamma > 0")
        Completion(self.completion)
        if self.random_settings < 0:
            raise ValueError(f"random_settings must be >= 0, got {self.random_settings}")
        if (len(self.settings) > 0) == (self.random_settings > 0):
            raise ValueError("provide exactly one of explicit settings or random_settings")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        frozen = tuple(
            (tuple(float(x) for x in a), tuple(float(x) for x in b))
            for a, b in self.settings
        )
        object.__setattr__(self, "settings", frozen)

    @property
    def settings_source(self) -> str:
        if self.random_settings:
            return f"random:{self.random_settings}"
        return f"explicit:{len(self.settings)}"


def resolve_settings(config: ExperimentConfig) -> tuple:
    """Materialize the settings list as unit-vector pairs."""
    if config.random_settings:
        g = np.random.Generator(np.random.Philox(key=np.uint64(config.seed)))
        return tuple(
            (sample_unit_sphere(g), sample_unit_sphere(g))
            for _ in range(config.random_settings)
        )
    return tuple(
        (as_unit_vector(np.array(a)), as_unit_vector(np.array(b)))
        for a, b in config.settings
    )


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


def _target_joint(param: EntanglementParam, a, b, protocol: str) -> JointDist:
    if protocol == "p1":
        return joint_qm(param, a, b)
    if protocol == "p2":
        return joint_nl(param, a, b)
    # Kernel rounds reproduce zero marginals with correlation a.b.
    return _joint_from_moments(0.0, 0.0, float(np.asarray(a) @ np.asarray(b)))


def run_experiment(config: ExperimentConfig) -> ComparisonReport:
    """Run every (setting, round) cell and aggregate per setting.

    The work is split into fixed chunks whose randomness is addressed by
    (seed, setting, chunk); merging uses integer sums only, so worker count
    and completion order cannot change any reported value.
    """
    param = EntanglementParam(config.gamma)
    strategy = Completion(config.completion)
    settings = resolve_settings(config)

    tasks = []
    for si, (a, b) in enumerate(settings):
        for start in range(0, config.rounds, CHUNK):
            tasks.append((si, a, b, start, min(CHUNK, config.rounds - start)))

    def run_task(task):
        si, a, b, start, m = task
        rr = RoundRandomness.from_uniform_block(
            round_uniform_block(config.seed, si, start, m)
        )
        out = run_batch(param, a, b, rr, strategy, config.protocol)
        return si, _stats_from_batch(out)

    agg = [ChunkStats() for _ in settings]
    if config.workers == 1:
        for task in tasks:
            si, stats = run_task(task)
            agg[si].add(stats)
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            for si, stats in pool.map(run_task, tasks):
                agg[si].add(stats)

    records = []
    for si, (a, b) in enumerate(settings):
        comparison = compare(
            _target_joint(param, a, b, config.protocol),
            estimate_joint_from_counts(agg[si].counts),
        )
        records.append(_record(a, b, comparison, agg[si]))
    return ComparisonReport(config=config, records=tuple(records))


def _record(a, b, comparison: dict, stats: ChunkStats) -> dict:
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
        **comparison,
        "pre_flip": pre_flip,
        "branches": branches,
    }


def write_report(report: ComparisonReport, out_path, csv_path=None) -> dict:
    """Serialize the report to JSON (and optionally CSV); returns the dict.

    json.dumps with sorted keys and repr floats keeps the bytes a pure
    function of the report content.  If the CSV cannot be written, the JSON
    is removed again before the OSError propagates: no half a report.
    """
    payload = report_to_json_dict(report)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(out_path, "w") as fh:
        fh.write(text)
    if csv_path is not None:
        header, rows = report_csv_rows(report)
        try:
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        except OSError:
            os.remove(out_path)
            raise
    return payload
