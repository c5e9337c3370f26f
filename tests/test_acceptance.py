"""Acceptance gate: ten criteria, one recorded PASS/FAIL line each.

Statistical criteria use 4-sigma bands at large round counts; exact criteria
use pinned tolerances (1e-12 for the decomposition residuals, 1e-15 for the
rational flip algebra, 2e-3 for the kernel quadrature).  Each criterion also
carries its runtime budget.  Criterion 8 is a verification experiment, not a
pass/fail on the claimed closed form: it must reproduce bit-identically, and
the recorded line documents whatever residual is true.  Criterion 9 checks
the resource claim by information flow: it varies one party's setting and
holds the engine to what the other party may see.
"""

import dataclasses
import json
import math
import time

import numpy as np

from mboxsim.boxes import outcome_from_uniform
from mboxsim.geometry import Completion, sample_unit_sphere
from mboxsim.protocols import RoundRandomness, round_uniform_block, run_batch
from mboxsim.quantum import EntanglementParam
from mboxsim.runtime import CHUNK, ExperimentConfig, run_experiment, write_report
from mboxsim.verify import (
    DEFAULT_SEED,
    claim_residual_report,
    mc_round_moments,
    suite_epr2,
    suite_flip,
    suite_kernel,
    suite_mbox,
    suite_oracle,
)

PI8 = math.pi / 8
PI4 = math.pi / 4
# ortho-sign samples exactly ortho's rounds (TestRunBatch pins it), so the
# gate's own Monte Carlo runs the two distinct rules only.
STRATEGIES = (Completion.NORMALIZE, Completion.ORTHO)


def _settings(n: int, key: int) -> list:
    g = np.random.Generator(np.random.Philox(key=key))
    return [(sample_unit_sphere(g), sample_unit_sphere(g)) for _ in range(n)]


def _suite_detail(checks, elapsed: float, budget: float) -> tuple[bool, str]:
    ok = all(c.passed for c in checks) and elapsed < budget
    failed = [c.name for c in checks if not c.passed]
    detail = f"{len(checks)} checks, {elapsed:.1f}s (budget {budget:.0f}s)"
    if failed:
        detail += f", failed: {', '.join(failed)}"
    return ok, detail


def test_criterion_01_mbox_contract(criterion):
    t0 = time.perf_counter()
    checks = suite_mbox(rounds=1_000_000, seed=DEFAULT_SEED)
    ok, detail = _suite_detail(checks, time.perf_counter() - t0, 10.0)
    criterion(1, "mbox-contract", ok, detail)


def test_criterion_02_kernel(criterion):
    t0 = time.perf_counter()
    checks = suite_kernel(n_pairs=20, rounds=1_000_000, n_nodes=10_000, seed=DEFAULT_SEED)
    ok, detail = _suite_detail(checks, time.perf_counter() - t0, 120.0)
    criterion(2, "kernel-triangle", ok, detail)


def test_criterion_03_flip_algebra(criterion):
    t0 = time.perf_counter()
    checks = suite_flip(trials=1000, seed=DEFAULT_SEED)
    ok, detail = _suite_detail(checks, time.perf_counter() - t0, 1.0)
    criterion(3, "flip-algebra", ok, detail)


def test_criterion_04_pre_flip_nullity(criterion):
    t0 = time.perf_counter()
    rounds = 1_000_000
    worst = 0.0
    worst_case = ""
    for i, protocol in enumerate(("p1", "p2")):
        for j, strategy in enumerate(STRATEGIES):
            for k, (a, b) in enumerate(_settings(5, key=DEFAULT_SEED + 41)):
                # each case keeps its seed from when ortho-sign ran too,
                # as cases 11-15 and 26-30
                case = 15 * i + 5 * j + k + 1
                stats = mc_round_moments(
                    EntanglementParam(PI8), a, b, strategy, protocol,
                    rounds=rounds, seed=DEFAULT_SEED + case,
                )
                for key in ("alpha0", "beta0"):
                    est = stats[key]
                    z = abs(est.mean) / max(est.stderr, 1.0 / est.n)
                    if z > worst:
                        worst = z
                        worst_case = f"{key}[{protocol},{strategy.value}]"
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and elapsed < 300.0
    criterion(
        4, "pre-flip-nullity", ok,
        f"max |z| = {worst:.2f} at {worst_case}, 20 cases x {rounds} rounds, "
        f"{elapsed:.1f}s (budget 300s)",
    )


def test_criterion_05_post_flip_marginals(criterion):
    t0 = time.perf_counter()
    rounds = 1_000_000
    strategy = STRATEGIES[0]
    worst = 0.0
    case = 0
    for gamma in (PI8, PI4):
        param = EntanglementParam(gamma)
        for a, b in _settings(5, key=DEFAULT_SEED + 43):
            case += 1
            stats = mc_round_moments(
                param, a, b, strategy, "p1", rounds=rounds, seed=DEFAULT_SEED + 100 + case
            )
            for key, target in (("alpha", param.cos2g * a[2]), ("beta", param.cos2g * b[2])):
                est = stats[key]
                z = abs(est.mean - target) / max(est.stderr, 1.0 / est.n)
                worst = max(worst, z)
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and elapsed < 180.0
    criterion(
        5, "post-flip-marginals", ok,
        f"max |z| = {worst:.2f} over 10 cases x {rounds} rounds, "
        f"{elapsed:.1f}s (budget 180s)",
    )


def test_criterion_06_epr2_suite(criterion):
    t0 = time.perf_counter()
    checks = suite_epr2(grid_n=20)
    ok, detail = _suite_detail(checks, time.perf_counter() - t0, 30.0)
    criterion(6, "epr2-decomposition", ok, detail)


def test_criterion_07_oracle_cross_validation(criterion):
    t0 = time.perf_counter()
    checks = suite_oracle(gamma=PI8, n_settings=10, rounds=1_000_000, seed=DEFAULT_SEED)
    ok, detail = _suite_detail(checks, time.perf_counter() - t0, 600.0)
    criterion(7, "oracle-vs-mc", ok, detail)


def test_criterion_08_claim_residual_report(criterion):
    t0 = time.perf_counter()
    one = claim_residual_report(n_settings=100, seed=DEFAULT_SEED)
    two = claim_residual_report(n_settings=100, seed=DEFAULT_SEED)
    bytes_one = json.dumps(one, sort_keys=True)
    identical = bytes_one == json.dumps(two, sort_keys=True)
    residuals = {
        tag: max(
            entry["max_residual"]
            for per_gamma in per_strategy.values()
            for entry in per_gamma.values()
        )
        for tag, per_strategy in one["strategies"].items()
    }
    elapsed = time.perf_counter() - t0
    summary = ", ".join(f"{tag}: {r:.3f}" for tag, r in sorted(residuals.items()))
    criterion(
        8, "claim-residual-report", identical,
        f"bit-identical across runs; max |oracle - claim| per completion: "
        f"{summary} ({elapsed:.1f}s)",
    )


def _turned(v: np.ndarray, angle: float = 1.0) -> np.ndarray:
    """v rotated about z: the box, which reads only |v_z|, cannot tell."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]])


def _tilted(v: np.ndarray, z: float) -> np.ndarray:
    """v with |v_z| moved to z, keeping its azimuth and the sign of v_z."""
    scale = math.sqrt(1.0 - z * z) / math.hypot(v[0], v[1])
    return np.array([v[0] * scale, v[1] * scale, math.copysign(z, v[2])])


def _same_side(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A new |v_z| that leaves the box bit [|v_z| <= |w_z|] as it is."""
    x, y = abs(v[2]), abs(w[2])
    return _tilted(v, x / 2 if x <= y else (x + y) / 2)


def _other_side(v: np.ndarray, w: np.ndarray, v_is_alice: bool = False) -> np.ndarray:
    """A new |v_z| that flips the box bit [|a_z| <= |b_z|].

    A tie counts as bit 1, so on a tie Bob's setting moves below Alice's and
    Alice's moves above Bob's.
    """
    x, y = abs(v[2]), abs(w[2])
    below = x <= y if v_is_alice else x < y
    return _tilted(v, (y + 1) / 2 if below else y / 2)


def _mirrored_coin(rr: RoundRandomness) -> RoundRandomness:
    """rr with every box coin moved by a half: each round's p flips."""
    return dataclasses.replace(rr, box_u=np.where(rr.box_u < 0.5, rr.box_u + 0.5, rr.box_u - 0.5))


def _box_mismatches(out, a, b, box_u) -> int:
    """Rows whose (p, q) is not (box.p, -box.q) from the scalar box."""
    bad = 0
    for p, q, u in zip(out.p.tolist(), out.q.tolist(), box_u.tolist()):
        box = outcome_from_uniform(abs(a[2]), abs(b[2]), u)
        bad += (p, q) != (box.p, -box.q)
    return bad


def test_criterion_09_resource_budget(criterion):
    # Each round may pass Alice's setting to Bob only through the box bit and
    # the one cbit.  So Alice's side (p, alpha0, alpha, cbit) must not move
    # when only b moves, and Bob's side (beta0, beta) must not move when only
    # a moves, on every round whose q and cbit stay put.  Moving a across
    # |b_z| with the box coin mirrored flips p and keeps q, so Bob's side
    # must not read p either.
    t0 = time.perf_counter()
    rows = 2048
    pairs = _settings(4, key=DEFAULT_SEED + 46)
    tie = pairs[0][0]
    pairs.append((tie, _turned(tie, 2.0)))  # a_z == b_z
    problems = []
    batches = box_rows = 0
    worst_share = 1.0
    for gamma in (PI8, 0.7853981634):
        param = EntanglementParam(gamma)
        for strategy in STRATEGIES:
            for protocol in ("p1", "p2", "tb"):
                case = f"{protocol},{strategy.value},gamma={gamma:.4f}"
                for i, (a, b) in enumerate(pairs):
                    rr = RoundRandomness.from_uniform_block(
                        round_uniform_block(DEFAULT_SEED + 45, i, 0, rows)
                    )

                    def run(a_, b_, rr_=rr):
                        nonlocal batches, box_rows
                        out = run_batch(param, a_, b_, rr_, strategy, protocol)
                        batches += 1
                        if protocol != "tb":
                            box_rows += rows
                            if _box_mismatches(out, a_, b_, rr_.box_u):
                                problems.append(f"box contract [{case}, pair {i}]")
                        return out

                    base = run(a, b)
                    for kind, b_alt in (
                        ("negated", -b),
                        ("turned", _turned(b)),
                        ("same-side", _same_side(b, a)),
                        ("other-side", _other_side(b, a)),
                    ):
                        alt = run(a, b_alt)
                        for name in ("p", "alpha0", "alpha", "cbit"):
                            if not np.array_equal(getattr(alt, name), getattr(base, name)):
                                problems.append(f"Alice's {name} sees b {kind} [{case}, pair {i}]")
                    for kind, a_alt, rr_alt in (
                        ("negated", -a, rr),
                        ("turned", _turned(a), rr),
                        ("same-side", _same_side(a, b), rr),
                        (
                            "other-side, coin mirrored",
                            _other_side(a, b, v_is_alice=True),
                            _mirrored_coin(rr),
                        ),
                    ):
                        alt = run(a_alt, b, rr_alt)
                        if rr_alt is not rr and protocol != "tb" and not (
                            np.array_equal(alt.p, -base.p) and np.array_equal(alt.q, base.q)
                        ):
                            problems.append(f"a {kind} did not flip p alone [{case}, pair {i}]")
                        keep = (alt.q == base.q) & (alt.cbit == base.cbit)
                        share = np.count_nonzero(keep) / rows
                        worst_share = min(worst_share, share)
                        if share < 0.25:
                            problems.append(f"Bob compared {share:.0%} of rows, a {kind} [{case}]")
                        for name in ("beta0", "beta"):
                            if not np.array_equal(getattr(alt, name)[keep], getattr(base, name)[keep]):
                                problems.append(f"Bob's {name} sees a {kind} [{case}, pair {i}]")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    detail = (
        f"{batches} batches x {rows} rows, 12 cases (2 gammas x 2 completions x 3 protocols, "
        f"{len(pairs)} pairs incl. a tie); Bob compared >= {worst_share:.0%} of each batch's rows; "
        f"box contract on {box_rows} rows; {elapsed:.1f}s (budget 30s)"
    )
    if problems:
        detail += f"; {len(problems)} failures, first: {', '.join(problems[:3])}"
    criterion(9, "information-flow", ok, detail)


def test_criterion_10_determinism(criterion, tmp_path):
    t0 = time.perf_counter()
    kwargs = dict(
        protocol="p1", gamma=PI8, rounds=CHUNK + 2048, seed=DEFAULT_SEED,
        settings=(), random_settings=3, completion="ortho-sign",
    )
    paths = []
    for workers in (1, 8):
        report = run_experiment(ExperimentConfig(**kwargs, workers=workers))
        path = tmp_path / f"report-w{workers}.json"
        write_report(report, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - t0
    criterion(
        10, "worker-determinism", identical,
        f"1-worker and 8-worker reports byte-identical "
        f"({CHUNK + 2048} rounds x 3 settings, {elapsed:.1f}s)",
    )
