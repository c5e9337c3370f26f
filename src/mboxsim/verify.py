"""Estimators, exact oracles, and the comparison machinery.

Three kinds of evidence live here, kept deliberately separate:

* statistical estimates from sampled rounds (multinomial frequencies and
  sign-variable means, always with standard errors);
* exact oracles that bypass sampling entirely: sign-tuple enumeration for
  the direction averages, product-grid quadrature for the one-bit kernel,
  and rational arithmetic for the flip algebra;
* claimed closed forms, recorded as claims and compared against the oracles
  with the residual reported rather than assumed zero.

Whether the claimed per-branch direction-average identity survives a
realizable completion strategy is exactly what claim_residual_report
measures; nothing in this module treats that identity as an axiom.

Sums over sampled rounds are accumulated as integers (the outputs are
signs), so aggregation is exact and order-independent by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .boxes import compare_bit, outcome_from_uniform
from .geometry import (
    Completion,
    CompletionStrategy,
    as_unit_vector,
    sample_unit_sphere,
    sign_array,
    spherical_grid,
)
# alice_direction_rows and bob_direction_rows are not called here (the oracle
# reaches them through direction_table), but stay importable from this module:
# perfbench/tracing.py wraps them under verify as well as under protocols.
from .protocols import (  # noqa: F401
    CHUNK,
    STREAM,
    FlipSpec,
    RoundRandomness,
    alice_direction_rows,
    bob_direction_rows,
    correlated_flip,
    direction_table,
    flip_spec,
    round_uniform_block,
    run_batch,
    symmetrize,
)
from .quantum import (
    EntanglementParam,
    JointDist,
    _joint_from_moments,
    aux_axis,
    aux_axis_alice_nl,
    epr2_correlation,
    epr2_flip_probability,
    in_slice,
    joint_local_product,
    joint_nl,
    joint_qm,
    pre_flip_correlation_nl,
    rotate_pi_about_x,
    slice_threshold,
)

__all__ = [
    "BranchStat",
    "CheckResult",
    "ChunkStats",
    "ComparisonReport",
    "ComparisonRow",
    "Epr2Report",
    "EstimateWithError",
    "JointEstimate",
    "SettingComparison",
    "branch_correlation_claim",
    "claim_residual_report",
    "compare",
    "epr2_suite",
    "estimate_joint_from_counts",
    "estimate_joint_from_outputs",
    "estimate_mean",
    "exact_mu_average",
    "flip_moments_claim",
    "flip_moments_exact",
    "mc_branch_correlations",
    "mc_round_moments",
    "quadrature_kernel",
    "realized_joint",
    "report_csv_rows",
    "report_to_json_dict",
    "sign_mean_estimate",
    "suite_epr2",
    "suite_flip",
    "suite_kernel",
    "suite_mbox",
    "suite_oracle",
]

DEFAULT_SEED = 20260816

_ALL_STRATEGIES = (
    CompletionStrategy(Completion.NORMALIZE),
    CompletionStrategy(Completion.ORTHO),
    CompletionStrategy(Completion.ORTHO_SIGN),
)


# ---------------------------------------------------------------------------
# Estimation primitives.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail verdict with a human-readable residual line."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


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


def estimate_mean(values) -> EstimateWithError:
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError(f"need n >= 2 samples, got {n}")
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    return EstimateWithError(mean=mean, stderr=sd / math.sqrt(n), n=n)


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


@dataclass(frozen=True)
class JointEstimate:
    """Empirical joint distribution of (alpha, beta) with multinomial errors.

    Outcome order matches JointDist: (+1,+1), (+1,-1), (-1,+1), (-1,-1).
    """

    dist: JointDist
    stderr: tuple[float, float, float, float]
    n: int
    counts: tuple[int, int, int, int]


def estimate_joint_from_counts(counts, min_rounds: int = 1) -> JointEstimate:
    counts = tuple(int(c) for c in counts)
    if len(counts) != 4 or any(c < 0 for c in counts):
        raise ValueError(f"need 4 nonnegative outcome counts, got {counts!r}")
    n = sum(counts)
    if n < min_rounds:
        raise ValueError(f"need at least {min_rounds} rounds, got {n}")
    freqs = [c / n for c in counts]
    stderr = tuple(math.sqrt(f * (1.0 - f) / n) for f in freqs)
    return JointEstimate(dist=JointDist(*freqs), stderr=stderr, n=n, counts=counts)


def estimate_joint_from_outputs(alpha, beta, min_rounds: int = 1) -> JointEstimate:
    alpha = np.asarray(alpha)
    beta = np.asarray(beta)
    if alpha.shape != beta.shape or alpha.ndim != 1:
        raise ValueError("alpha and beta must be equal-length 1-d arrays")
    ap = alpha > 0
    bp = beta > 0
    counts = (
        int(np.count_nonzero(ap & bp)),
        int(np.count_nonzero(ap & ~bp)),
        int(np.count_nonzero(~ap & bp)),
        int(np.count_nonzero(~ap & ~bp)),
    )
    return estimate_joint_from_counts(counts, min_rounds=min_rounds)


@dataclass(frozen=True)
class ComparisonRow:
    """Target vs empirical joint: total-variation distance and worst z."""

    target: JointDist
    empirical: JointEstimate
    tv: float
    max_abs_z: float


def compare(target: JointDist, empirical: JointEstimate) -> ComparisonRow:
    t = target.clamped()
    f = empirical.dist.as_array()
    diff = np.abs(t - f)
    tv = 0.5 * float(diff.sum())
    zs = [
        d / _z_floor(se, empirical.n)
        for d, se in zip(diff.tolist(), empirical.stderr)
    ]
    return ComparisonRow(target=target, empirical=empirical, tv=tv, max_abs_z=max(zs))


# ---------------------------------------------------------------------------
# Exact oracles.
# ---------------------------------------------------------------------------


def quadrature_kernel(u, v, n_nodes: int = 10_000) -> float:
    """Deterministic product-grid average of the one-bit kernel output.

    Averages sgn(u.l1) * sgn(v.(l1 + c l2)) with c = sgn(u.l1) sgn(u.l2)
    over two point lattices, one per shared vector.  The second lattice gets
    an azimuth phase offset: with identical lattices the aligned node pairs
    bias the average above the 2e-3 band this oracle is quoted at.

    At u == v the summand is pointwise 1, so the result is exactly 1.0.
    """
    u = as_unit_vector(u)
    v = as_unit_vector(v)
    if n_nodes < 1000:
        raise ValueError(f"need n_nodes >= 1000, got {n_nodes}")
    lam1 = spherical_grid(n_nodes)
    lam2 = spherical_grid(n_nodes, phase=0.5)
    d1u = lam1 @ u
    d1v = lam1 @ v
    alpha = sign_array(d1u).astype(np.int64)
    # Fold the cbit into one per-node weight: alpha_i * sgn(u.l2_j) * (v.l2_j).
    e = sign_array(lam2 @ u).astype(float) * (lam2 @ v)
    total = 0
    chunk = 512
    for lo in range(0, n_nodes, chunk):
        hi = min(lo + chunk, n_nodes)
        x = d1v[lo:hi, None] + alpha[lo:hi, None] * e[None, :]
        rows = sign_array(x).sum(axis=1, dtype=np.int64)
        total += int((alpha[lo:hi] * rows).sum())
    return total / (n_nodes * n_nodes)


def _check_branch_sign(name: str, value: int) -> None:
    if value not in (-1, 1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")


def _check_symmetrized(a: np.ndarray, b: np.ndarray) -> None:
    if a[2] < 0.0 or b[2] < 0.0:
        raise ValueError("settings must be symmetrized (z >= 0); reflect first")


def exact_mu_average(
    param: EntanglementParam,
    a,
    b,
    strategy: CompletionStrategy,
    p: int,
    q: int,
    protocol_id: str,
) -> float:
    """Exact per-branch pre-flip correlation by brute-force sign enumeration.

    The kernel stage contributes E[alpha0 beta0 | u, v] = u.v, and the
    directions depend on the shared randomness only through independent fair
    signs.  Averaging u.v over every sign tuple is therefore exact: 2^5
    tuples for the full-distribution protocol (which reads five of the seven
    mu signs), 2^7 for the nonlocal-part protocol, times 2^2 completion signs
    under the ortho-sign strategy.  The tuples are the rows of
    protocols.direction_table for branch (p, q), the very table run_batch
    looks each sampled round's directions up in, so the oracle and the
    sampler share one direction construction.
    """
    if protocol_id not in ("p1", "p2"):
        raise ValueError(f"protocol must be 'p1' or 'p2', got {protocol_id!r}")
    _check_branch_sign("p", p)
    _check_branch_sign("q", q)
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    _check_symmetrized(a, b)
    u_rows, v_rows = direction_table(param, a, b, (p,), (q,), strategy, protocol_id)
    return float(np.einsum("ij,ij->i", u_rows, v_rows).mean())


def branch_correlation_claim(
    param: EntanglementParam,
    a,
    b,
    p: int,
    q: int,
    protocol_id: str,
) -> float:
    """The claimed closed form for the same branch average.

    This is the scalar product the construction is said to average to once
    the sign bundle integrates out; exact_mu_average measures how close a
    realizable completion actually gets.
    """
    if protocol_id not in ("p1", "p2"):
        raise ValueError(f"protocol must be 'p1' or 'p2', got {protocol_id!r}")
    _check_branch_sign("p", p)
    _check_branch_sign("q", q)
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    _check_symmetrized(a, b)
    if protocol_id == "p1":
        if p == q:
            return float(a @ aux_axis(param, b))
        return float(aux_axis(param, a) @ b)
    b_rot = rotate_pi_about_x(b)
    a_in = in_slice(param, a[2])
    b_in = in_slice(param, b[2])
    if a_in and b_in:
        return float(a @ b_rot)
    if a_in:
        return float(a @ aux_axis(param, b))
    if b_in:
        return float(aux_axis_alice_nl(param, a) @ b_rot)
    if p == q:
        return float(a @ aux_axis(param, b))
    return float(aux_axis_alice_nl(param, a) @ b_rot)


def flip_moments_exact(
    c0: float, f_a: float, f_b: float
) -> tuple[Fraction, Fraction, Fraction]:
    """Moments (mean alpha, mean beta, mean alpha*beta) after coupled flips.

    Computed with no sampling and no tolerance: the shared uniform r only
    matters through which of the bands [0, f_min), [f_min, f_max), [f_max, 1)
    it falls in, so each band is evaluated once at a representative point by
    correlated_flip, the flip rule run_batch applies to every sampled round,
    then weighted by its exact width.  The pre-flip signs carry the
    zero-marginal weights (1 + a*b*c0)/4.
    """
    if not -1.0 <= c0 <= 1.0:
        raise ValueError(f"pre-flip correlation must lie in [-1, 1], got {c0}")
    spec = FlipSpec(f_a, f_b)
    lo = min(f_a, f_b)
    hi = max(f_a, f_b)
    bands = [
        (width, rep)
        for width, rep in (
            (Fraction(lo), 0.0),
            (Fraction(hi) - Fraction(lo), lo),
            (1 - Fraction(hi), hi),
        )
        if width != 0
    ]
    # the four (alpha0, beta0) cells of every band through the flip rule at once
    a0 = np.tile([-1, -1, 1, 1], len(bands))
    b0 = np.tile([-1, 1, -1, 1], len(bands))
    alpha, beta = correlated_flip(a0, b0, spec, np.repeat([rep for _, rep in bands], 4))
    # A band's cells weigh width * (1 + a0*b0*c0) / 4, so each moment gains
    # width/4 * (sum x + c0 * sum a0*b0*x) over exact integer cell sums.
    c0_frac = Fraction(c0)
    moments = [Fraction(0)] * 3
    for k, (width, _) in enumerate(bands):
        cell = slice(4 * k, 4 * k + 4)
        for j, x in enumerate((alpha[cell], beta[cell], alpha[cell] * beta[cell])):
            s = int(x.sum())
            t = int((a0[cell] * b0[cell] * x).sum())
            moments[j] += width * (s + t * c0_frac) / 4
    return tuple(moments)


def flip_moments_claim(
    c0: float, f_a: float, f_b: float
) -> tuple[Fraction, Fraction, Fraction]:
    """Closed-form moments the coupled flips are supposed to produce."""
    if not -1.0 <= c0 <= 1.0:
        raise ValueError(f"pre-flip correlation must lie in [-1, 1], got {c0}")
    FlipSpec(f_a, f_b)
    lo = Fraction(min(f_a, f_b))
    hi = Fraction(max(f_a, f_b))
    return Fraction(f_a), Fraction(f_b), lo + (1 - hi) * Fraction(c0)


def realized_joint(
    param: EntanglementParam,
    a,
    b,
    strategy: CompletionStrategy,
    protocol: str,
) -> JointDist:
    """Exact law of the final outputs (alpha, beta) of p1 or p2 at one setting.

    The box coin p is fair and q = p (2[a_z <= b_z] - 1) on the symmetrized
    settings.  Given the branch, the kernel's outputs have zero marginals and
    correlation c_pq = exact_mu_average(p, q), so each branch's pre-flip law
    is (1 + alpha0 beta0 c_pq)/4.  flip_moments_exact passes it through
    correlated_flip, sign_a and sign_b reflect it back, and the two branches
    weigh 1/2 each.  No rounds are sampled.
    """
    if protocol not in ("p1", "p2"):
        raise ValueError(f"protocol must be 'p1' or 'p2', got {protocol!r}")
    a1, b1, sign_a, sign_b = symmetrize(a, b)
    spec = flip_spec(param, a1, b1, protocol)
    q_per_p = 2 * compare_bit(a1[2], b1[2]) - 1
    moments = [0.0, 0.0, 0.0]
    for p in (1, -1):
        c = exact_mu_average(param, a1, b1, strategy, p, p * q_per_p, protocol)
        # a mean of unit-vector dot products can round past +-1
        c = min(1.0, max(-1.0, c))
        for k, m in enumerate(flip_moments_exact(c, spec.f_a, spec.f_b)):
            moments[k] += 0.5 * float(m)
    mean_a, mean_b, corr = moments
    return _joint_from_moments(sign_a * mean_a, sign_b * mean_b, sign_a * sign_b * corr)


# ---------------------------------------------------------------------------
# The Monte Carlo accumulator over the batch engine.
# ---------------------------------------------------------------------------

@dataclass
class ChunkStats:
    """Exact integer aggregates of a batch; merging is order-independent.

    counts follows JointDist's outcome order; branch maps each realized
    (p, q) to [rounds, sum of alpha0 * beta0].
    """

    n: int = 0
    counts: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))
    alpha0_sum: int = 0
    beta0_sum: int = 0
    branch: dict = field(default_factory=dict)

    def add(self, other: "ChunkStats") -> "ChunkStats":
        self.n += other.n
        self.counts += other.counts
        self.alpha0_sum += other.alpha0_sum
        self.beta0_sum += other.beta0_sum
        for key, (bn, bsum) in other.branch.items():
            acc = self.branch.setdefault(key, [0, 0])
            acc[0] += bn
            acc[1] += bsum
        return self


def _stats_from_batch(out) -> ChunkStats:
    idx = (out.alpha < 0).astype(np.int64) * 2 + (out.beta < 0)
    stats = ChunkStats(
        n=out.n,
        counts=np.bincount(idx, minlength=4).astype(np.int64),
        alpha0_sum=int(out.alpha0.sum(dtype=np.int64)),
        beta0_sum=int(out.beta0.sum(dtype=np.int64)),
    )
    prod = out.alpha0.astype(np.int64) * out.beta0
    for pv in (1, -1):
        for qv in (1, -1):
            mask = (out.p == pv) & (out.q == qv)
            hits = int(np.count_nonzero(mask))
            if hits:
                stats.branch[(pv, qv)] = [hits, int(prod[mask].sum())]
    return stats


def _sample_setting(
    param: EntanglementParam,
    a,
    b,
    strategy: CompletionStrategy,
    protocol: str,
    rounds: int,
    seed: int,
    setting_index: int = 0,
) -> ChunkStats:
    """Aggregate rounds [0, rounds) of one setting, chunk by chunk.

    The rows come from the addressed stream of (seed, setting_index), so the
    result equals, integer for integer, the aggregate of that setting in a
    run_experiment report with the same seed.
    """
    stats = ChunkStats()
    for start in range(0, rounds, CHUNK):
        rr = RoundRandomness.from_uniform_block(
            round_uniform_block(seed, setting_index, start, min(CHUNK, rounds - start))
        )
        out = run_batch(param, a, b, rr, strategy, protocol)
        stats.add(_stats_from_batch(out))
    return stats


def mc_round_moments(
    param: EntanglementParam,
    a,
    b,
    strategy: CompletionStrategy,
    protocol: str,
    rounds: int,
    seed: int,
) -> dict:
    """MC means of the pre-flip outputs alpha0, beta0 and the final alpha, beta."""
    stats = _sample_setting(param, a, b, strategy, protocol, rounds, seed)
    pp, pm, mp, mm = stats.counts.tolist()
    sums = {
        "alpha0": stats.alpha0_sum,
        "beta0": stats.beta0_sum,
        "alpha": pp + pm - mp - mm,
        "beta": pp - pm + mp - mm,
    }
    return {key: sign_mean_estimate(total, rounds) for key, total in sums.items()}


def mc_branch_correlations(
    param: EntanglementParam,
    a,
    b,
    strategy: CompletionStrategy,
    protocol: str,
    rounds: int,
    seed: int,
) -> dict:
    """MC estimate of the pre-flip correlation conditioned on each branch.

    Returns {(p, q): EstimateWithError} for the branch values that actually
    occurred; with the box-bit pairing only two of the four combinations can
    occur at a fixed setting pair.
    """
    stats = _sample_setting(param, a, b, strategy, protocol, rounds, seed)
    return {
        branch: sign_mean_estimate(total, n) for branch, (n, total) in stats.branch.items()
    }


# ---------------------------------------------------------------------------
# Decomposition suite.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Epr2Report:
    """Grid-scan residuals for the local/nonlocal split at one gamma."""

    gamma: float
    grid_n: int
    n_pairs: int
    max_reconstruction_residual: float
    min_nl_entry: float
    max_flip_in_band: float
    min_flip_outside: float
    max_four_case_residual: float


def epr2_suite(param: EntanglementParam, grid_n: int = 20) -> Epr2Report:
    """Scan a settings grid for the decomposition and flip-consistency facts.

    Checks, per settings pair: the weighted local/nonlocal reconstruction of
    the full joint; nonnegativity of the nonlocal part; exact vanishing of
    the flip probability on the equatorial band (and strict positivity off
    it, when the state is not maximally entangled); and that the coupled-flip
    enumeration applied to the pre-flip correlation lands exactly on the
    nonlocal correlation, covering all four in/out band cases.
    """
    if param.sin2g <= 0.0:
        raise ValueError("decomposition suite requires gamma > 0")
    if grid_n < 10:
        raise ValueError(f"need grid_n >= 10, got {grid_n}")
    s = param.sin2g
    om = 1.0 - s
    a_grid = spherical_grid(grid_n)
    b_grid = spherical_grid(grid_n, phase=0.5)

    max_recon = 0.0
    min_nl = math.inf
    max_in_band = 0.0
    min_outside = math.inf
    max_four_case = 0.0

    t = slice_threshold(param)
    for z in (0.0, t, -t, t / 2.0, -t / 2.0):
        max_in_band = max(max_in_band, abs(epr2_flip_probability(param, z)))

    for za in (a_grid[:, 2], b_grid[:, 2]):
        for z in za.tolist():
            f = epr2_flip_probability(param, z)
            if in_slice(param, z):
                max_in_band = max(max_in_band, abs(f))
            else:
                min_outside = min(min_outside, f if z > 0 else -f)

    for a in a_grid:
        for b in b_grid:
            qm = joint_qm(param, a, b).as_array()
            nl = joint_nl(param, a, b).as_array()
            local = joint_local_product(param, a, b).as_array()
            max_recon = max(max_recon, float(np.abs(qm - om * local - s * nl).max()))
            min_nl = min(min_nl, float(nl.min()))

            a1, b1, sign_a, sign_b = symmetrize(a, b)
            c0 = pre_flip_correlation_nl(param, a1, b1)
            _, _, m_ab = flip_moments_exact(
                c0,
                epr2_flip_probability(param, a1[2]),
                epr2_flip_probability(param, b1[2]),
            )
            predicted = sign_a * sign_b * float(m_ab)
            target = epr2_correlation(param, a, b)
            max_four_case = max(max_four_case, abs(predicted - target))

    return Epr2Report(
        gamma=param.gamma,
        grid_n=grid_n,
        n_pairs=len(a_grid) * len(b_grid),
        max_reconstruction_residual=max_recon,
        min_nl_entry=min_nl,
        max_flip_in_band=max_in_band,
        min_flip_outside=min_outside,
        max_four_case_residual=max_four_case,
    )


# ---------------------------------------------------------------------------
# Claim residuals: the verification experiment.
# ---------------------------------------------------------------------------


def _reflected_setting_pairs(n_settings: int, seed: int) -> list:
    g = np.random.Generator(np.random.Philox(key=seed))
    pairs = []
    for _ in range(n_settings):
        a = sample_unit_sphere(g)
        b = sample_unit_sphere(g)
        if a[2] < 0.0:
            a = -a
        if b[2] < 0.0:
            b = -b
        pairs.append((a, b))
    return pairs


def claim_residual_report(
    gammas=(math.pi / 8, math.pi / 4),
    strategies=_ALL_STRATEGIES,
    n_settings: int = 100,
    seed: int = DEFAULT_SEED,
    protocols=("p1", "p2"),
) -> dict:
    """Max |exact branch average - claimed scalar product| per strategy.

    Pure enumeration end to end: the only randomness is the seeded settings
    draw, so two runs with the same arguments produce identical output, bit
    for bit.  A zero residual would mean the claimed identity holds exactly
    for that completion strategy; the report records whatever is true.
    """
    pairs = _reflected_setting_pairs(n_settings, seed)
    by_strategy: dict = {}
    for strategy in strategies:
        per_gamma: dict = {}
        for gamma in gammas:
            param = EntanglementParam(gamma)
            per_protocol: dict = {}
            for protocol in protocols:
                worst = 0.0
                worst_at = {"branch": "pq+", "setting": 0}
                for idx, (a, b) in enumerate(pairs):
                    for label, (p, q) in (("pq+", (1, 1)), ("pq-", (1, -1))):
                        oracle = exact_mu_average(param, a, b, strategy, p, q, protocol)
                        claim = branch_correlation_claim(param, a, b, p, q, protocol)
                        residual = abs(oracle - claim)
                        if residual > worst:
                            worst = residual
                            worst_at = {"branch": label, "setting": idx}
                per_protocol[protocol] = {
                    "max_residual": worst,
                    "argmax_branch": worst_at["branch"],
                    "argmax_setting": worst_at["setting"],
                }
            per_gamma[repr(float(gamma))] = per_protocol
        by_strategy[strategy.tag.value] = per_gamma
    return {
        "gammas": [float(g) for g in gammas],
        "n_settings": n_settings,
        "protocols": list(protocols),
        "seed": seed,
        "strategies": by_strategy,
    }


# ---------------------------------------------------------------------------
# Comparison reports (consumed by the runtime and the CLI).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchStat:
    """Conditional pre-flip correlation on one realized (p, q) branch."""

    p: int
    q: int
    n: int
    corr_mean: float
    corr_stderr: float


@dataclass(frozen=True)
class SettingComparison:
    """Everything measured at one settings pair."""

    a: tuple[float, float, float]
    b: tuple[float, float, float]
    row: ComparisonRow
    alpha0: EstimateWithError | None
    beta0: EstimateWithError | None
    branches: tuple[BranchStat, ...]


@dataclass(frozen=True)
class ComparisonReport:
    """Per-setting target/empirical comparisons plus the run's identity."""

    protocol: str
    gamma: float
    completion: str
    seed: int
    rounds: int
    settings_source: str
    records: tuple[SettingComparison, ...]

    @property
    def max_tv(self) -> float:
        return max((r.row.tv for r in self.records), default=0.0)

    @property
    def max_abs_z(self) -> float:
        return max((r.row.max_abs_z for r in self.records), default=0.0)


def report_to_json_dict(report: ComparisonReport) -> dict:
    records = []
    for rec in report.records:
        row = rec.row
        records.append(
            {
                "a": list(rec.a),
                "b": list(rec.b),
                "n": row.empirical.n,
                "target": [float(x) for x in row.target.clamped()],
                "empirical": [float(x) for x in row.empirical.dist.as_array()],
                "stderr": list(row.empirical.stderr),
                "counts": list(row.empirical.counts),
                "tv": row.tv,
                "max_abs_z": row.max_abs_z,
                # A single-round record has no standard error to report.
                "pre_flip": None
                if rec.alpha0 is None
                else {
                    "alpha0_mean": rec.alpha0.mean,
                    "alpha0_stderr": rec.alpha0.stderr,
                    "beta0_mean": rec.beta0.mean,
                    "beta0_stderr": rec.beta0.stderr,
                },
                "branches": [
                    {
                        "p": br.p,
                        "q": br.q,
                        "n": br.n,
                        "corr_mean": br.corr_mean,
                        "corr_stderr": br.corr_stderr,
                    }
                    for br in rec.branches
                ],
            }
        )
    return {
        "config": {
            "stream": STREAM,
            "protocol": report.protocol,
            "gamma": report.gamma,
            "completion": report.completion,
            "seed": report.seed,
            "rounds": report.rounds,
            "settings_source": report.settings_source,
        },
        "summary": {
            "n_settings": len(report.records),
            "max_tv": report.max_tv,
            "max_abs_z": report.max_abs_z,
        },
        "records": records,
    }


_CSV_HEADER = [
    "ax", "ay", "az", "bx", "by", "bz",
    "n", "tv", "max_abs_z",
    "target_pp", "target_pm", "target_mp", "target_mm",
    "emp_pp", "emp_pm", "emp_mp", "emp_mm",
    "alpha0_mean", "beta0_mean",
]


def report_csv_rows(report: ComparisonReport) -> tuple[list[str], list[list]]:
    """Flat per-setting rows for the CSV sibling of the JSON report."""
    rows = []
    for rec in report.records:
        row = rec.row
        target = [float(x) for x in row.target.clamped()]
        emp = [float(x) for x in row.empirical.dist.as_array()]
        pre = [rec.alpha0.mean, rec.beta0.mean] if rec.alpha0 is not None else ["", ""]
        rows.append(
            list(rec.a)
            + list(rec.b)
            + [row.empirical.n, row.tv, row.max_abs_z]
            + target
            + emp
            + pre
        )
    return list(_CSV_HEADER), rows


# ---------------------------------------------------------------------------
# Named check suites (shared by the CLI and the acceptance tests).
# ---------------------------------------------------------------------------


def suite_mbox(rounds: int = 1_000_000, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Exhaustive XOR contract on a 21x21 input grid plus output uniformity."""
    grid = np.linspace(0.0, 1.0, 21)
    bad = 0
    for x in grid.tolist():
        for y in grid.tolist():
            want = 1 if x <= y else 0
            for u in (0.25, 0.75):
                out = outcome_from_uniform(x, y, u)
                if (out.m ^ out.n) != want or out.m != (1 if u < 0.5 else 0):
                    bad += 1
    checks = [
        CheckResult(
            "mbox-xor-grid",
            bad == 0,
            f"{bad} violations over {grid.size * grid.size} inputs x 2 coins",
        )
    ]
    g = np.random.Generator(np.random.Philox(key=seed))
    u = g.random(rounds)
    ones = sum(outcome_from_uniform(0.3, 0.7, float(ui)).m for ui in u.tolist())
    z = abs(ones / rounds - 0.5) / (0.5 / math.sqrt(rounds))
    checks.append(
        CheckResult(
            "mbox-m-uniform",
            z <= 4.0,
            f"mean {ones / rounds:.6f} over {rounds} calls, z = {z:.2f}",
        )
    )
    return checks


def suite_kernel(
    n_pairs: int = 20,
    rounds: int = 1_000_000,
    n_nodes: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Kernel triangle: MC, quadrature, and the analytic value u.v agree.

    The aligned check reads setting index 0 of the seed's round streams and
    pair i reads index i + 1, so each pair's rounds are those a tb run of
    run_experiment would sample there.
    """
    g = np.random.Generator(np.random.Philox(key=seed))
    param = EntanglementParam(0.0)
    strategy = _ALL_STRATEGIES[0]

    exact_one = quadrature_kernel([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], n_nodes=1000)
    pointwise = abs(exact_one - 1.0)
    u0 = sample_unit_sphere(g)
    aligned = RoundRandomness.from_uniform_block(round_uniform_block(seed, 0, 0, 100))
    out = run_batch(param, u0, u0, aligned, strategy, "tb")
    if np.any(out.alpha * out.beta != 1):
        pointwise = math.inf
    checks = [
        CheckResult(
            "kernel-aligned-exact",
            pointwise <= 1e-12,
            f"|quadrature(u,u) - 1| = {pointwise:.3e}, 100 sampled rounds all +1",
        )
    ]

    pairs = [(sample_unit_sphere(g), sample_unit_sphere(g)) for _ in range(n_pairs)]
    pairs.append((np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])))
    worst_z = 0.0
    worst_quad = 0.0
    for i, (u, v) in enumerate(pairs):
        stats = _sample_setting(param, u, v, strategy, "tb", rounds, seed, setting_index=i + 1)
        pp, pm, mp, mm = stats.counts.tolist()
        total = pp - pm - mp + mm
        est = sign_mean_estimate(total, rounds)
        analytic = float(u @ v)
        z = abs(est.mean - analytic) / _z_floor(est.stderr, rounds)
        quad = abs(quadrature_kernel(u, v, n_nodes=n_nodes) - analytic)
        worst_z = max(worst_z, z)
        worst_quad = max(worst_quad, quad)
    checks.append(
        CheckResult(
            "kernel-mc-4sigma",
            worst_z <= 4.0,
            f"max |z| = {worst_z:.2f} over {len(pairs)} pairs x {rounds} rounds",
        )
    )
    checks.append(
        CheckResult(
            "kernel-quadrature-2e-3",
            worst_quad <= 2e-3,
            f"max |quadrature - u.v| = {worst_quad:.2e} at {n_nodes} nodes",
        )
    )
    return checks


def suite_flip(trials: int = 1000, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Exact enumeration vs closed-form flip moments, rational arithmetic."""
    g = np.random.Generator(np.random.Philox(key=seed))
    worst = Fraction(0)
    for _ in range(trials):
        c0 = float(g.uniform(-1.0, 1.0))
        f_a = float(g.random())
        f_b = float(g.random())
        exact = flip_moments_exact(c0, f_a, f_b)
        claim = flip_moments_claim(c0, f_a, f_b)
        worst = max(worst, *(abs(e - c) for e, c in zip(exact, claim)))
    corner_ok = (
        flip_moments_exact(0.25, 0.0, 0.0) == (0, 0, Fraction(0.25))
        and flip_moments_exact(-0.5, 1.0, 1.0) == (1, 1, 1)
    )
    return [
        CheckResult(
            "flip-moments-exact",
            float(worst) <= 1e-15,
            f"max |enumeration - claim| = {float(worst):.3e} over {trials} triples",
        ),
        CheckResult(
            "flip-moments-corners",
            corner_ok,
            "no-flip and always-flip corners reproduce (0,0,c0) and (1,1,1)",
        ),
    ]


_EPR2_GAMMAS = (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4)


def suite_epr2(gamma: float | None = None, grid_n: int = 20) -> list[CheckResult]:
    """Decomposition residuals at one gamma, or the standard four."""
    gammas = _EPR2_GAMMAS if gamma is None else (gamma,)
    checks = []
    for gm in gammas:
        param = EntanglementParam(gm)
        rep = epr2_suite(param, grid_n=grid_n)
        tag = f"gamma={gm:.6f}"
        checks.append(
            CheckResult(
                f"epr2-reconstruction[{tag}]",
                rep.max_reconstruction_residual <= 1e-12,
                f"max residual {rep.max_reconstruction_residual:.3e} "
                f"over {rep.n_pairs} pairs",
            )
        )
        checks.append(
            CheckResult(
                f"epr2-nl-nonnegative[{tag}]",
                rep.min_nl_entry >= -1e-12,
                f"min entry {rep.min_nl_entry:.3e}",
            )
        )
        outside = (
            f", min outside {rep.min_flip_outside:.3e}"
            if math.isfinite(rep.min_flip_outside)
            else ""
        )
        positive_off_band = param.sin2g >= 1.0 or rep.min_flip_outside > 0.0
        checks.append(
            CheckResult(
                f"epr2-flip-vanishes-in-band[{tag}]",
                rep.max_flip_in_band == 0.0 and positive_off_band,
                f"max in band {rep.max_flip_in_band:.3e}{outside}",
            )
        )
        checks.append(
            CheckResult(
                f"epr2-four-case-identity[{tag}]",
                rep.max_four_case_residual <= 1e-12,
                f"max residual {rep.max_four_case_residual:.3e}",
            )
        )
    return checks


def suite_oracle(
    gamma: float = math.pi / 8,
    n_settings: int = 10,
    rounds: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    protocols=("p1", "p2"),
) -> list[CheckResult]:
    """Sampled branch correlations vs the exact enumeration oracle."""
    param = EntanglementParam(gamma)
    pairs = _reflected_setting_pairs(n_settings, seed)
    checks = []
    case = 0
    for protocol in protocols:
        for strategy in _ALL_STRATEGIES:
            worst_z = 0.0
            for a, b in pairs:
                case += 1
                mc = mc_branch_correlations(
                    param, a, b, strategy, protocol, rounds, seed + 7919 * case
                )
                for (p, q), est in sorted(mc.items()):
                    oracle = exact_mu_average(param, a, b, strategy, p, q, protocol)
                    z = abs(est.mean - oracle) / _z_floor(est.stderr, est.n)
                    worst_z = max(worst_z, z)
            checks.append(
                CheckResult(
                    f"oracle-vs-mc[{protocol},{strategy.tag.value}]",
                    worst_z <= 4.0,
                    f"max |z| = {worst_z:.2f} over {n_settings} settings, "
                    f"{rounds} rounds each",
                )
            )
    return checks
