"""Exact oracles, Monte Carlo estimates, and the named check suites.

Three kinds of evidence live here, kept deliberately separate:

* statistical estimates from sampled rounds (sign-variable means, always
  with standard errors), histogrammed by runtime.sample_settings, the
  sampler behind every report, so a suite's rounds are those a
  run_experiment at the same seed and setting index samples;
* exact oracles that bypass sampling entirely: sign-tuple enumeration for
  the direction averages, product-grid quadrature for the one-bit kernel
  (an n x n node grid summed exactly by sorting and counting),
  and rational arithmetic for the flip algebra;
* claimed closed forms, recorded as claims and compared against the oracles
  with the residual reported rather than assumed zero.

Whether the claimed per-branch direction-average identity survives a
realizable completion strategy is exactly what claim_residual_report
measures; nothing in this module treats that identity as an axiom.

Distributions over (alpha, beta), sampled frequencies and exact laws alike,
are plain arrays in quantum's outcome order (+,+), (+,-), (-,+), (-,-).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import compare_bit, outcome_from_uniform
from .geometry import (
    Completion,
    as_unit_vector,
    sample_unit_sphere,
    sign_array,
    spherical_grid,
)
# alice_direction_rows, bob_direction_rows and run_batch are not called here
# (the oracle reaches the first two through direction_table, and sampling goes
# through runtime), but stay importable from this module: perfbench/tracing.py
# wraps them under verify as well as under protocols and runtime.
from .protocols import (  # noqa: F401
    FlipSpec,
    alice_direction_rows,
    bob_direction_rows,
    correlated_flip,
    direction_table,
    flip_spec,
    run_batch,
    symmetrize,
)
from .quantum import (
    EntanglementParam,
    _joint_from_moments,
    aux_axis,
    branch_pairing,
    checked_distribution,
    epr2_correlation,
    epr2_flip_probability,
    in_slice,
    joint_local_product,
    joint_nl,
    joint_qm,
    pre_flip_correlation,
    slice_threshold,
)
# EstimateWithError and report_to_json_dict stay importable here for perfbench.
from .runtime import (  # noqa: F401
    _CELL_SIGNS,
    EstimateWithError,
    _z_floor,
    report_to_json_dict,
    sample_settings,
    sign_mean_estimate,
)

__all__ = [
    "CheckResult",
    "branch_correlation_claim",
    "claim_residual_report",
    "exact_mu_average",
    "flip_moments_claim",
    "flip_moments_exact",
    "mc_branch_correlations",
    "mc_round_moments",
    "quadrature_kernel",
    "realized_joint",
    "suite_epr2",
    "suite_flip",
    "suite_kernel",
    "suite_mbox",
    "suite_oracle",
]

DEFAULT_SEED = 20260816

# The protocols whose rounds take a box branch: the oracles' domain.
_BRANCH_PROTOCOLS = ("p1", "p2")


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail verdict with a human-readable residual line."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# Exact oracles.
# ---------------------------------------------------------------------------


def quadrature_kernel(u, v, n_nodes: int = 10_000) -> float:
    """Deterministic product-grid average of the one-bit kernel output.

    Averages sgn(u.l1) * sgn(v.(l1 + c l2)) with c = sgn(u.l1) sgn(u.l2)
    over two point lattices, one per shared vector.  The second lattice gets
    an azimuth phase offset: with identical lattices the aligned node pairs
    bias the average above the 2e-3 band this oracle is quoted at.

    With d_i = v.l1_i, alpha_i = sgn(u.l1_i) and e_j = sgn(u.l2_j) v.l2_j,
    the summand is alpha_i sgn(d_i + alpha_i e_j).  Since alpha_i = +-1 and
    a rounded sum of two doubles has the sign of the exact sum, row i sums
    to 2 count_i - n, where count_i counts the e_j >= -d_i for alpha_i = +1
    and the e_j <= d_i for alpha_i = -1; a tie (d_i + alpha_i e_j == 0)
    counts, as sgn(0) = +1.  One sort of e turns each count into one binary
    search, so the integer total is the n x n grid's in O(n log n).

    At u == v the summand is pointwise 1, so the result is exactly 1.0.
    """
    u = as_unit_vector(u)
    v = as_unit_vector(v)
    if n_nodes < 1000:
        raise ValueError(f"need n_nodes >= 1000, got {n_nodes}")
    lam1 = spherical_grid(n_nodes)
    lam2 = spherical_grid(n_nodes, phase=0.5)
    d = lam1 @ v
    alpha = sign_array(lam1 @ u)
    # Fold the cbit into one per-node weight: e_j = sgn(u.l2_j) * (v.l2_j).
    e = np.sort(sign_array(lam2 @ u) * (lam2 @ v))
    counts = np.where(
        alpha > 0,
        n_nodes - np.searchsorted(e, -d, side="left"),
        np.searchsorted(e, d, side="right"),
    )
    total = int((alpha * (2 * counts - n_nodes)).sum())
    return total / (n_nodes * n_nodes)


def _branch_settings(a, b, p: int, q: int, protocol_id: str):
    """Validated unit settings for one branch (p, q) of p1 or p2; they must
    already be symmetrized (both z >= 0)."""
    if protocol_id not in _BRANCH_PROTOCOLS:
        raise ValueError(f"protocol must be 'p1' or 'p2', got {protocol_id!r}")
    for name, value in (("p", p), ("q", q)):
        if value not in (-1, 1):
            raise ValueError(f"{name} must be +1 or -1, got {value!r}")
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    if a[2] < 0.0 or b[2] < 0.0:
        raise ValueError("settings must be symmetrized (z >= 0); reflect first")
    return a, b


def exact_mu_average(
    param: EntanglementParam,
    a,
    b,
    strategy: Completion,
    p: int,
    q: int,
    protocol_id: str,
) -> float:
    """Exact per-branch pre-flip correlation by brute-force sign enumeration.

    The kernel stage contributes E[alpha0 beta0 | u, v] = u.v, and the
    directions depend on the shared randomness only through independent fair
    signs.  Averaging u.v over every sign tuple is therefore exact: 2^5
    tuples for the full-distribution protocol (which reads five of the seven
    mu signs) and 2^7 for the nonlocal-part protocol, under every completion
    strategy.  The tuples are the rows of
    protocols.direction_table for branch (p, q), the very table run_batch
    looks each sampled round's directions up in, so the oracle and the
    sampler share one direction construction.
    """
    a, b = _branch_settings(a, b, p, q, protocol_id)
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
    the sign bundle integrates out: branch_pairing with aux_axis on branch
    p == q.  exact_mu_average measures how close a realizable completion
    actually gets.
    """
    a, b = _branch_settings(a, b, p, q, protocol_id)
    x, y = branch_pairing(param, a, b, p == q, protocol_id, aux_axis)
    return float(x @ y)


# The four (alpha0, beta0) cells of each of the three bands, in band order.
_FLIP_A0 = np.array([-1, -1, 1, 1] * 3)
_FLIP_B0 = np.array([-1, 1, -1, 1] * 3)


def flip_moments_exact(
    c0: float, f_a: float, f_b: float
) -> tuple[Fraction, Fraction, Fraction]:
    """Moments (mean alpha, mean beta, mean alpha*beta) after coupled flips.

    Computed with no sampling and no tolerance: the shared uniform r only
    matters through which of the bands [0, f_min), [f_min, f_max), [f_max, 1)
    it falls in, so each band's four pre-flip cells go once through
    correlated_flip, the flip rule run_batch applies to every sampled round,
    at the band's lower end.  Every float is an integer over a power of two,
    so over the largest of the three denominators D, f_min, f_max and c0 are
    integers and so is each band's width.  A cell weighs width * (1 + alpha0
    beta0 c0)/4, and each moment is one integer sum over 4 D^2.
    """
    if not -1.0 <= c0 <= 1.0:
        raise ValueError(f"pre-flip correlation must lie in [-1, 1], got {c0}")
    spec = FlipSpec(f_a, f_b)
    lo = min(f_a, f_b)
    hi = max(f_a, f_b)
    ratios = [x.as_integer_ratio() for x in (lo, hi, c0)]
    d = max(den for _, den in ratios)
    lo_n, hi_n, c_n = (num * (d // den) for num, den in ratios)
    bands = [(w, rep) for w, rep in ((lo_n, 0.0), (hi_n - lo_n, lo), (d - hi_n, hi)) if w]
    n = 4 * len(bands)
    r = np.array([rep for _, rep in bands for _ in range(4)])
    alpha, beta = (x.tolist() for x in correlated_flip(_FLIP_A0[:n], _FLIP_B0[:n], spec, r))
    # Over a band's cells (alpha0*beta0 = +1, -1, -1, +1), sum x + c0 * sum
    # alpha0*beta0*x is (s*d + t*c_n)/d for the integer sums s and t.
    nums = [0, 0, 0]
    for k, (w, _) in enumerate(bands):
        a, b = alpha[4 * k : 4 * k + 4], beta[4 * k : 4 * k + 4]
        for j, x in enumerate((a, b, [u * v for u, v in zip(a, b)])):
            s = x[0] + x[1] + x[2] + x[3]
            t = x[0] - x[1] - x[2] + x[3]
            nums[j] += w * (s * d + t * c_n)
    return tuple(Fraction(num, 4 * d * d) for num in nums)


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
    strategy: Completion,
    protocol: str,
) -> np.ndarray:
    """Exact law of the final outputs (alpha, beta) of p1 or p2 at one setting.

    The box coin p is fair and q = p (2[a_z <= b_z] - 1) on the symmetrized
    settings.  Given the branch, the kernel's outputs have zero marginals and
    correlation c_pq = exact_mu_average(p, q), so each branch's pre-flip law
    is (1 + alpha0 beta0 c_pq)/4.  flip_moments_exact passes it through
    correlated_flip, sign_a and sign_b reflect it back, and the two branches
    weigh 1/2 each.  No rounds are sampled.
    """
    if protocol not in _BRANCH_PROTOCOLS:
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
# Monte Carlo estimates through runtime's sampler.
# ---------------------------------------------------------------------------


def mc_round_moments(
    param: EntanglementParam,
    a,
    b,
    strategy: Completion,
    protocol: str,
    rounds: int,
    seed: int,
) -> dict:
    """MC means of the pre-flip outputs alpha0, beta0 and the final alpha, beta."""
    [stats] = sample_settings(param, [(a, b)], strategy, protocol, rounds, seed)
    return {key: sign_mean_estimate(stats.sign_sum(key), rounds) for key in _CELL_SIGNS}


def mc_branch_correlations(
    param: EntanglementParam,
    a,
    b,
    strategy: Completion,
    protocol: str,
    rounds: int,
    seed: int,
) -> dict:
    """MC estimate of the pre-flip correlation conditioned on each branch.

    Returns {(p, q): EstimateWithError} for the branch values that occurred
    in at least two rounds, as a report lists them (a standard error needs
    two); with the box-bit pairing only two of the four combinations can
    occur at a fixed setting pair.
    """
    [stats] = sample_settings(param, [(a, b)], strategy, protocol, rounds, seed)
    return {
        branch: sign_mean_estimate(total, n)
        for branch, (n, total) in stats.branches.items()
        if n >= 2
    }


# ---------------------------------------------------------------------------
# Claim residuals: the verification experiment.
# ---------------------------------------------------------------------------


def _reflected_setting_pairs(n_settings: int, seed: int) -> list:
    g = np.random.Generator(np.random.Philox(key=seed))
    pairs = []
    for _ in range(n_settings):
        a1, b1, _, _ = symmetrize(sample_unit_sphere(g), sample_unit_sphere(g))
        pairs.append((a1, b1))
    return pairs


# The residual report's state angles: mid-family and maximally entangled.
_RESIDUAL_GAMMAS = (math.pi / 8, math.pi / 4)


def claim_residual_report(n_settings: int = 100, seed: int = DEFAULT_SEED) -> dict:
    """Max |exact branch average - claimed scalar product| per completion,
    at gamma = pi/8 and pi/4, for p1 and p2.

    Pure enumeration end to end: the only randomness is the seeded settings
    draw, so two runs with the same arguments produce identical output, bit
    for bit.  A zero residual would mean the claimed identity holds exactly
    for that completion strategy; the report records whatever is true.
    """
    # a maximum over no settings would read as an exact identity
    if n_settings < 1:
        raise ValueError(f"need n_settings >= 1, got {n_settings}")
    pairs = _reflected_setting_pairs(n_settings, seed)
    by_strategy: dict = {}
    for strategy in Completion:
        per_gamma: dict = {}
        for gamma in _RESIDUAL_GAMMAS:
            param = EntanglementParam(gamma)
            per_protocol: dict = {}
            for protocol in _BRANCH_PROTOCOLS:
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
        by_strategy[strategy.value] = per_gamma
    return {
        "gammas": [float(g) for g in _RESIDUAL_GAMMAS],
        "n_settings": n_settings,
        "protocols": list(_BRANCH_PROTOCOLS),
        "seed": seed,
        "strategies": by_strategy,
    }


# ---------------------------------------------------------------------------
# Named check suites (shared by the CLI and the acceptance tests).
# ---------------------------------------------------------------------------


def suite_mbox(rounds: int = 1_000_000, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Exhaustive XOR contract on a 21x21 input grid plus output uniformity."""
    if rounds < 1:
        raise ValueError(f"need rounds >= 1, got {rounds}")
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
    # A standard error needs two rounds; the quadrature needs 1000 nodes.
    if rounds < 2:
        raise ValueError(f"need rounds >= 2, got {rounds}")
    if n_nodes < 1000:
        raise ValueError(f"need n_nodes >= 1000, got {n_nodes}")
    g = np.random.Generator(np.random.Philox(key=seed))
    param = EntanglementParam(0.0)
    strategy = Completion.NORMALIZE  # tb builds no directions

    exact_one = quadrature_kernel([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], n_nodes=1000)
    pointwise = abs(exact_one - 1.0)
    u0 = sample_unit_sphere(g)
    [aligned] = sample_settings(param, [(u0, u0)], strategy, "tb", 100, seed)
    if aligned.sign_sum("alpha", "beta") != 100:
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
    sampled = sample_settings(param, pairs, strategy, "tb", rounds, seed, first_index=1)
    for (u, v), stats in zip(pairs, sampled):
        est = sign_mean_estimate(stats.sign_sum("alpha", "beta"), rounds)
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
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
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


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{x:.4g}" for x in v) + ")"


_EPR2_GAMMAS = (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4)


def suite_epr2(gamma: float | None = None, grid_n: int = 20) -> list[CheckResult]:
    """Decomposition residuals over a settings grid, at one gamma or the standard four.

    Checks, per settings pair: the weighted local/nonlocal reconstruction of
    the full joint; nonnegativity of the nonlocal part; exact vanishing of
    the flip probability on the equatorial band (and strict positivity off
    it, when the state is not maximally entangled); and that the coupled-flip
    enumeration applied to the pre-flip correlation lands exactly on the
    nonlocal correlation, covering all four in/out band cases.
    """
    if grid_n < 10:
        raise ValueError(f"need grid_n >= 10, got {grid_n}")
    gammas = _EPR2_GAMMAS if gamma is None else (gamma,)
    a_grid = spherical_grid(grid_n)
    b_grid = spherical_grid(grid_n, phase=0.5)
    n_pairs = len(a_grid) * len(b_grid)
    checks = []
    for gm in gammas:
        param = EntanglementParam(gm)
        if param.sin2g <= 0.0:
            raise ValueError("decomposition suite requires gamma > 0")
        s = param.sin2g
        om = 1.0 - s
        t = slice_threshold(param)
        max_in_band = max(
            abs(epr2_flip_probability(param, z)) for z in (0.0, t, -t, t / 2.0, -t / 2.0)
        )
        min_outside = math.inf
        for z in np.concatenate([a_grid[:, 2], b_grid[:, 2]]).tolist():
            f = epr2_flip_probability(param, z)
            if in_slice(param, z):
                max_in_band = max(max_in_band, abs(f))
            else:
                min_outside = min(min_outside, f if z > 0 else -f)

        max_recon = 0.0
        min_nl = math.inf
        max_four_case = 0.0
        refused = []
        for a in a_grid:
            for b in b_grid:
                a1, b1, sign_a, sign_b = symmetrize(a, b)
                spec = flip_spec(param, a1, b1, "p2")
                c0 = pre_flip_correlation(param, a1, b1, "p2")
                _, _, m_ab = flip_moments_exact(c0, spec.f_a, spec.f_b)
                predicted = sign_a * sign_b * float(m_ab)
                max_four_case = max(max_four_case, abs(predicted - epr2_correlation(param, a, b)))

                nl = joint_nl(param, a, b)
                try:
                    checked_distribution(nl)
                except ValueError as exc:
                    # a refused nonlocal part fails the nonnegativity check
                    refused.append(f"{exc} at a = {_fmt_vec(a)}, b = {_fmt_vec(b)}")
                    continue
                qm = joint_qm(param, a, b)
                local = joint_local_product(param, a, b)
                max_recon = max(max_recon, float(np.abs(qm - om * local - s * nl).max()))
                min_nl = min(min_nl, float(nl.min()))

        tag = f"gamma={gm:.6f}"
        outside = f", min outside {min_outside:.3e}" if math.isfinite(min_outside) else ""
        positive_off_band = s >= 1.0 or min_outside > 0.0
        checks += [
            CheckResult(
                f"epr2-reconstruction[{tag}]",
                max_recon <= 1e-12,
                f"max residual {max_recon:.3e} over {n_pairs - len(refused)} pairs",
            ),
            CheckResult(
                f"epr2-nl-nonnegative[{tag}]",
                not refused,
                f"{refused[0]}; {len(refused)} of {n_pairs} pairs refused"
                if refused
                else f"min entry {min_nl:.3e}",
            ),
            CheckResult(
                f"epr2-flip-vanishes-in-band[{tag}]",
                max_in_band == 0.0 and positive_off_band,
                f"max in band {max_in_band:.3e}{outside}",
            ),
            CheckResult(
                f"epr2-four-case-identity[{tag}]",
                max_four_case <= 1e-12,
                f"max residual {max_four_case:.3e}",
            ),
        ]
    return checks


def suite_oracle(
    gamma: float = math.pi / 8,
    n_settings: int = 10,
    rounds: int = 1_000_000,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Sampled branch correlations of p1 and p2 vs the exact enumeration oracle."""
    param = EntanglementParam(gamma)
    if gamma <= 0.0:
        raise ValueError("protocol 2 requires gamma > 0")
    pairs = _reflected_setting_pairs(n_settings, seed)
    checks = []
    case = 0
    for protocol in _BRANCH_PROTOCOLS:
        for strategy in Completion:
            worst_z = 0.0
            compared = 0
            for a, b in pairs:
                case += 1
                # modulo 2^64, so the largest seeds stay 64-bit stream keys
                case_seed = (seed + 7919 * case) % 2**64
                mc = mc_branch_correlations(param, a, b, strategy, protocol, rounds, case_seed)
                for (p, q), est in sorted(mc.items()):
                    oracle = exact_mu_average(param, a, b, strategy, p, q, protocol)
                    z = abs(est.mean - oracle) / _z_floor(est.stderr, est.n)
                    worst_z = max(worst_z, z)
                    compared += 1
            # a check that compared no branch has shown nothing
            checks.append(
                CheckResult(
                    f"oracle-vs-mc[{protocol},{strategy.value}]",
                    compared > 0 and worst_z <= 4.0,
                    f"max |z| = {worst_z:.2f} over {compared} branches of {n_settings} "
                    f"settings, {rounds} rounds each",
                )
            )
    return checks
