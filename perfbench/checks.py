"""Correctness checks the benchmark applies to every operation's output.

Each check compares the program's output against a computation made here,
independently of the program, or against a property the output must have:

* exact properties (counts sum to the rounds, the empirical distribution
  sums to 1, the p1 target equals the Born-rule joint computed below from
  the state vector and Pauli matrices, the tb target has zero marginals and
  correlation a.b, the box pairs p == q exactly when a_z <= b_z) fail on any
  deviation beyond float rounding;
* statistical properties (post-flip marginals, zero pre-flip means, the tb
  kernel law, each branch's correlation against ``exact_mu_average``) are
  returned as z-scores.  The caller judges them against ``z_band``, which
  keeps the chance of any false alarm in a run below ``FAMILY_ALPHA``
  however many checks the run makes.

Checks return a ``Verdict``; they never raise on bad output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

EXACT_TOL = 1e-12
# Chance that one run reports a false statistical failure.  A fixed 4-sigma
# band (6.3e-5 per check) would fail about once in five runs at the few
# thousand checks a run makes, so the band widens with the check count.
FAMILY_ALPHA = 1e-6
GATE_SIGMA = 4.0


def z_band(n_checks: int, alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided Bonferroni band for n_checks z-scores, never below 4 sigma."""
    if n_checks < 1:
        return GATE_SIGMA
    return max(GATE_SIGMA, NormalDist().inv_cdf(1.0 - alpha / (2.0 * n_checks)))


@dataclass
class Verdict:
    """Exact problems found, plus the z-scores of the statistical checks."""

    problems: list = field(default_factory=list)
    zs: list = field(default_factory=list)

    def z(self, label: str, observed: float, expected: float, sigma: float, n: int) -> None:
        self.zs.append((label, abs(observed - expected) / max(sigma, 1.0 / n)))

    def exact(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def max_z(self) -> float:
        return max((z for _, z in self.zs), default=0.0)

    def passed(self, band: float) -> bool:
        return not self.problems and self.max_z <= band

    def extend(self, other: "Verdict") -> "Verdict":
        self.problems.extend(other.problems)
        self.zs.extend(other.zs)
        return self


# ---------------------------------------------------------------------------
# Independent targets.
# ---------------------------------------------------------------------------

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _projector(n, outcome: int) -> np.ndarray:
    n_sigma = sum(float(c) * s for c, s in zip(n, _PAULI))
    return 0.5 * (np.eye(2) + outcome * n_sigma)


def born_joint(gamma: float, a, b) -> np.ndarray:
    """P(alpha, beta) for cos g|00> + sin g|11>, order (++, +-, -+, --)."""
    psi = np.array([math.cos(gamma), 0.0, 0.0, math.sin(gamma)], dtype=complex)
    out = []
    for alpha in (1, -1):
        for beta in (1, -1):
            op = np.kron(_projector(a, alpha), _projector(b, beta))
            out.append(float(np.real(np.conj(psi) @ op @ psi)))
    return np.array(out)


def kernel_joint(a, b) -> np.ndarray:
    """Zero marginals and correlation a.b: the one-bit kernel's law."""
    c = float(np.dot(a, b))
    return np.array([1 + c, 1 - c, 1 - c, 1 + c]) / 4.0


def _moments(dist) -> tuple[float, float, float]:
    pp, pm, mp, mm = (float(x) for x in dist)
    return pp + pm - mp - mm, pp - pm + mp - mm, pp - pm - mp + mm


def _reflect(v: np.ndarray) -> np.ndarray:
    return -v if v[2] < 0.0 else v


# ---------------------------------------------------------------------------
# Report checks.
# ---------------------------------------------------------------------------


def check_report(payload: dict, spec: dict, exact_mu_average, param, strategy) -> Verdict:
    """Check one JSON report against the request that produced it.

    ``spec`` holds protocol, gamma, completion, rounds and the settings
    pairs that were asked for.  ``exact_mu_average``, ``param`` and
    ``strategy`` are the program's enumeration oracle and the objects it
    takes, used for the per-branch check only.
    """
    v = Verdict()
    try:
        _check_report(v, payload, spec, exact_mu_average, param, strategy)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        v.problems.append(f"malformed report: {exc!r}")
    return v


def _check_report(v: Verdict, payload, spec, exact_mu_average, param, strategy) -> None:
    protocol = spec["protocol"]
    rounds = spec["rounds"]
    config = payload["config"]
    for key in ("protocol", "gamma", "completion", "rounds"):
        v.exact(config[key] == spec[key], f"config {key} echoes {config[key]!r}")
    records = payload["records"]
    v.exact(len(records) == len(spec["settings"]), f"{len(records)} records")
    for i, (rec, (a, b)) in enumerate(zip(records, spec["settings"])):
        tag = f"setting {i}"
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        v.exact(
            np.allclose(rec["a"], a, rtol=0, atol=EXACT_TOL)
            and np.allclose(rec["b"], b, rtol=0, atol=EXACT_TOL),
            f"{tag}: settings echo differs",
        )
        counts = [int(c) for c in rec["counts"]]
        n = rec["n"]
        v.exact(n == rounds and sum(counts) == rounds and min(counts) >= 0,
                f"{tag}: counts {counts} do not sum to {rounds}")
        emp = np.asarray(rec["empirical"], dtype=float)
        v.exact(abs(emp.sum() - 1.0) <= EXACT_TOL, f"{tag}: empirical sums to {emp.sum()!r}")
        v.exact(np.allclose(emp, np.asarray(counts) / rounds, rtol=0, atol=EXACT_TOL),
                f"{tag}: empirical is not counts / n")
        target = np.asarray(rec["target"], dtype=float)
        if protocol == "p1":
            want = born_joint(spec["gamma"], a, b)
            v.exact(np.max(np.abs(target - want)) <= EXACT_TOL,
                    f"{tag}: p1 target off the Born rule by {np.max(np.abs(target - want)):.3e}")
        elif protocol == "tb":
            want = kernel_joint(a, b)
            v.exact(np.max(np.abs(target - want)) <= EXACT_TOL,
                    f"{tag}: tb target is not (0, 0, a.b)")
        else:
            v.exact(min(target) >= 0.0 and abs(target.sum() - 1.0) <= EXACT_TOL,
                    f"{tag}: p2 target is not a distribution")

        t_a, t_b, t_ab = _moments(target)
        s_a, s_b, s_ab = _moments(np.asarray(counts) / rounds)
        for label, s, t in (("alpha", s_a, t_a), ("beta", s_b, t_b)):
            v.z(f"{tag}: post-flip mean {label}", s, t, math.sqrt(max(0.0, 1 - t * t) / rounds), rounds)
        if protocol == "tb":
            v.z(f"{tag}: kernel correlation", s_ab, t_ab, math.sqrt(max(0.0, 1 - t_ab**2) / rounds), rounds)
        pre = rec["pre_flip"]
        for label in ("alpha0", "beta0"):
            v.z(f"{tag}: pre-flip mean {label}", pre[f"{label}_mean"], 0.0, 1.0 / math.sqrt(rounds), rounds)

        branches = rec["branches"]
        if protocol == "tb":
            v.exact(not branches, f"{tag}: tb reports box branches")
            continue
        a1, b1 = _reflect(a), _reflect(b)
        want_pairs = {(1, 1), (-1, -1)} if a1[2] <= b1[2] else {(1, -1), (-1, 1)}
        got_pairs = {(br["p"], br["q"]) for br in branches}
        v.exact(got_pairs <= want_pairs, f"{tag}: branches {sorted(got_pairs)} break the box contract")
        v.exact(sum(br["n"] for br in branches) == rounds, f"{tag}: branch counts do not sum to {rounds}")
        for br in branches:
            mu = exact_mu_average(param, a1, b1, strategy, br["p"], br["q"], protocol)
            bn = br["n"]
            sigma = math.sqrt(max(0.0, 1.0 - mu * mu) / bn)
            v.z(f"{tag}: branch ({br['p']},{br['q']}) correlation", br["corr_mean"], mu, sigma, bn)


def check_csv(text: str, n_settings: int) -> Verdict:
    """The CSV sibling has a header and exactly one row per setting."""
    v = Verdict()
    rows = list(csv.reader(io.StringIO(text)))
    v.exact(len(rows) == n_settings + 1 and bool(rows) and rows[0][:6] == ["ax", "ay", "az", "bx", "by", "bz"],
            f"CSV has {len(rows) - 1} data rows for {n_settings} settings")
    return v


def check_schema(text: str, validator) -> tuple[Verdict, dict | None]:
    """Parse a report read back from disk and validate it against the schema."""
    v = Verdict()
    try:
        payload = json.loads(text)
    except ValueError as exc:
        v.problems.append(f"report is not JSON: {exc}")
        return v, None
    for err in validator.iter_errors(payload):
        v.problems.append(f"schema: {err.message}")
    return v, payload


def check_suite_results(checks) -> Verdict:
    """Every CheckResult of a verification suite must pass."""
    v = Verdict()
    for c in checks:
        v.exact(bool(c.passed), f"suite check failed: {c}")
    return v


def check_moments(stats: dict, targets: dict, label: str) -> Verdict:
    """Means from mc_round_moments against their targets at the gate's 4 sigma."""
    v = Verdict()
    for key, want in targets.items():
        est = stats[key]
        z = abs(est.mean - want) / max(est.stderr, 1.0 / est.n)
        v.exact(z <= GATE_SIGMA, f"{label}: {key} mean {est.mean:.5f} is {z:.2f} sigma from {want:.5f}")
    return v
