"""Closed-form target statistics for the two-qubit family cos(g)|00> + sin(g)|11>.

Everything the sampling side is checked against lives here: the quantum joint
distribution and its correlation, the auxiliary axes the protocols mix into
their direction sums, and the local/nonlocal split of the joint distribution
(EPR2 decomposition) together with the slice geometry that drives protocol 2's
branching.

Notation used throughout: ``g`` is the state parameter in [0, pi/4],
``c = cos(2g)`` scales the marginals, ``s = sin(2g)`` scales the equatorial
correlations.  Outcomes are written alpha, beta in {-1, +1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_unit_vector, sgn

__all__ = [
    "DegenerateAxisError",
    "EntanglementParam",
    "Epr2Components",
    "JointDist",
    "aux_axis",
    "aux_axis_alice_nl",
    "chsh_value",
    "correlation",
    "epr2_components",
    "epr2_correlation",
    "epr2_flip_probability",
    "epr2_local_bias",
    "flip_exact_axis",
    "in_slice",
    "joint_local_from_decomposition",
    "joint_local_product",
    "joint_nl",
    "joint_qm",
    "pre_flip_correlation_nl",
    "pre_flip_correlation_qm",
    "rotate_pi_about_x",
    "slice_threshold",
]


class DegenerateAxisError(ValueError):
    """Auxiliary-axis construction hit a vanishing denominator (1 - c*z ~ 0)."""


@dataclass(frozen=True)
class EntanglementParam:
    """State parameter g with its cached cos(2g), sin(2g).

    g = 0 is the product state, g = pi/4 the maximally entangled one.
    """

    gamma: float

    def __post_init__(self) -> None:
        # Decimal spellings of pi/4 can land just above the float bound;
        # accept them and clamp so cos2g stays exactly nonnegative.
        if not 0.0 <= self.gamma <= math.pi / 4 + 1e-9:
            raise ValueError(f"gamma must lie in [0, pi/4], got {self.gamma}")
        object.__setattr__(self, "gamma", min(self.gamma, math.pi / 4))

    @property
    def cos2g(self) -> float:
        return math.cos(2.0 * self.gamma)

    @property
    def sin2g(self) -> float:
        return math.sin(2.0 * self.gamma)


@dataclass(frozen=True)
class JointDist:
    """Joint distribution over (alpha, beta) in {+1, -1}^2.

    Field order is (alpha, beta) = (+,+), (+,-), (-,+), (-,-).
    """

    pp: float
    pm: float
    mp: float
    mm: float

    def as_array(self) -> np.ndarray:
        return np.array([self.pp, self.pm, self.mp, self.mm])

    def clamped(self) -> np.ndarray:
        """Entries with float-noise negatives (>= -1e-12) clipped to 0 for reporting."""
        arr = self.as_array()
        if float(arr.min()) < -1e-12:
            raise ValueError(f"entry {arr.min()} is negative beyond reporting noise")
        return np.clip(arr, 0.0, None)

    def validate(self, tol: float = 1e-9) -> "JointDist":
        arr = self.as_array()
        if abs(float(arr.sum()) - 1.0) > tol:
            raise ValueError(f"probabilities sum to {arr.sum()}, not 1")
        if float(arr.min()) < -tol:
            raise ValueError(f"negative probability entry {arr.min()}")
        return self

    def tv_distance(self, other: "JointDist") -> float:
        return 0.5 * float(np.abs(self.as_array() - other.as_array()).sum())

    @property
    def mean_alpha(self) -> float:
        return self.pp + self.pm - self.mp - self.mm

    @property
    def mean_beta(self) -> float:
        return self.pp - self.pm + self.mp - self.mm

    @property
    def mean_alpha_beta(self) -> float:
        return self.pp - self.pm - self.mp + self.mm


def _joint_from_moments(mean_a: float, mean_b: float, corr: float) -> JointDist:
    return JointDist(
        pp=0.25 * (1.0 + mean_a + mean_b + corr),
        pm=0.25 * (1.0 + mean_a - mean_b - corr),
        mp=0.25 * (1.0 - mean_a + mean_b - corr),
        mm=0.25 * (1.0 - mean_a - mean_b + corr),
    )


def correlation(param: EntanglementParam, a, b) -> float:
    """Quantum correlation <alpha beta> for settings a, b."""
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    s = param.sin2g
    return float(a[2] * b[2] + s * (a[0] * b[0] - a[1] * b[1]))


def joint_qm(param: EntanglementParam, a, b) -> JointDist:
    """Quantum joint distribution: marginals c*a_z, c*b_z, correlation above."""
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    c = param.cos2g
    return _joint_from_moments(c * a[2], c * b[2], correlation(param, a, b))


def rotate_pi_about_x(v) -> np.ndarray:
    """Half-turn about the x axis: (x, y, z) -> (x, -y, -z)."""
    v = np.asarray(v, dtype=float)
    return np.array([v[0], -v[1], -v[2]])


def _guard_denominator(c: float, z: float) -> float:
    den = 1.0 - c * z
    if den < 1e-9:
        raise DegenerateAxisError(
            f"axis construction degenerate: 1 - c*z = {den} (c={c}, z={z})"
        )
    return den


def aux_axis(param: EntanglementParam, v) -> np.ndarray:
    """Alternate direction mixed into both parties' sums: (s vx, s vy, vz - c)/(1 - c vz).

    Alice applies it to a in protocol 1, Bob to b in both protocols.
    """
    v = as_unit_vector(v)
    c, s = param.cos2g, param.sin2g
    den = _guard_denominator(c, v[2])
    return np.array([s * v[0], s * v[1], v[2] - c]) / den


def aux_axis_alice_nl(param: EntanglementParam, a) -> np.ndarray:
    """Alice's alternate direction outside the slice in protocol 2.

    Same as :func:`aux_axis` with the z component negated before the
    shift: (s ax, s ay, c - az)/(1 - c az).
    """
    a = as_unit_vector(a)
    c, s = param.cos2g, param.sin2g
    den = _guard_denominator(c, a[2])
    return np.array([s * a[0], s * a[1], c - a[2]]) / den


def flip_exact_axis(param: EntanglementParam, v) -> np.ndarray:
    """Variant of aux_axis whose y sign makes the flip-step identity exact.

    With f_a = c*a_z, f_b = c*b_z and pre-flip correlation A~.b, the correlated
    flip lands exactly on the quantum correlation; the construction actually
    used by the protocol differs in the sign of the y component, and the
    residual between the two is part of what the harness reports.
    """
    v = as_unit_vector(v)
    c, s = param.cos2g, param.sin2g
    den = _guard_denominator(c, v[2])
    return np.array([s * v[0], -s * v[1], v[2] - c]) / den


# ---------------------------------------------------------------------------
# Local/nonlocal split (EPR2 decomposition) and slice geometry.
# ---------------------------------------------------------------------------


def _require_entangled(param: EntanglementParam) -> None:
    if param.sin2g <= 0.0:
        raise ValueError("decomposition requires gamma > 0")


def slice_threshold(param: EntanglementParam) -> float:
    """Half-width t of the equatorial band |z| <= t where the nonlocal part is unbiased.

    t = (1-s)/c, which decreases from 1 at g=0 to 0 at g=pi/4; at the
    maximally entangled point only the equator itself is in the band.
    """
    c, s = param.cos2g, param.sin2g
    if c <= 0.0:
        return 0.0
    return (1.0 - s) / c


def in_slice(param: EntanglementParam, z: float) -> bool:
    """Whether a z component falls in the unbiased band (boundary counts as inside)."""
    return abs(z) <= slice_threshold(param)


def epr2_local_bias(param: EntanglementParam, z: float) -> float:
    """Marginal bias f(z) of the local part: sgn(z) * min(1, c|z|/(1-s)).

    Identically 0 at g = pi/4, where the local weight vanishes and the bias is
    immaterial.
    """
    _require_entangled(param)
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [-1, 1], got {z}")
    c, s = param.cos2g, param.sin2g
    om = 1.0 - s
    if om <= 0.0:
        return 0.0
    if in_slice(param, z):
        return float(np.clip(c * z / om, -1.0, 1.0))
    return float(sgn(z))


def epr2_flip_probability(param: EntanglementParam, z: float) -> float:
    """Flip weight F(z) of the nonlocal part: (c z - (1-s) f(z))/s.

    Exactly 0.0 inside the band (branching, not cancellation) and identically
    0.0 at g = pi/4.
    """
    _require_entangled(param)
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [-1, 1], got {z}")
    c, s = param.cos2g, param.sin2g
    om = 1.0 - s
    if om <= 0.0 or in_slice(param, z):
        return 0.0
    return (c * z - om * float(sgn(z))) / s


def epr2_correlation(param: EntanglementParam, a, b) -> float:
    """Correlation G of the nonlocal part.

    G = ax bx - ay by + [az bz - (1-s) f(az) f(bz)] / s; inside the band this
    collapses to a . (rotate_pi_about_x(b)).
    """
    _require_entangled(param)
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    s = param.sin2g
    om = 1.0 - s
    fa = epr2_local_bias(param, a[2])
    fb = epr2_local_bias(param, b[2])
    return float(a[0] * b[0] - a[1] * b[1] + (a[2] * b[2] - om * fa * fb) / s)


@dataclass(frozen=True)
class Epr2Components:
    """Marginal flips, correlation, and local weight of the decomposition."""

    flip_alice: float
    flip_bob: float
    corr: float
    local_weight: float


def epr2_components(param: EntanglementParam, a, b) -> Epr2Components:
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    return Epr2Components(
        flip_alice=epr2_flip_probability(param, a[2]),
        flip_bob=epr2_flip_probability(param, b[2]),
        corr=epr2_correlation(param, a, b),
        local_weight=1.0 - param.sin2g,
    )


def joint_nl(param: EntanglementParam, a, b) -> JointDist:
    """Nonlocal part of the decomposition, validated non-negative."""
    comp = epr2_components(param, a, b)
    dist = _joint_from_moments(comp.flip_alice, comp.flip_bob, comp.corr)
    return dist.validate()


def joint_local_product(param: EntanglementParam, a, b) -> JointDist:
    """Local part in product form: 1/4 (1 + alpha f(az)) (1 + beta f(bz))."""
    _require_entangled(param)
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    fa = epr2_local_bias(param, a[2])
    fb = epr2_local_bias(param, b[2])
    return _joint_from_moments(fa, fb, fa * fb)


def joint_local_from_decomposition(param: EntanglementParam, a, b) -> JointDist:
    """Local part recovered as (P_QM - s * P_NL)/(1 - s); requires g < pi/4."""
    _require_entangled(param)
    s = param.sin2g
    om = 1.0 - s
    if om <= 0.0:
        raise ValueError("local part undefined at gamma = pi/4 (weight 0)")
    qm = joint_qm(param, a, b).as_array()
    nl = joint_nl(param, a, b).as_array()
    loc = (qm - s * nl) / om
    return JointDist(*loc).validate()


def _unit_dot(x: np.ndarray, y: np.ndarray) -> float:
    # A dot product of unit vectors, clamped: rounding can carry it just
    # past +-1, and the flip algebra rejects correlations outside [-1, 1].
    return min(1.0, max(-1.0, float(x @ y)))


def pre_flip_correlation_qm(param: EntanglementParam, a, b) -> float:
    """Pre-flip correlation that the (c a_z, c b_z) flip maps exactly onto C.

    Requires symmetrized settings.  Branch a_z <= b_z pairs Alice's raw
    setting with Bob's y-corrected alternate axis; the other branch mirrors
    it.  Plugging this into the correlated-flip moment algebra recovers the
    quantum correlation identically.
    """
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    if a[2] < 0.0 or b[2] < 0.0:
        raise ValueError("settings must be symmetrized (a_z, b_z >= 0)")
    if a[2] <= b[2]:
        return _unit_dot(a, flip_exact_axis(param, b))
    return _unit_dot(flip_exact_axis(param, a), b)


def pre_flip_correlation_nl(param: EntanglementParam, a, b) -> float:
    """Pre-flip correlation that the F-flip maps exactly onto G.

    Requires symmetrized settings.  The four band cases: both inside the
    band pair a with the half-turned b; a inside only pairs a with Bob's
    y-corrected alternate axis; b inside only pairs Alice's nonlocal
    alternate axis with the half-turned b; both outside branch on a_z <= b_z
    between those two pairings.
    """
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    if a[2] < 0.0 or b[2] < 0.0:
        raise ValueError("settings must be symmetrized (a_z, b_z >= 0)")
    a_in = in_slice(param, a[2])
    b_in = in_slice(param, b[2])
    bp = rotate_pi_about_x(b)
    if a_in and b_in:
        return _unit_dot(a, bp)
    if a_in:
        return _unit_dot(a, flip_exact_axis(param, b))
    if b_in:
        return _unit_dot(aux_axis_alice_nl(param, a), bp)
    if a[2] <= b[2]:
        return _unit_dot(a, flip_exact_axis(param, b))
    return _unit_dot(aux_axis_alice_nl(param, a), bp)


# ---------------------------------------------------------------------------
# Sanity metric: maximal CHSH value over coplanar settings.
# ---------------------------------------------------------------------------


def _chsh_on_angles(s: float, tb: np.ndarray, tbp: np.ndarray) -> np.ndarray:
    # Settings restricted to the x-z plane; the correlation matrix acts as
    # diag(s, 1) on (x, z), and the optimal Alice settings are absorbed:
    # S(b, b') = |M(b+b')| + |M(b-b')|.
    bx, bz = np.sin(tb), np.cos(tb)
    px, pz = np.sin(tbp), np.cos(tbp)
    plus = np.sqrt((s * (bx + px)) ** 2 + (bz + pz) ** 2)
    minus = np.sqrt((s * (bx - px)) ** 2 + (bz - pz) ** 2)
    return plus + minus


def chsh_value(param: EntanglementParam) -> float:
    """Maximal CHSH combination over coplanar settings, by iterated grid search.

    Agrees with the closed form 2*sqrt(1 + s^2) to well under 1e-6.
    """
    s = param.sin2g
    lo1, hi1 = 0.0, 2.0 * math.pi
    lo2, hi2 = 0.0, 2.0 * math.pi
    best = (0.0, 0.0, -math.inf)
    for _ in range(4):
        t1 = np.linspace(lo1, hi1, 241)
        t2 = np.linspace(lo2, hi2, 241)
        grid = _chsh_on_angles(s, t1[:, None], t2[None, :])
        i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
        best = (float(t1[i]), float(t2[j]), float(grid[i, j]))
        span1 = (hi1 - lo1) / 240
        span2 = (hi2 - lo2) / 240
        lo1, hi1 = best[0] - 2 * span1, best[0] + 2 * span1
        lo2, hi2 = best[1] - 2 * span2, best[1] + 2 * span2
    return best[2]
