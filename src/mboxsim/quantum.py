"""Closed-form target statistics for the two-qubit family cos(g)|00> + sin(g)|11>.

Everything the sampling side is checked against lives here: the quantum joint
distribution and its correlation, the auxiliary axes the protocols mix into
their direction sums, and the local/nonlocal split of the joint distribution
(EPR2 decomposition) together with the slice geometry that drives protocol 2's
branching.

A distribution over (alpha, beta) is a float array of four probabilities in
the one outcome order (+,+), (+,-), (-,+), (-,-), as _joint_from_moments
builds it; checked_distribution holds the rule for when it is one.

Notation used throughout: ``g`` is the state parameter in [0, pi/4],
``c = cos(2g)`` scales the marginals, ``s = sin(2g)`` scales the equatorial
correlations.  Outcomes are written alpha, beta in {-1, +1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import compare_bit
from .geometry import as_unit_vector, sgn

__all__ = [
    "DegenerateAxisError",
    "EntanglementParam",
    "aux_axis",
    "aux_axis_alice_nl",
    "branch_pairing",
    "checked_distribution",
    "correlation",
    "epr2_correlation",
    "epr2_flip_probability",
    "epr2_local_bias",
    "flip_exact_axis",
    "in_slice",
    "joint_local_product",
    "joint_nl",
    "joint_qm",
    "pre_flip_correlation",
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
    cos2g: float = field(init=False, compare=False, repr=False)
    sin2g: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Decimal spellings of pi/4 can land just above the float bound;
        # accept them and clamp so cos2g stays exactly nonnegative.
        if not 0.0 <= self.gamma <= math.pi / 4 + 1e-9:
            raise ValueError(f"gamma must lie in [0, pi/4], got {self.gamma}")
        object.__setattr__(self, "gamma", min(self.gamma, math.pi / 4))
        object.__setattr__(self, "cos2g", math.cos(2.0 * self.gamma))
        object.__setattr__(self, "sin2g", math.sin(2.0 * self.gamma))


def _joint_from_moments(mean_a: float, mean_b: float, corr: float) -> np.ndarray:
    """The joint law of (alpha, beta) with these means and correlation."""
    return np.array([
        0.25 * (1.0 + mean_a + mean_b + corr),
        0.25 * (1.0 + mean_a - mean_b - corr),
        0.25 * (1.0 - mean_a + mean_b - corr),
        0.25 * (1.0 - mean_a - mean_b + corr),
    ])


def checked_distribution(probs) -> np.ndarray:
    """The four entries with float-noise negatives clipped to 0, or ValueError
    if they are not a distribution: a sum more than 1e-9 from 1, or an entry
    below -1e-12."""
    probs = np.asarray(probs, dtype=float)
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
    if float(probs.min()) < -1e-12:
        raise ValueError(f"negative probability entry {probs.min()}")
    return np.clip(probs, 0.0, None)


def correlation(param: EntanglementParam, a, b) -> float:
    """Quantum correlation <alpha beta> for settings a, b."""
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    s = param.sin2g
    return float(a[2] * b[2] + s * (a[0] * b[0] - a[1] * b[1]))


def joint_qm(param: EntanglementParam, a, b) -> np.ndarray:
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

    aux_axis(a) reflected through the xy plane: (s ax, s ay, c - az)/(1 - c az).
    """
    return aux_axis(param, a) * np.array([1.0, 1.0, -1.0])


def flip_exact_axis(param: EntanglementParam, v) -> np.ndarray:
    """Variant of aux_axis whose y sign makes the flip-step identity exact:
    aux_axis(v) reflected through the xz plane.

    With f_a = c*a_z, f_b = c*b_z and pre-flip correlation A~.b, the correlated
    flip lands exactly on the quantum correlation; the construction actually
    used by the protocol differs in the sign of the y component, and the
    residual between the two is part of what the harness reports.
    """
    return aux_axis(param, v) * np.array([1.0, -1.0, 1.0])


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


def joint_nl(param: EntanglementParam, a, b) -> np.ndarray:
    """Nonlocal part of the decomposition: marginals F(a_z), F(b_z) and
    correlation G.  Near gamma = 0 an entry can fall below 0, which
    checked_distribution refuses."""
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    return _joint_from_moments(
        epr2_flip_probability(param, a[2]),
        epr2_flip_probability(param, b[2]),
        epr2_correlation(param, a, b),
    )


def joint_local_product(param: EntanglementParam, a, b) -> np.ndarray:
    """Local part in product form: 1/4 (1 + alpha f(az)) (1 + beta f(bz))."""
    _require_entangled(param)
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    fa = epr2_local_bias(param, a[2])
    fb = epr2_local_bias(param, b[2])
    return _joint_from_moments(fa, fb, fa * fb)


def branch_pairing(param: EntanglementParam, a, b, same_branch: bool, protocol: str, axis):
    """The two vectors one branch of p1 or p2 pairs, at symmetrized settings.

    axis maps a setting to its alternate axis: aux_axis for the claimed
    closed form, flip_exact_axis for the exact flip identity; the two differ
    only in the y sign.  Under p1 the same branch pairs a with axis(b) and the
    other branch pairs axis(a) with b.  Under p2 both settings inside the band
    pair a with the half-turned b; a inside only pairs a with axis(b); b
    inside only pairs Alice's nonlocal axis with the half-turned b; both
    outside choose between those two by same_branch.
    """
    if protocol == "p1":
        return (a, axis(param, b)) if same_branch else (axis(param, a), b)
    a_in = in_slice(param, a[2])
    b_in = in_slice(param, b[2])
    b_rot = rotate_pi_about_x(b)
    if a_in and b_in:
        return a, b_rot
    if a_in or (not b_in and same_branch):
        return a, axis(param, b)
    return aux_axis_alice_nl(param, a), b_rot


def pre_flip_correlation(param: EntanglementParam, a, b, protocol: str) -> float:
    """Pre-flip correlation that the protocol's flip maps exactly onto its target.

    For p1 the (c a_z, c b_z) flip lands on the quantum correlation C, for p2
    the F-flip on the nonlocal correlation G.  Requires symmetrized settings:
    branch_pairing on the branch the box picks (compare_bit: a_z <= b_z) with
    flip_exact_axis, which covers p2's four band cases.
    """
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    if a[2] < 0.0 or b[2] < 0.0:
        raise ValueError("settings must be symmetrized (a_z, b_z >= 0)")
    x, y = branch_pairing(param, a, b, compare_bit(a[2], b[2]) == 1, protocol, flip_exact_axis)
    # A dot product of unit vectors, clamped: rounding can carry it just
    # past +-1, and the flip algebra rejects correlations outside [-1, 1].
    return min(1.0, max(-1.0, float(x @ y)))
