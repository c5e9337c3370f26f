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
from .geometry import as_unit_vector, first_outside, sign_array

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


# ---------------------------------------------------------------------------
# Array form.  Every formula below takes one setting, a (3,) vector or a
# scalar z, or a block of them, (n, 3) rows or an (n,) array, and evaluates
# the block in one pass, with masks where a setting's case is chosen.  One
# setting's components are Python floats and its masks Python bools, so the
# same expressions cost a one-setting call no more than scalar code would.
# ---------------------------------------------------------------------------


def _columns(v: np.ndarray):
    """x, y and z of validated settings: floats for one, columns for a block."""
    return v.tolist() if v.ndim == 1 else v.T


def _select(mask, x, y):
    """np.where(mask, x, y), with a Python bool's choice made directly."""
    return np.where(mask, x, y) if isinstance(mask, np.ndarray) else (x if mask else y)


def _any(mask) -> bool:
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def _value(x):
    """One setting's result as a float, a block's as its array."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _joint_from_moments(mean_a, mean_b, corr) -> np.ndarray:
    """The joint law of (alpha, beta) with these means and correlation: (4,)
    for one setting's moments, a row of four per setting for columns."""
    return np.array([
        0.25 * (1.0 + mean_a + mean_b + corr),
        0.25 * (1.0 + mean_a - mean_b - corr),
        0.25 * (1.0 - mean_a + mean_b - corr),
        0.25 * (1.0 - mean_a - mean_b + corr),
    ]).T


def _refused(probs: np.ndarray):
    """Per row of four, whether it is not a distribution: a sum more than
    1e-9 from 1, or an entry below -1e-12."""
    return (abs(probs.sum(axis=-1) - 1.0) > 1e-9) | (probs.min(axis=-1) < -1e-12)


def checked_distribution(probs) -> np.ndarray:
    """The entries with float-noise negatives clipped to 0, or ValueError if
    a row of four is not a distribution (see _refused); the error names the
    first such row's fault."""
    probs = np.asarray(probs, dtype=float)
    refused = _refused(probs)
    if _any(refused):
        row = probs.reshape(-1, 4)[np.argmax(refused)]
        if abs(float(row.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {row.sum()}, not 1")
        raise ValueError(f"negative probability entry {row.min()}")
    # the values of np.clip(probs, 0.0, None), -0.0 -> 0.0 and NaN included,
    # at a fraction of its cost
    return np.maximum(probs, 0.0)


def _correlation(param: EntanglementParam, a: np.ndarray, b: np.ndarray):
    ax, ay, az = _columns(a)
    bx, by, bz = _columns(b)
    return az * bz + param.sin2g * (ax * bx - ay * by)


def correlation(param: EntanglementParam, a, b):
    """Quantum correlation <alpha beta> for settings a, b."""
    return _value(_correlation(param, as_unit_vector(a), as_unit_vector(b)))


def joint_qm(param: EntanglementParam, a, b) -> np.ndarray:
    """Quantum joint distribution: marginals c*a_z, c*b_z, correlation above."""
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    c = param.cos2g
    corr = _correlation(param, a, b)
    return _joint_from_moments(c * _columns(a)[2], c * _columns(b)[2], corr)


_HALF_TURN = np.array([1.0, -1.0, -1.0])


def rotate_pi_about_x(v) -> np.ndarray:
    """Half-turn about the x axis: (x, y, z) -> (x, -y, -z)."""
    return np.asarray(v, dtype=float) * _HALF_TURN


def _guard_denominator(c: float, z):
    den = 1.0 - c * z
    degenerate = den < 1e-9
    if _any(degenerate):
        i = np.argmax(degenerate)
        den, z = np.reshape(den, -1)[i], np.reshape(z, -1)[i]
        raise DegenerateAxisError(
            f"axis construction degenerate: 1 - c*z = {den} (c={c}, z={z})"
        )
    return den


def aux_axis(param: EntanglementParam, v) -> np.ndarray:
    """Alternate direction mixed into both parties' sums: (s vx, s vy, vz - c)/(1 - c vz).

    Alice applies it to a in protocol 1, Bob to b in both protocols.
    """
    x, y, z = _columns(as_unit_vector(v))
    c, s = param.cos2g, param.sin2g
    den = _guard_denominator(c, z)
    return (np.array([s * x, s * y, z - c]) / den).T


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


def in_slice(param: EntanglementParam, z):
    """Whether a z component falls in the unbiased band (boundary counts as
    inside), elementwise."""
    return abs(z) <= slice_threshold(param)


def _band_terms(param: EntanglementParam, z):
    """The local bias f(z) and the flip weight F(z), elementwise, with z
    checked first: decomposition scalars need gamma > 0 and z in [-1, 1]."""
    _require_entangled(param)
    if not isinstance(z, float):
        z = np.asarray(z, dtype=float)
    bad = first_outside(z, -1.0, 1.0)
    if bad is not None:
        raise ValueError(f"z must lie in [-1, 1], got {bad}")
    c, s = param.cos2g, param.sin2g
    om = 1.0 - s
    if om <= 0.0:
        zero = np.zeros_like(z)
        return zero, zero
    inside = in_slice(param, z)
    cz = c * z
    ratio = cz / om
    sign = _select(z >= 0.0, 1.0, -1.0)
    f = _select(inside, _clip_unit(ratio), sign)
    return f, _select(inside, 0.0, (cz - om * sign) / s)


def epr2_local_bias(param: EntanglementParam, z):
    """Marginal bias f(z) of the local part: sgn(z) * min(1, c|z|/(1-s)).

    Identically 0 at g = pi/4, where the local weight vanishes and the bias is
    immaterial.
    """
    return _value(_band_terms(param, z)[0])


def epr2_flip_probability(param: EntanglementParam, z):
    """Flip weight F(z) of the nonlocal part: (c z - (1-s) f(z))/s.

    Exactly 0.0 inside the band (branching, not cancellation) and identically
    0.0 at g = pi/4.
    """
    return _value(_band_terms(param, z)[1])


def _epr2_correlation(param: EntanglementParam, a: np.ndarray, b: np.ndarray, fa, fb):
    ax, ay, az = _columns(a)
    bx, by, bz = _columns(b)
    s = param.sin2g
    return ax * bx - ay * by + (az * bz - (1.0 - s) * fa * fb) / s


def epr2_correlation(param: EntanglementParam, a, b):
    """Correlation G of the nonlocal part.

    G = ax bx - ay by + [az bz - (1-s) f(az) f(bz)] / s; inside the band this
    collapses to a . (rotate_pi_about_x(b)).
    """
    _require_entangled(param)
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    fa, _ = _band_terms(param, _columns(a)[2])
    fb, _ = _band_terms(param, _columns(b)[2])
    return _value(_epr2_correlation(param, a, b, fa, fb))


def joint_nl(param: EntanglementParam, a, b) -> np.ndarray:
    """Nonlocal part of the decomposition: marginals F(a_z), F(b_z) and
    correlation G.  Near gamma = 0 an entry can fall below 0, which
    checked_distribution refuses."""
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    fa, flip_a = _band_terms(param, _columns(a)[2])
    fb, flip_b = _band_terms(param, _columns(b)[2])
    return _joint_from_moments(flip_a, flip_b, _epr2_correlation(param, a, b, fa, fb))


def joint_local_product(param: EntanglementParam, a, b) -> np.ndarray:
    """Local part in product form: 1/4 (1 + alpha f(az)) (1 + beta f(bz))."""
    _require_entangled(param)
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    fa, _ = _band_terms(param, _columns(a)[2])
    fb, _ = _band_terms(param, _columns(b)[2])
    return _joint_from_moments(fa, fb, fa * fb)


def _axis_where(use, param: EntanglementParam, v: np.ndarray, base: np.ndarray, axis):
    """Rows of axis(param, v) where use holds and rows of base elsewhere.  The
    axis is built, and its denominator guarded, only on the rows that take it."""
    if not isinstance(use, np.ndarray):
        return axis(param, v) if use else base
    out = np.array(base, dtype=float)
    out[use] = axis(param, v[use])
    return out


def branch_pairing(param: EntanglementParam, a, b, same_branch, protocol: str, axis):
    """The two vectors one branch of p1 or p2 pairs, at symmetrized settings,
    elementwise over blocks of settings; same_branch is one flag or one per row.

    axis maps a setting to its alternate axis: aux_axis for the claimed
    closed form, flip_exact_axis for the exact flip identity; the two differ
    only in the y sign.  Under p1 the same branch pairs a with axis(b) and the
    other branch pairs axis(a) with b.  Under p2 both settings inside the band
    pair a with the half-turned b; a inside only pairs a with axis(b); b
    inside only pairs Alice's nonlocal axis with the half-turned b; both
    outside choose between those two by same_branch.
    """
    other_branch = _select(same_branch, False, True)
    if protocol == "p1":
        return (
            _axis_where(other_branch, param, a, a, axis),
            _axis_where(same_branch, param, b, b, axis),
        )
    a_in = in_slice(param, _columns(a)[2])
    b_in = in_slice(param, _columns(b)[2])
    a_out = _select(a_in, False, True)
    b_out = _select(b_in, False, True)
    return (
        _axis_where(a_out & (b_in | other_branch), param, a, a, aux_axis_alice_nl),
        _axis_where(b_out & (a_in | same_branch), param, b, rotate_pi_about_x(b), axis),
    )


def _clip_unit(v):
    """np.clip(v, -1.0, 1.0) for non-NaN v."""
    return _select(v > 1.0, 1.0, _select(v < -1.0, -1.0, v))


def pre_flip_correlation(param: EntanglementParam, a, b, protocol: str):
    """Pre-flip correlation that the protocol's flip maps exactly onto its target.

    For p1 the (c a_z, c b_z) flip lands on the quantum correlation C, for p2
    the F-flip on the nonlocal correlation G.  Requires symmetrized settings:
    branch_pairing on the branch the box picks (compare_bit: a_z <= b_z) with
    flip_exact_axis, which covers p2's four band cases.
    """
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    az, bz = _columns(a)[2], _columns(b)[2]
    if _any(az < 0.0) or _any(bz < 0.0):
        raise ValueError("settings must be symmetrized (a_z, b_z >= 0)")
    x, y = branch_pairing(param, a, b, compare_bit(az, bz) == 1, protocol, flip_exact_axis)
    # A dot product of unit vectors, clamped: rounding can carry it just
    # past +-1, and the flip algebra rejects correlations outside [-1, 1].
    # vecdot gives each row the bits of x @ y on that row alone.
    return _value(_clip_unit(np.vecdot(x, y)))
