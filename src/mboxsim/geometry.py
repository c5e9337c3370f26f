"""Unit-sphere primitives shared by the protocols and their verification oracles.

Vectors are plain numpy arrays: single vectors have shape (3,), and the
completion rule used by the round engine works on row-stacked (n, 3) arrays.

Conventions fixed here and relied on everywhere else:

* ``sgn(0) == +1`` (non-strict sign).
* Uniform sphere points are built from two uniforms as ``z = 1 - 2*u1``,
  ``phi = 2*pi*u2``.
* A partial direction sum ``w`` is completed to a unit vector by one of three
  rules (see :class:`Completion`).  The completion conventions,
  including every degenerate case, are deterministic so that exhaustive
  sign-enumeration oracles can reproduce sampled rounds exactly.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = [
    "Completion",
    "X_HAT",
    "Z_HAT",
    "as_unit_vector",
    "complete_rows",
    "sample_unit_sphere",
    "sgn",
    "sign_array",
    "spherical_grid",
    "unit_vector_from_uniforms",
]

X_HAT = np.array([1.0, 0.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class Completion(Enum):
    """How a partial direction sum is turned into a unit vector.

    The member itself is what the round engine, the oracles and the suites
    take; its value is the tag in the config, the CLI and the report.

    NORMALIZE   rescale w to unit length; if ``|w|`` is degenerate, return the
                caller-supplied fallback direction.
    ORTHO       keep w and add a deficit component orthogonal to it so the
                result is unit.  The deficit direction is the component of
                z-hat orthogonal to w (x-hat when w is parallel to z-hat or
                zero).  If ``|w| > 1`` this falls back to NORMALIZE behaviour.
    ORTHO_SIGN  as ORTHO, with a fresh fair sign on each party's orthogonal
                part.  That sign leaves every branch average, and so the
                output law, unchanged, so the round engine and the oracles
                sample and enumerate ORTHO_SIGN by ORTHO's rule.
    """

    NORMALIZE = "normalize"
    ORTHO = "ortho"
    ORTHO_SIGN = "ortho-sign"


# perfbench/ still calls CompletionStrategy(Completion(tag)); calling the Enum
# on a member returns that member.  The benchmark's next change deletes this.
CompletionStrategy = Completion


# Norms below this count as zero: NORMALIZE falls back, ORTHO treats w as
# parallel to z-hat.
_EPS = 1e-9


def sgn(x: float) -> int:
    """Non-strict sign: +1 for x >= 0, -1 otherwise.  Rejects non-finite input."""
    if not math.isfinite(x):
        raise ValueError(f"sgn requires finite input, got {x!r}")
    return 1 if x >= 0.0 else -1


def sign_array(x: np.ndarray) -> np.ndarray:
    """Vectorized non-strict sign as int8 (same convention as :func:`sgn`)."""
    return (np.asarray(x) >= 0.0).astype(np.int8) * np.int8(2) - np.int8(1)


def as_unit_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a float (3,) array with unit norm.

    Raises ValueError when the norm deviates from 1 by more than 1e-9;
    callers that want to accept approximately-unit input should normalize
    explicitly before calling.
    """
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected shape (3,), got {arr.shape}")
    # Checked on Python floats: for three entries this is several times
    # faster than np.isfinite and np.linalg.norm.
    x, y, z = arr.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("vector has non-finite entries")
    norm = math.sqrt(x * x + y * y + z * z)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"vector norm {norm} deviates from 1 by more than 1e-09")
    return arr


def unit_vector_from_uniforms(u1, u2):
    """Map two U[0,1) draws to a uniform point on the unit sphere.

    Works elementwise: scalars give a (3,) array, length-n arrays give (n, 3).
    The components are computed straight into the output's columns.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    out = np.empty(np.broadcast_shapes(u1.shape, u2.shape) + (3,))
    z = out[..., 2]
    np.subtract(1.0, 2.0 * u1, out=z)
    phi = 2.0 * np.pi * u2
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    np.multiply(rho, np.cos(phi), out=out[..., 0])
    np.multiply(rho, np.sin(phi), out=out[..., 1])
    return out


def sample_unit_sphere(rng: np.random.Generator) -> np.ndarray:
    """Draw one uniform point on the unit sphere from ``rng``."""
    u = rng.random(2)
    return unit_vector_from_uniforms(u[0], u[1])


def spherical_grid(n: int, phase: float = 0.0) -> np.ndarray:
    """Deterministic Fibonacci lattice of ``n`` sphere nodes, equal weights 1/n.

    ``phase`` offsets the azimuthal sequence by that fraction of a golden-angle
    step; the kernel quadrature uses a half-step offset for its second sphere
    so the two node sets decorrelate.
    """
    if n < 2:
        raise ValueError(f"spherical_grid needs n >= 2, got {n}")
    i = np.arange(n, dtype=float)
    # z = 1 - (2i + 1)/n exactly: halving the fraction only lowers its exponent
    return unit_vector_from_uniforms((2.0 * i + 1.0) / (2 * n), i / _GOLDEN + phase)


def _normalize_rows(w: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.einsum("ij,ij->i", w, w))
    degenerate = norm < _EPS
    safe = np.where(degenerate, 1.0, norm)
    out = w / safe[:, None]
    if np.any(degenerate):
        out[degenerate] = fallback
    return out


def _ortho_rows(w: np.ndarray, comp_sign: np.ndarray) -> np.ndarray:
    n2 = np.einsum("ij,ij->i", w, w)
    # |w| > 1 has no orthogonal completion; fall back to rescaling.
    over = n2 > 1.0
    norm = np.sqrt(np.where(over, n2, 1.0))
    out = w / norm[:, None]

    under = ~over
    if np.any(under):
        deficit = np.sqrt(np.maximum(1.0 - n2, 0.0))
        # Component of z-hat orthogonal to w, scaled by |w|^2 to avoid a divide:
        # ndir = z*|w|^2 - w_z*w, |ndir|^2 = |w|^2 (w_x^2 + w_y^2).
        ndir = Z_HAT[None, :] * n2[:, None] - w[:, 2][:, None] * w
        perp2 = w[:, 0] ** 2 + w[:, 1] ** 2
        parallel = (n2 == 0.0) | (perp2 <= (_EPS * _EPS) * n2)
        nnorm = np.sqrt(np.einsum("ij,ij->i", ndir, ndir))
        nhat = ndir / np.where(parallel | (nnorm == 0.0), 1.0, nnorm)[:, None]
        if np.any(parallel):
            nhat[parallel] = X_HAT
        signed = (comp_sign * deficit)[:, None] * nhat
        out = np.where(under[:, None], w + signed, out)
    return out


def complete_rows(
    w: np.ndarray,
    strategy: Completion,
    fallback: np.ndarray,
    comp_sign: np.ndarray,
) -> np.ndarray:
    """Complete each row of ``w`` to a unit vector.

    ``comp_sign`` multiplies the orthogonal part for the ORTHO-family
    strategies (the round engine passes Bob's sgn(z . mu_5) or sgn(z . mu_7)
    through it, and 1 for Alice); NORMALIZE has no sign freedom and ignores
    it.
    """
    if strategy is Completion.NORMALIZE:
        return _normalize_rows(w, fallback)
    return _ortho_rows(w, np.asarray(comp_sign, dtype=float))

