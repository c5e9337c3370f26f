"""Round-level simulation protocols built on one shared vector engine.

Both entangled-state protocols follow the same skeleton per round:

1. symmetrize the settings so a_z, b_z >= 0 (outputs are de-symmetrized at
   the end);
2. feed (a_z, b_z) to the comparison box; Alice keeps her sign p, Bob reads
   his bit inverted into a branch sign q so that p == q exactly when
   a_z <= b_z;
3. each party builds a direction vector from sign-weighted sums of its
   setting, an alternate axis, and a completion vector, the signs coming from
   shared random directions mu_1..mu_7 through sgn(z . mu_i);
4. Alice outputs sgn(u . lambda_1) and sends the one-bit product
   sgn(u . lambda_1) sgn(u . lambda_2); Bob outputs
   sgn(v . (lambda_1 + cbit lambda_2));
5. both apply a correlated flip (-1 -> +1) driven by one shared uniform.

Protocol "p1" targets the full quantum distribution with flip probabilities
c*a_z, c*b_z.  Protocol "p2" targets only the nonlocal part of the
local/nonlocal split: settings inside the equatorial band use a plain
majority-sign direction, settings outside use the two-branch construction
with the alternate axis (s ax, s ay, c - a_z)/(1 - c a_z) on Alice's side and
b replaced by its half-turn about x on Bob's side; flips use the band-aware
weight F.  The calibration baseline "tb" is the bare kernel of step 4 with no
box and no flips.

The scalar round functions and the batch engine share every formula: a scalar
round is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import ResourceLedger, compare_bit, mbox_call, send_cbit
from .geometry import (
    Completion,
    CompletionStrategy,
    as_unit_vector,
    complete_rows,
    sgn,
    sign_array,
    unit_vector_from_uniforms,
)
from .quantum import (
    DegenerateAxisError,
    EntanglementParam,
    aux_axis,
    aux_axis_alice_nl,
    epr2_flip_probability,
    in_slice,
    rotate_pi_about_x,
)

__all__ = [
    "BatchOutcome",
    "CHUNK",
    "FlipSpec",
    "PROTOCOL_IDS",
    "RoundRandomness",
    "RoundTranscript",
    "SharedRandomness",
    "UNIFORMS_PER_ROUND",
    "alice_direction_rows",
    "bob_direction_rows",
    "build_u",
    "build_v",
    "correlated_flip",
    "protocol1_round",
    "protocol2_round",
    "round_uniform_block",
    "run_batch",
    "symmetrize",
    "tb_round",
]

PROTOCOL_IDS = ("p1", "p2", "tb")

# Fixed per-round layout of the uniform stream (one row of 24 doubles):
# 0,1 lambda1 | 2,3 lambda2 | 4..17 mu_1..mu_7 as (polar, azimuth) pairs |
# 18 flip coupler | 19 box coin | 20,21 completion signs | 22,23 reserved.
UNIFORMS_PER_ROUND = 24

# Rows per derived stream key.  Part of the stream layout: changing it
# changes which uniforms a given round sees, so it is fixed, not tunable.
CHUNK = 65536


def _chunk_key(seed: int, setting_index: int, chunk_index: int) -> np.ndarray:
    """128-bit stream key, unique per (seed, setting, chunk).

    A settings draw keyed by the bare seed has high word 0; setting_index + 1
    keeps every round-stream key's high word nonzero, so the two can never
    collide.
    """
    if not 0 <= setting_index < 2**32 - 1:
        raise ValueError(f"setting_index out of range: {setting_index}")
    if not 0 <= chunk_index < 2**32:
        raise ValueError(f"chunk_index out of range: {chunk_index}")
    hi = ((setting_index + 1) << 32) | chunk_index
    return np.array([seed, hi], dtype=np.uint64)


def round_uniform_block(seed: int, setting_index: int, start: int, count: int) -> np.ndarray:
    """Uniform rows for rounds [start, start + count) of one setting.

    Every sampled round, in the runtime and in the verification suites,
    draws its row here: a counter-style Philox stream keyed by (seed,
    setting index, chunk index), with the round's offset inside its chunk
    fixed by CHUNK.  Rows are addressed by absolute round index; any
    contiguous request returns the same values regardless of how other
    rounds were or will be generated.  Requests not aligned to the chunk
    layout pay for the skipped prefix rows.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    out = np.empty((count, UNIFORMS_PER_ROUND))
    filled = 0
    while filled < count:
        chunk_index, offset = divmod(start + filled, CHUNK)
        take = min(CHUNK - offset, count - filled)
        g = np.random.Generator(np.random.Philox(key=_chunk_key(seed, setting_index, chunk_index)))
        block = g.random((offset + take, UNIFORMS_PER_ROUND))
        out[filled : filled + take] = block[offset:]
        filled += take
    return out


@dataclass(frozen=True)
class FlipSpec:
    """Flip probabilities for the correlated -1 -> +1 post-processing."""

    f_a: float
    f_b: float

    def __post_init__(self) -> None:
        for name, f in (("f_a", self.f_a), ("f_b", self.f_b)):
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {f}")


@dataclass(frozen=True)
class SharedRandomness:
    """One round's worth of shared randomness, plus the box's private coin.

    lambda1 and lambda2 are independent uniform unit vectors.  The protocols
    read the seven shared directions mu_i only through sgn(z . mu_i), so
    mu_sign holds those seven fair signs and nothing else.  flip_r couples
    the two parties' flips; extra_signs feed the sign-randomized completion
    strategy and are ignored by the others.  box_u is not shared knowledge:
    it is the comparison box's own coin, carried in this bundle only so a
    round is a pure function of one value.
    """

    lambda1: np.ndarray
    lambda2: np.ndarray
    mu_sign: tuple[int, ...]
    flip_r: float
    extra_signs: tuple[int, int]
    box_u: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda1", as_unit_vector(self.lambda1, tol=1e-6))
        object.__setattr__(self, "lambda2", as_unit_vector(self.lambda2, tol=1e-6))
        mu_sign = tuple(int(e) for e in self.mu_sign)
        if len(mu_sign) != 7 or any(e not in (-1, 1) for e in mu_sign):
            raise ValueError(f"mu_sign must be seven signs, got {self.mu_sign}")
        object.__setattr__(self, "mu_sign", mu_sign)
        if not 0.0 <= self.flip_r < 1.0:
            raise ValueError(f"flip_r must lie in [0, 1), got {self.flip_r}")
        if not 0.0 <= self.box_u < 1.0:
            raise ValueError(f"box_u must lie in [0, 1), got {self.box_u}")
        signs = tuple(int(e) for e in self.extra_signs)
        if len(signs) != 2 or any(e not in (-1, 1) for e in signs):
            raise ValueError(f"extra_signs must be two signs, got {self.extra_signs}")
        object.__setattr__(self, "extra_signs", signs)

    @classmethod
    def from_uniforms(cls, u) -> "SharedRandomness":
        """Expand one 24-slot uniform row into the round bundle."""
        u = np.asarray(u, dtype=float)
        if u.shape != (UNIFORMS_PER_ROUND,):
            raise ValueError(f"expected {UNIFORMS_PER_ROUND} uniforms, got {u.shape}")
        return cls(
            lambda1=unit_vector_from_uniforms(u[0], u[1]),
            lambda2=unit_vector_from_uniforms(u[2], u[3]),
            # same rule as RoundRandomness.from_uniform_block
            mu_sign=tuple(1 if x <= 0.5 else -1 for x in u[4:18:2]),
            flip_r=float(u[18]),
            extra_signs=(
                1 if u[20] <= 0.5 else -1,
                1 if u[21] <= 0.5 else -1,
            ),
            box_u=float(u[19]),
        )

    @classmethod
    def draw(cls, rng: np.random.Generator) -> "SharedRandomness":
        return cls.from_uniforms(rng.random(UNIFORMS_PER_ROUND))


@dataclass(frozen=True)
class RoundTranscript:
    """Everything one executed round produced.

    alpha0/beta0 are the pre-flip stage outputs in the symmetrized frame
    (where the protocol's math lives); alpha/beta are the final outputs in
    the caller's frame.  q is Bob's branch sign, i.e. his box bit read
    inverted, so p == q exactly when a_z <= b_z.
    """

    a: np.ndarray
    b: np.ndarray
    gamma: float
    protocol: str
    strategy: str
    p: int
    q: int
    cbit: int
    alpha0: int
    beta0: int
    flipped_alpha: bool
    flipped_beta: bool
    alpha: int
    beta: int
    ledger: ResourceLedger


@dataclass
class RoundRandomness:
    """Array form of per-round randomness, one row per round.

    The protocols consume the mu directions only through sgn(z . mu_i), so
    only those signs are stored; the uniform-block path never materializes
    the direction vectors at all.
    """

    lam1: np.ndarray
    lam2: np.ndarray
    mu_sign: np.ndarray
    flip_r: np.ndarray
    box_u: np.ndarray
    extra: np.ndarray

    @property
    def n(self) -> int:
        return self.lam1.shape[0]

    @classmethod
    def from_uniform_block(cls, u: np.ndarray) -> "RoundRandomness":
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != UNIFORMS_PER_ROUND:
            raise ValueError(f"expected (n, {UNIFORMS_PER_ROUND}) uniforms, got {u.shape}")
        return cls(
            lam1=unit_vector_from_uniforms(u[:, 0], u[:, 1]),
            lam2=unit_vector_from_uniforms(u[:, 2], u[:, 3]),
            # polar slot u <= 1/2 means z = 1 - 2u >= 0, matching sgn(0) = +1
            mu_sign=np.where(u[:, 4:18:2] <= 0.5, 1, -1).astype(np.int8),
            flip_r=u[:, 18].copy(),
            box_u=u[:, 19].copy(),
            extra=np.where(u[:, 20:22] <= 0.5, 1, -1).astype(np.int8),
        )

    @classmethod
    def from_shared(cls, shared: SharedRandomness) -> "RoundRandomness":
        return cls(
            lam1=shared.lambda1.reshape(1, 3),
            lam2=shared.lambda2.reshape(1, 3),
            mu_sign=np.array([shared.mu_sign], dtype=np.int8),
            flip_r=np.array([shared.flip_r]),
            box_u=np.array([shared.box_u]),
            extra=np.array([shared.extra_signs], dtype=np.int8),
        )


@dataclass
class BatchOutcome:
    """Column-wise transcripts of a batch of rounds at fixed settings."""

    alpha: np.ndarray
    beta: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    p: np.ndarray
    q: np.ndarray
    cbit: np.ndarray
    flipped_alpha: np.ndarray
    flipped_beta: np.ndarray
    cbits_a_to_b: np.ndarray
    cbits_b_to_a: np.ndarray
    mbox_calls: np.ndarray

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


def symmetrize(a, b):
    """Reflect settings into the upper hemisphere.

    Returns (a', b', sign_a, sign_b) with a' = sign_a * a, sign_a = sgn(a_z),
    so a'_z >= 0.  Callers multiply Alice's (Bob's) final output by sign_a
    (sign_b) to undo the reflection.
    """
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    sign_a = sgn(a[2])
    sign_b = sgn(b[2])
    return sign_a * a, sign_b * b, sign_a, sign_b


def correlated_flip(alpha0: int, beta0: int, spec: FlipSpec, r: float):
    """Apply the coupled -1 -> +1 flips driven by one shared uniform r.

    Alice flips a -1 when r < f_a, Bob when r < f_b; sharing r makes the two
    events nested rather than independent, which is what turns a zero-marginal
    correlation C0 into moments (f_a, f_b, f_min + (1 - f_max) C0).
    """
    if alpha0 not in (-1, 1) or beta0 not in (-1, 1):
        raise ValueError(f"outputs must be signs, got ({alpha0}, {beta0})")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    alpha = 1 if (alpha0 == -1 and r < spec.f_a) else alpha0
    beta = 1 if (beta0 == -1 and r < spec.f_b) else beta0
    return alpha, beta


def tb_round(u, v, lambda1, lambda2):
    """One round of the one-bit kernel: E over lambda1,2 of alpha*beta is u.v."""
    u = as_unit_vector(u)
    v = as_unit_vector(v)
    lambda1 = as_unit_vector(lambda1)
    lambda2 = as_unit_vector(lambda2)
    alpha = sgn(float(u @ lambda1))
    cbit = alpha * sgn(float(u @ lambda2))
    beta = sgn(float(v @ lambda1) + cbit * float(v @ lambda2))
    return alpha, beta, cbit


# ---------------------------------------------------------------------------
# Direction construction. One row per round; settings are fixed scalars.
# ---------------------------------------------------------------------------


def _gated_extra(rr_extra: np.ndarray, strategy: CompletionStrategy):
    """Completion signs per party: live under ORTHO_SIGN, +1 otherwise."""
    if strategy.tag is Completion.ORTHO_SIGN:
        return rr_extra[:, 0].astype(float), rr_extra[:, 1].astype(float)
    ones = np.ones(rr_extra.shape[0])
    return ones, ones


def _guarded(axis_fn, param, vec):
    # Degenerate alternate axis (1 - c*z ~ 0 happens only with the flip
    # probability within ~1e-9 of 1, where the flip erases the choice):
    # skip the construction and fall back to the setting itself.
    try:
        return axis_fn(param, vec)
    except DegenerateAxisError:
        return None


def alice_direction_rows(
    param: EntanglementParam,
    a: np.ndarray,
    p: np.ndarray,
    mu_sign: np.ndarray,
    extra: np.ndarray,
    strategy: CompletionStrategy,
    protocol: str,
) -> np.ndarray:
    """Alice's per-round direction u for symmetrized setting a and branch p.

    Branch p = +1 takes signs from (mu_1, mu_2), p = -1 from (mu_4, mu_3).
    Under protocol p2 a setting inside the equatorial band instead uses the
    three-sign majority direction [sgn(z.mu_1)+sgn(z.mu_4)+sgn(z.mu_6)] a.
    """
    a = np.asarray(a, dtype=float)
    comp = np.asarray(extra, dtype=float)
    if protocol == "p2" and in_slice(param, a[2]):
        k = (mu_sign[:, 0] + mu_sign[:, 3] + mu_sign[:, 5]).astype(float)
        return complete_rows(k[:, None] * a[None, :], strategy, a, comp)
    axis_fn = aux_axis_alice_nl if protocol == "p2" else aux_axis
    axis = _guarded(axis_fn, param, a)
    if axis is None:
        return np.tile(a, (mu_sign.shape[0], 1))
    s_a = np.where(p == 1, mu_sign[:, 0], mu_sign[:, 3]).astype(float)
    s_axis = np.where(p == 1, mu_sign[:, 1], mu_sign[:, 2]).astype(float)
    w = s_a[:, None] * a[None, :] + s_axis[:, None] * axis[None, :]
    return complete_rows(w, strategy, a, comp)


def bob_direction_rows(
    param: EntanglementParam,
    b: np.ndarray,
    q: np.ndarray,
    mu_sign: np.ndarray,
    extra: np.ndarray,
    strategy: CompletionStrategy,
    protocol: str,
) -> np.ndarray:
    """Bob's per-round direction v for symmetrized setting b and branch q.

    The mu indices cross relative to Alice's: branch q = +1 takes signs from
    (mu_3, mu_1), q = -1 from (mu_2, mu_4); this index pairing is what lets
    the matched second-axis terms survive averaging over the mu signs.  The
    completion vector always carries the sgn(z . mu_5) sign (mu_7 for the
    in-band form), on top of any strategy sign.  Under protocol p2 the
    primary direction is b half-turned about x; the alternate axis is built
    from b itself in both protocols.
    """
    b = np.asarray(b, dtype=float)
    comp_extra = np.asarray(extra, dtype=float)
    b_dir = rotate_pi_about_x(b) if protocol == "p2" else b
    if protocol == "p2" and in_slice(param, b[2]):
        k = (mu_sign[:, 1] + mu_sign[:, 2] + mu_sign[:, 5]).astype(float)
        comp = mu_sign[:, 6].astype(float) * comp_extra
        return complete_rows(k[:, None] * b_dir[None, :], strategy, b_dir, comp)
    axis = _guarded(aux_axis, param, b)
    comp = mu_sign[:, 4].astype(float) * comp_extra
    if axis is None:
        return np.tile(b_dir, (mu_sign.shape[0], 1))
    s_b = np.where(q == 1, mu_sign[:, 2], mu_sign[:, 1]).astype(float)
    s_axis = np.where(q == 1, mu_sign[:, 0], mu_sign[:, 3]).astype(float)
    w = s_b[:, None] * b_dir[None, :] + s_axis[:, None] * axis[None, :]
    return complete_rows(w, strategy, b_dir, comp)


def build_u(
    param: EntanglementParam,
    a,
    p: int,
    shared: SharedRandomness,
    strategy: CompletionStrategy,
    *,
    nonlocal_form: bool = False,
) -> np.ndarray:
    """Alice's direction for one round; a must be symmetrized (a_z >= 0)."""
    if p not in (-1, 1):
        raise ValueError(f"p must be a sign, got {p}")
    a = as_unit_vector(a)
    rr = RoundRandomness.from_shared(shared)
    extra, _ = _gated_extra(rr.extra, strategy)
    protocol = "p2" if nonlocal_form else "p1"
    rows = alice_direction_rows(
        param, a, np.array([p], dtype=np.int8), rr.mu_sign, extra, strategy, protocol
    )
    return rows[0]


def build_v(
    param: EntanglementParam,
    b,
    q: int,
    shared: SharedRandomness,
    strategy: CompletionStrategy,
    *,
    nonlocal_form: bool = False,
) -> np.ndarray:
    """Bob's direction for one round; b must be symmetrized (b_z >= 0)."""
    if q not in (-1, 1):
        raise ValueError(f"q must be a sign, got {q}")
    b = as_unit_vector(b)
    rr = RoundRandomness.from_shared(shared)
    _, extra = _gated_extra(rr.extra, strategy)
    protocol = "p2" if nonlocal_form else "p1"
    rows = bob_direction_rows(
        param, b, np.array([q], dtype=np.int8), rr.mu_sign, extra, strategy, protocol
    )
    return rows[0]


# ---------------------------------------------------------------------------
# Batch engine and the scalar rounds on top of it.
# ---------------------------------------------------------------------------


def _rowdot(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", rows, other)


def run_batch(
    param: EntanglementParam,
    a,
    b,
    rr: RoundRandomness,
    strategy: CompletionStrategy,
    protocol: str,
) -> BatchOutcome:
    """Execute rr.n rounds at fixed settings, protocol in {"p1","p2","tb"}."""
    if protocol not in PROTOCOL_IDS:
        raise ValueError(f"unknown protocol {protocol!r}")
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    n = rr.n
    ones8 = np.ones(n, dtype=np.uint8)
    zeros8 = np.zeros(n, dtype=np.uint8)

    if protocol == "tb":
        alpha = sign_array(rr.lam1 @ a)
        cbit = (alpha * sign_array(rr.lam2 @ a)).astype(np.int8)
        beta = sign_array(rr.lam1 @ b + cbit * (rr.lam2 @ b))
        zero_sign = np.zeros(n, dtype=np.int8)
        no_flip = np.zeros(n, dtype=bool)
        return BatchOutcome(
            alpha=alpha, beta=beta, alpha0=alpha, beta0=beta,
            p=zero_sign, q=zero_sign, cbit=cbit,
            flipped_alpha=no_flip, flipped_beta=no_flip,
            cbits_a_to_b=ones8, cbits_b_to_a=zeros8, mbox_calls=zeros8,
        )

    if protocol == "p2" and param.sin2g <= 0.0:
        raise ValueError("the nonlocal-part protocol requires gamma > 0")

    a1, b1, sign_a, sign_b = symmetrize(a, b)

    # Box stage: one call per round on (a_z, b_z). Bob inverts his bit into a
    # branch sign, so p == q exactly when a_z <= b_z (ties land there too).
    bit = compare_bit(a1[2], b1[2])
    p = np.where(rr.box_u < 0.5, 1, -1).astype(np.int8)
    q = (p * (2 * bit - 1)).astype(np.int8)

    extra_a, extra_b = _gated_extra(rr.extra, strategy)
    u_rows = alice_direction_rows(param, a1, p, rr.mu_sign, extra_a, strategy, protocol)
    alpha0 = sign_array(_rowdot(u_rows, rr.lam1))
    cbit = (alpha0 * sign_array(_rowdot(u_rows, rr.lam2))).astype(np.int8)
    v_rows = bob_direction_rows(param, b1, q, rr.mu_sign, extra_b, strategy, protocol)
    beta0 = sign_array(_rowdot(v_rows, rr.lam1) + cbit * _rowdot(v_rows, rr.lam2))

    if protocol == "p1":
        spec = FlipSpec(param.cos2g * a1[2], param.cos2g * b1[2])
    else:
        spec = FlipSpec(
            epr2_flip_probability(param, a1[2]),
            epr2_flip_probability(param, b1[2]),
        )
    flipped_a = (alpha0 == -1) & (rr.flip_r < spec.f_a)
    flipped_b = (beta0 == -1) & (rr.flip_r < spec.f_b)
    alpha_sym = np.where(flipped_a, np.int8(1), alpha0)
    beta_sym = np.where(flipped_b, np.int8(1), beta0)

    return BatchOutcome(
        alpha=(sign_a * alpha_sym).astype(np.int8),
        beta=(sign_b * beta_sym).astype(np.int8),
        alpha0=alpha0, beta0=beta0,
        p=p, q=q, cbit=cbit,
        flipped_alpha=flipped_a, flipped_beta=flipped_b,
        cbits_a_to_b=ones8, cbits_b_to_a=zeros8, mbox_calls=ones8,
    )


def _scalar_round(param, a, b, shared, strategy, protocol) -> RoundTranscript:
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    out = run_batch(param, a, b, RoundRandomness.from_shared(shared), strategy, protocol)

    # Replay the resource stage through the boxes API so the budget caps are
    # exercised for real, not just counted.
    a1, b1, _, _ = symmetrize(a, b)
    ledger = ResourceLedger()
    box = mbox_call(a1[2], b1[2], shared.box_u, ledger)
    cbit = send_cbit(int(out.cbit[0]), ledger)
    if box.p != int(out.p[0]):
        raise RuntimeError("engine and box disagree on p; stream misrouted")

    return RoundTranscript(
        a=a, b=b, gamma=param.gamma, protocol=protocol, strategy=strategy.tag.value,
        p=int(out.p[0]), q=int(out.q[0]), cbit=cbit,
        alpha0=int(out.alpha0[0]), beta0=int(out.beta0[0]),
        flipped_alpha=bool(out.flipped_alpha[0]),
        flipped_beta=bool(out.flipped_beta[0]),
        alpha=int(out.alpha[0]), beta=int(out.beta[0]),
        ledger=ledger,
    )


def protocol1_round(
    param: EntanglementParam,
    a,
    b,
    shared: SharedRandomness,
    strategy: CompletionStrategy,
) -> RoundTranscript:
    """One full-distribution round: box, directions, cbit, flips (c a_z, c b_z)."""
    return _scalar_round(param, a, b, shared, strategy, "p1")


def protocol2_round(
    param: EntanglementParam,
    a,
    b,
    shared: SharedRandomness,
    strategy: CompletionStrategy,
) -> RoundTranscript:
    """One nonlocal-part round: band-dispatched directions, flips F(a_z), F(b_z)."""
    return _scalar_round(param, a, b, shared, strategy, "p2")
