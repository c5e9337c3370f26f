"""Round-level simulation protocols built on one shared vector engine.

Both entangled-state protocols follow the same skeleton per round:

1. symmetrize the settings so a_z, b_z >= 0 (outputs are de-symmetrized at
   the end);
2. feed (a_z, b_z) to the comparison box, boxes.outcome_from_uniform, in
   one call per batch; Alice's bit m gives her sign p = 2m - 1, and Bob
   inverts his bit n into a branch sign q = 1 - 2n, so p == q exactly when
   a_z <= b_z;
3. each party builds a direction vector from sign-weighted sums of its
   setting, an alternate axis, and a completion vector.  The protocols read
   the shared random directions mu_1..mu_7 only through the signs
   sgn(z . mu_i), which are fair and independent, so a round keeps only
   those signs, as bits, and never builds a mu vector.  At fixed settings a
   party's direction is a function of its branch sign and the sign tuple, so
   direction_table computes it once per setting for both branches and every
   tuple, keeps the last 16 such tables, and each round looks its direction
   up;
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

run_batch is the one round engine: every sampled round, in the runtime and in
the verification suites, is a row of a batch, and a single round is a batch
of one.  A round's randomness is one row of UNIFORMS_PER_ROUND doubles from
round_uniform_block, a PCG64DXSM stream per (seed, setting, chunk) that any
span of rows can be drawn from alone.  The flip rule (correlated_flip) is the
one the exact flip algebra in verify enumerates, and the exact direction
average in verify reads the very arrays direction_table keeps for the
sampler.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .boxes import outcome_from_uniform
from .geometry import (
    Completion,
    as_unit_vector,
    complete_rows,
    sgn,
    sign_array,
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
    "STREAM",
    "UNIFORMS_PER_ROUND",
    "alice_direction_rows",
    "bob_direction_rows",
    "correlated_flip",
    "direction_table",
    "flip_spec",
    "round_directions",
    "round_uniform_block",
    "run_batch",
    "seeded_generator",
    "symmetrize",
]

PROTOCOL_IDS = ("p1", "p2", "tb")

# Fixed per-round layout of the uniform stream (one row of 24 doubles):
# 0,1 lambda1 | 2,3 lambda2 as (polar, azimuth) pairs, see _lambda_rows |
# 4..17 mu_1..mu_7 as (polar, azimuth) pairs |
# 18 flip coupler | 19 box coin | 20..23 unread.
# The protocols read mu_i only through sgn(z . mu_i), which is the sign of
# its polar slot's z = 1 - 2u, so the azimuth slots are never read.
UNIFORMS_PER_ROUND = 24

# The slots whose signs a round reads: the seven mu polar slots.  Sign j is
# -1 exactly when slot _SIGN_SLOTS[j] holds u > 1/2 (z = 1 - 2u < 0;
# sgn(0) = +1).
_SIGN_SLOTS = np.array([4, 6, 8, 10, 12, 14, 16])
_SIGN_BITS = (1 << np.arange(_SIGN_SLOTS.size)).astype(np.uint16)

# Rows per derived stream key.  Part of the stream layout: changing it
# changes which uniforms a given round sees, so it is fixed, not tunable.
CHUNK = 65536

# The stream layout's name, echoed in every report: PCG64DXSM seeded per
# (seed, setting, chunk), CHUNK rows per seed, UNIFORMS_PER_ROUND per row.
STREAM = f"pcg64dxsm/chunk{CHUNK}/row{UNIFORMS_PER_ROUND}"


def _check_seed(seed: int) -> int:
    """The seed, if it fits in 64 bits.  Philox(key=) and SeedSequence would
    both take a larger one, so this is the one place that bounds it."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    return seed


def seeded_generator(seed: int) -> np.random.Generator:
    """The stream keyed by the bare seed: settings draws and the suites' inputs."""
    return np.random.Generator(np.random.Philox(key=_check_seed(seed)))


def _check_p2_gamma(param: EntanglementParam, protocol: str) -> None:
    # p2 samples the nonlocal part of the state, which a product state lacks
    if protocol == "p2" and param.sin2g <= 0.0:
        raise ValueError("protocol 2 requires gamma > 0")


def round_uniform_block(seed: int, setting_index: int, start: int, count: int) -> np.ndarray:
    """Uniform rows for rounds [start, start + count) of one setting, inside one chunk.

    Every sampled round, in the runtime and in the verification suites,
    draws its row here: one PCG64DXSM stream per (seed, setting index, chunk
    index), seeded by numpy's SeedSequence with (setting, chunk) as its spawn
    key, with the round's offset inside its chunk fixed by CHUNK.  Rows are
    addressed by absolute round index; any span inside one chunk returns the
    same values regardless of how other rounds were or will be generated.
    Each double is one 64-bit step of the generator, so the request advances
    the chunk's stream UNIFORMS_PER_ROUND steps per row before it and draws
    only the rows it returns.  A span that crosses a chunk boundary is
    refused: callers split at CHUNK.  The settings draw (seeded_generator)
    runs on Philox, a different generator.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    chunk_index, offset = divmod(start, CHUNK)
    if offset + count > CHUNK:
        raise ValueError(f"rows [{start}, {start + count}) cross a chunk boundary")
    # Each spawn_key entry must fit one 32-bit word: SeedSequence splits a
    # larger entry into several words, so (setting, chunk) pairs could then
    # encode to the same word sequence and share a stream.  The setting's
    # bound is the 0.15 key's (setting + 1 in one word), part of the inputs
    # accepted since then.
    if not 0 <= setting_index < 2**32 - 1:
        raise ValueError(f"setting_index out of range: {setting_index}")
    if not 0 <= chunk_index < 2**32:
        raise ValueError(f"chunk_index out of range: {chunk_index}")
    entropy = np.random.SeedSequence(_check_seed(seed), spawn_key=(setting_index, chunk_index))
    bitgen = np.random.PCG64DXSM(entropy)
    bitgen.advance(UNIFORMS_PER_ROUND * offset)
    return np.random.Generator(bitgen).random((count, UNIFORMS_PER_ROUND))


@dataclass(frozen=True)
class FlipSpec:
    """Flip probabilities for the correlated -1 -> +1 post-processing."""

    f_a: float
    f_b: float

    def __post_init__(self) -> None:
        for name, f in (("f_a", self.f_a), ("f_b", self.f_b)):
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {f}")


def _lambda_rows(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Shared unit vectors lambda from polar slots u1 and azimuth slots u2, one row each.

    geometry.unit_vector_from_uniforms's map with the azimuth trig in float32:
    z = 1 - 2 u1 and rho = sqrt(1 - z^2) are float64, and bit-identical to
    it; phi = 2 pi u2 is rounded to float32 once, so x and y differ from the
    float64 build by at most ~2.5e-7.  The kernel reads lambda only through
    sgn(u . lambda), which this can change only where |u . lambda| < ~2.5e-7.
    numpy's float32 cos and sin run many times faster than its float64 ones,
    which were most of a round's expansion.
    """
    out = np.empty((u1.shape[0], 3))
    z = out[:, 2]
    np.subtract(1.0, 2.0 * u1, out=z)
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = (2.0 * np.pi * u2).astype(np.float32)
    np.multiply(rho, np.cos(phi), out=out[:, 0])
    np.multiply(rho, np.sin(phi), out=out[:, 1])
    return out


@dataclass
class RoundRandomness:
    """Array form of per-round randomness, one row per round.

    signs packs the round's seven shared signs into one integer: bit j is 1
    exactly when sgn(z . mu_{j+1}) is -1.  No mu vector is built.
    """

    lam1: np.ndarray
    lam2: np.ndarray
    flip_r: np.ndarray
    box_u: np.ndarray
    signs: np.ndarray

    @property
    def n(self) -> int:
        return self.lam1.shape[0]

    @classmethod
    def from_uniform_block(cls, u: np.ndarray) -> "RoundRandomness":
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != UNIFORMS_PER_ROUND:
            raise ValueError(f"expected (n, {UNIFORMS_PER_ROUND}) uniforms, got {u.shape}")
        # compare the contiguous slots 4..16, then pick the sign slots
        down = (u[:, 4:17] > 0.5)[:, _SIGN_SLOTS - 4]
        # copies, so no view keeps the row block alive while the batch runs
        return cls(
            lam1=_lambda_rows(u[:, 0], u[:, 1]),
            lam2=_lambda_rows(u[:, 2], u[:, 3]),
            flip_r=u[:, 18].copy(),
            box_u=u[:, 19].copy(),
            signs=(down * _SIGN_BITS).sum(axis=1, dtype=np.uint16),
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


def flip_spec(param: EntanglementParam, a1: np.ndarray, b1: np.ndarray, protocol: str) -> FlipSpec:
    """Flip weights at symmetrized settings: c*a_z, c*b_z for p1, F(a_z), F(b_z) for p2."""
    if protocol == "p1":
        return FlipSpec(param.cos2g * a1[2], param.cos2g * b1[2])
    return FlipSpec(epr2_flip_probability(param, a1[2]), epr2_flip_probability(param, b1[2]))


def correlated_flip(alpha0, beta0, spec: FlipSpec, r):
    """Apply the coupled -1 -> +1 flips driven by one shared uniform r.

    Alice flips a -1 when r < f_a, Bob when r < f_b; sharing r makes the two
    events nested rather than independent, which is what turns a zero-marginal
    correlation C0 into moments (f_a, f_b, f_min + (1 - f_max) C0).  Works
    elementwise on sign arrays and uniforms of one shape and returns the
    flipped (alpha, beta) arrays.  run_batch applies the same rule, _flip, to
    whole batches without the input checks.
    """
    alpha0 = np.asarray(alpha0)
    beta0 = np.asarray(beta0)
    r = np.asarray(r)
    # One comparison per check, |x| == 1 and floor(r) == 0 (NaN fails both),
    # reduced by the array's own .all(): on the twelve cells the exact flip
    # algebra passes, numpy's per-call overhead is the whole cost.  Signs are
    # integers or reals: ±1j, or an object array holding it, has |x| == 1 too.
    if not (
        alpha0.dtype.kind in "iuf"
        and beta0.dtype.kind in "iuf"
        and (np.abs(alpha0) == 1).all()
        and (np.abs(beta0) == 1).all()
    ):
        raise ValueError("outputs must be signs")
    if not (np.floor(r) == 0).all():
        raise ValueError("r must lie in [0, 1)")
    return _flip(alpha0, beta0, spec, r)


def _flip(alpha0: np.ndarray, beta0: np.ndarray, spec: FlipSpec, r: np.ndarray):
    """correlated_flip's rule without its input checks.  run_batch calls it
    directly: its signs come from sign_array and its r from [0, 1) slots."""
    alpha = np.where((alpha0 == -1) & (r < spec.f_a), np.int8(1), alpha0)
    beta = np.where((beta0 == -1) & (r < spec.f_b), np.int8(1), beta0)
    return alpha, beta


# ---------------------------------------------------------------------------
# Direction construction. One row per round; settings are fixed scalars.
# ---------------------------------------------------------------------------


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
    strategy: Completion,
    protocol: str,
) -> np.ndarray:
    """Alice's per-round direction u for symmetrized setting a and branch p.

    Branch p = +1 takes signs from (mu_1, mu_2), p = -1 from (mu_4, mu_3).
    Under protocol p2 a setting inside the equatorial band instead uses the
    three-sign majority direction [sgn(z.mu_1)+sgn(z.mu_4)+sgn(z.mu_6)] a.
    Her completion term carries no sign.
    """
    a = np.asarray(a, dtype=float)
    if protocol == "p2" and in_slice(param, a[2]):
        k = (mu_sign[:, 0] + mu_sign[:, 3] + mu_sign[:, 5]).astype(float)
        return complete_rows(k[:, None] * a[None, :], strategy, a, 1.0)
    axis_fn = aux_axis_alice_nl if protocol == "p2" else aux_axis
    axis = _guarded(axis_fn, param, a)
    if axis is None:
        return np.tile(a, (mu_sign.shape[0], 1))
    s_a = np.where(p == 1, mu_sign[:, 0], mu_sign[:, 3]).astype(float)
    s_axis = np.where(p == 1, mu_sign[:, 1], mu_sign[:, 2]).astype(float)
    w = s_a[:, None] * a[None, :] + s_axis[:, None] * axis[None, :]
    return complete_rows(w, strategy, a, 1.0)


def bob_direction_rows(
    param: EntanglementParam,
    b: np.ndarray,
    q: np.ndarray,
    mu_sign: np.ndarray,
    strategy: Completion,
    protocol: str,
) -> np.ndarray:
    """Bob's per-round direction v for symmetrized setting b and branch q.

    The mu indices cross relative to Alice's: branch q = +1 takes signs from
    (mu_3, mu_1), q = -1 from (mu_2, mu_4); this index pairing is what lets
    the matched second-axis terms survive averaging over the mu signs.  The
    completion vector carries the sgn(z . mu_5) sign (mu_7 for the in-band
    form).  Under protocol p2 the primary direction is b half-turned about
    x; the alternate axis is built from b itself in both protocols.
    """
    b = np.asarray(b, dtype=float)
    b_dir = rotate_pi_about_x(b) if protocol == "p2" else b
    if protocol == "p2" and in_slice(param, b[2]):
        k = (mu_sign[:, 1] + mu_sign[:, 2] + mu_sign[:, 5]).astype(float)
        return complete_rows(k[:, None] * b_dir[None, :], strategy, b_dir, mu_sign[:, 6])
    axis = _guarded(aux_axis, param, b)
    if axis is None:
        return np.tile(b_dir, (mu_sign.shape[0], 1))
    s_b = np.where(q == 1, mu_sign[:, 2], mu_sign[:, 1]).astype(float)
    s_axis = np.where(q == 1, mu_sign[:, 0], mu_sign[:, 3]).astype(float)
    w = s_b[:, None] * b_dir[None, :] + s_axis[:, None] * axis[None, :]
    return complete_rows(w, strategy, b_dir, mu_sign[:, 4])


# The mu signs each protocol reads: sgn(z . mu_1..mu_5) for p1, all seven for p2.
_MU_SIGNS = {"p1": 5, "p2": 7}


def direction_table(
    param: EntanglementParam,
    a: np.ndarray,
    b: np.ndarray,
    strategy: Completion,
    protocol: str,
):
    """Alice's u and Bob's v at symmetrized settings for both branches and every sign tuple.

    With k the number of mu signs the protocol reads (5 for p1, 7 for p2),
    sign tuple i sets sgn(z . mu_{j+1}) to -1 exactly when bit j of i is 1;
    unread mu signs are +1.  Row i of u holds Alice's branch +1 under tuple
    i and row 2^k + i her branch -1; v holds Bob's branches the same way.
    run_batch gathers each round's rows from these arrays (round_directions),
    and exact_mu_average averages u.v over their branch blocks, so sampler and
    oracle read one construction, and both refuse p2 at gamma = 0 here.

    The read-only arrays are built once per (param, a, b, strategy, protocol),
    a and b keyed by their exact bits, and the last 16 are kept.  Code that
    patches a direction builder must clear _branch_tables around the patch.
    """
    a, b = (np.asarray(vec, dtype=float).tobytes() for vec in (a, b))
    return _branch_tables(param, a, b, strategy, protocol)


# A few settings at a time: the sampler runs at most one per worker at once.
# The keys are bytes, not tuples of floats, so that -0.0 and 0.0 differ.
@functools.lru_cache(maxsize=16)
def _branch_tables(param, a: bytes, b: bytes, strategy: Completion, protocol: str):
    _check_p2_gamma(param, protocol)
    k = _MU_SIGNS[protocol]
    tuples = np.arange(2 << k) % (1 << k)
    mu_sign = np.ones((tuples.size, 7), dtype=np.int8)
    mu_sign[:, :k] = 1 - 2 * ((tuples[:, None] >> np.arange(k)) & 1)
    branch = np.repeat(np.array([1, -1], dtype=np.int8), 1 << k)
    u = alice_direction_rows(param, np.frombuffer(a), branch, mu_sign, strategy, protocol)
    v = bob_direction_rows(param, np.frombuffer(b), branch, mu_sign, strategy, protocol)
    u.flags.writeable = v.flags.writeable = False
    return u, v


def round_directions(
    param: EntanglementParam,
    a: np.ndarray,
    b: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    signs: np.ndarray,
    strategy: Completion,
    protocol: str,
):
    """Each round's u and v at symmetrized settings, gathered from direction_table.

    signs are RoundRandomness.signs.  A round's table index keeps the mu
    bits the protocol reads.  Alice's row is picked by her branch sign p and
    Bob's by his q: block 0 of the table is branch +1, block 1 is -1.
    """
    k = _MU_SIGNS[protocol]
    u_tab, v_tab = direction_table(param, a, b, strategy, protocol)
    tuple_idx = (signs & ((1 << k) - 1)).astype(np.intp)
    u = u_tab.take(tuple_idx + ((p < 0) << k), axis=0)
    v = v_tab.take(tuple_idx + ((q < 0) << k), axis=0)
    return u, v


# ---------------------------------------------------------------------------
# Batch engine.
# ---------------------------------------------------------------------------


def _rowdot(rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Each round's x . lambda, for x an (n, 3) row block or one (3,) setting.

    Summed column by column, so a setting gives the bits its tiled rows
    would, and a setting costs no more than a row block: tb uses the one
    form p1 and p2 use.
    """
    return rows[..., 0] * lam[:, 0] + rows[..., 1] * lam[:, 1] + rows[..., 2] * lam[:, 2]


def _kernel(u_lam1, u_lam2, v_lam1, v_lam2):
    """The one-bit kernel on the dot products of u and v with lambda1, lambda2.

    Returns (alpha0, cbit, beta0): alpha0 = sgn(u.l1), cbit = alpha0 sgn(u.l2),
    beta0 = sgn(v.l1 + cbit v.l2).
    """
    alpha0 = sign_array(u_lam1)
    cbit = (alpha0 * sign_array(u_lam2)).astype(np.int8)
    beta0 = sign_array(v_lam1 + cbit * v_lam2)
    return alpha0, cbit, beta0


def run_batch(
    param: EntanglementParam,
    a,
    b,
    rr: RoundRandomness,
    strategy: Completion,
    protocol: str,
) -> BatchOutcome:
    """Execute rr.n rounds at fixed settings, protocol in {"p1","p2","tb"}."""
    if protocol not in PROTOCOL_IDS:
        raise ValueError(f"unknown protocol {protocol!r}")

    if protocol == "tb":
        a = as_unit_vector(a)
        b = as_unit_vector(b)
        alpha, cbit, beta = _kernel(
            _rowdot(a, rr.lam1), _rowdot(a, rr.lam2), _rowdot(b, rr.lam1), _rowdot(b, rr.lam2)
        )
        zero_sign = np.zeros(rr.n, dtype=np.int8)
        return BatchOutcome(
            alpha=alpha, beta=beta, alpha0=alpha, beta0=beta,
            p=zero_sign, q=zero_sign, cbit=cbit,
        )

    # symmetrize validates both settings
    a1, b1, sign_a, sign_b = symmetrize(a, b)

    # Box stage: one box use per round on (a_z, b_z), one call per batch.
    # Alice's sign is p = 2m - 1; Bob inverts his bit into the branch sign
    # q = 1 - 2n, so p == q exactly when a_z <= b_z (ties land there too).
    m, n = outcome_from_uniform(a1[2], b1[2], rr.box_u)
    p, q = 2 * m - 1, 1 - 2 * n

    u_rows, v_rows = round_directions(param, a1, b1, p, q, rr.signs, strategy, protocol)
    alpha0, cbit, beta0 = _kernel(
        _rowdot(u_rows, rr.lam1), _rowdot(u_rows, rr.lam2),
        _rowdot(v_rows, rr.lam1), _rowdot(v_rows, rr.lam2),
    )

    alpha_sym, beta_sym = _flip(alpha0, beta0, flip_spec(param, a1, b1, protocol), rr.flip_r)

    return BatchOutcome(
        alpha=(sign_a * alpha_sym).astype(np.int8),
        beta=(sign_b * beta_sym).astype(np.int8),
        alpha0=alpha0, beta0=beta0,
        p=p, q=q, cbit=cbit,
    )
