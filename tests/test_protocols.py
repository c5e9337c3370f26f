import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mboxsim.geometry import (
    Completion,
    X_HAT,
    Z_HAT,
    sample_unit_sphere,
    sgn,
    unit_vector_from_uniforms,
)
from mboxsim.protocols import (
    CHUNK,
    FlipSpec,
    PROTOCOL_IDS,
    RoundRandomness,
    UNIFORMS_PER_ROUND,
    alice_direction_rows,
    bob_direction_rows,
    correlated_flip,
    flip_spec,
    round_directions,
    round_uniform_block,
    run_batch,
    symmetrize,
)
from mboxsim.quantum import EntanglementParam, aux_axis

PI8 = math.pi / 8
PI4 = math.pi / 4


def rr_from(slots: dict[int, float]) -> RoundRandomness:
    """One round from an all-zeros row with selected slots overridden."""
    u = np.zeros((1, UNIFORMS_PER_ROUND))
    for i, val in slots.items():
        u[0, i] = val
    return RoundRandomness.from_uniform_block(u)


def random_rr(n: int, key: int) -> RoundRandomness:
    g = np.random.Generator(np.random.Philox(key=key))
    return RoundRandomness.from_uniform_block(g.random((n, UNIFORMS_PER_ROUND)))


def tb_round(u, v, lambda1, lambda2):
    """Scalar reference for one round of the one-bit kernel: returns (alpha, beta, cbit)."""
    alpha = sgn(float(u @ lambda1))
    cbit = alpha * sgn(float(u @ lambda2))
    beta = sgn(float(v @ lambda1) + cbit * float(v @ lambda2))
    return alpha, beta, cbit


def mu_signs(down=()) -> np.ndarray:
    """One row of the seven mu signs, with sgn(z . mu_i) = -1 for i in down."""
    row = np.ones((1, 7), dtype=np.int8)
    for i in down:
        row[0, i - 1] = -1
    return row


def alice_u(param, a, p, down, strategy, protocol="p1"):
    return alice_direction_rows(param, a, np.array([p]), mu_signs(down), strategy, protocol)[0]


def bob_v(param, b, q, down, strategy, protocol="p1"):
    return bob_direction_rows(param, b, np.array([q]), mu_signs(down), strategy, protocol)[0]


def looked_up(param, a1, b1, p, q, signs, strategy, protocol):
    """The (u, v) run_batch gathers for one round with the given packed signs."""
    u, v = round_directions(
        param, np.asarray(a1, dtype=float), np.asarray(b1, dtype=float),
        np.array([p], dtype=np.int8), np.array([q], dtype=np.int8),
        np.array([signs], dtype=np.uint16), strategy, protocol,
    )
    return u[0], v[0]


class TestRoundRandomness:
    def test_from_uniforms_layout(self):
        assert UNIFORMS_PER_ROUND == 24
        rr = rr_from({})
        assert rr.n == 1
        assert rr.lam1[0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert rr.lam2[0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert rr.flip_r[0] == 0.0
        assert rr.box_u[0] == 0.0
        assert rr.signs[0] == 0
        rr = rr_from({0: 0.5, 1: 0.25, 2: 1.0, 3: 0.0})
        # lambda's azimuth trig is float32: cos(pi/2) reads -4.4e-8 there
        assert rr.lam1[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-6)
        assert rr.lam2[0] == pytest.approx([0.0, 0.0, -1.0], abs=1e-6)

    def test_lambda_matches_float64_sphere_map(self):
        # over one whole chunk, against the float64 map on the same slots:
        # z is the same float, x and y move by float32 rounding of the trig
        u = round_uniform_block(7, 0, 0, CHUNK)
        rr = RoundRandomness.from_uniform_block(u)
        for lam, slots in ((rr.lam1, (0, 1)), (rr.lam2, (2, 3))):
            ref = unit_vector_from_uniforms(u[:, slots[0]], u[:, slots[1]])
            assert lam.dtype == np.float64 and lam.shape == (CHUNK, 3)
            assert np.array_equal(lam[:, 2], ref[:, 2])
            assert np.abs(lam[:, :2] - ref[:, :2]).max() <= 5e-7
            assert np.abs(np.linalg.norm(lam, axis=1) - 1.0).max() <= 1e-6

    def test_float32_azimuth_keeps_kernel_signs(self):
        # a kernel sign can move only where |u . lambda| < ~2.5e-7: over
        # 2^21 rounds per protocol, float32 and float64 lambda give the same
        # (alpha0, cbit, beta0) in all but at most 2 rounds
        param = EntanglementParam(PI8)
        g = np.random.Generator(np.random.Philox(key=76))
        pairs = [(sample_unit_sphere(g), sample_unit_sphere(g)) for _ in range(4)]
        differ = dict.fromkeys(PROTOCOL_IDS, 0)
        for si, (a, b) in enumerate(pairs):
            for start in range(0, 8 * CHUNK, CHUNK):
                u = round_uniform_block(11, si, start, CHUNK)
                rr = RoundRandomness.from_uniform_block(u)
                rr64 = dataclasses.replace(
                    rr,
                    lam1=unit_vector_from_uniforms(u[:, 0], u[:, 1]),
                    lam2=unit_vector_from_uniforms(u[:, 2], u[:, 3]),
                )
                for protocol in PROTOCOL_IDS:
                    one = run_batch(param, a, b, rr, Completion.NORMALIZE, protocol)
                    two = run_batch(param, a, b, rr64, Completion.NORMALIZE, protocol)
                    differ[protocol] += int(np.count_nonzero(
                        (one.alpha0 != two.alpha0) | (one.cbit != two.cbit) | (one.beta0 != two.beta0)
                    ))
        assert sum(differ.values()) <= 2, differ

    def test_mu_sign_slots(self):
        # polar slots 4, 6, ..., 16 carry the signs (u <= 1/2 means z >= 0)
        # as bits 0..6; the azimuth slots between them are never read
        rr = rr_from({4: 0.9, 5: 0.9, 10: 0.5, 16: 0.51})
        assert rr.signs[0] == 0b1000001
        param = EntanglementParam(PI8)
        a, b = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, 0.8])
        # p2 reads all seven mu signs, p1 the first five
        u, v = looked_up(param, a, b, -1, 1, rr.signs[0], Completion.NORMALIZE, "p2")
        assert np.array_equal(u, alice_u(param, a, -1, {1, 7}, Completion.NORMALIZE, "p2"))
        assert np.array_equal(v, bob_v(param, b, 1, {1, 7}, Completion.NORMALIZE, "p2"))
        u, v = looked_up(param, a, b, 1, 1, rr.signs[0], Completion.NORMALIZE, "p1")
        assert np.array_equal(u, alice_u(param, a, 1, {1}, Completion.NORMALIZE))
        assert np.array_equal(v, bob_v(param, b, 1, {1}, Completion.NORMALIZE))

    def test_slot_18_is_flip_and_19_is_box(self):
        rr = rr_from({18: 0.25, 19: 0.75})
        assert rr.flip_r[0] == 0.25
        assert rr.box_u[0] == 0.75
        assert rr.signs[0] == 0

    def test_slots_20_to_23_are_unread(self):
        # no sign comes from the last four slots, whatever they hold
        g = np.random.Generator(np.random.Philox(key=49))
        u = g.random((64, UNIFORMS_PER_ROUND))
        signs = RoundRandomness.from_uniform_block(u).signs
        assert signs.max() < 1 << 7
        for fill in (0.0, 0.5, 0.9, 1.0 - 2.0**-53):
            u[:, 20:24] = fill
            assert np.array_equal(RoundRandomness.from_uniform_block(u).signs, signs)
        u[:, 20:24] = g.random((64, 4))
        assert np.array_equal(RoundRandomness.from_uniform_block(u).signs, signs)

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundRandomness.from_uniform_block(np.zeros(UNIFORMS_PER_ROUND))
        with pytest.raises(ValueError):
            RoundRandomness.from_uniform_block(np.zeros((2, UNIFORMS_PER_ROUND - 1)))

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.integers(0, 2**32 - 1),
        protocol=st.sampled_from(PROTOCOL_IDS),
        completion=st.sampled_from(tuple(Completion)),
        tie=st.booleans(),
        data=st.data(),
    )
    def test_round_randomness_views_agree(self, key, protocol, completion, tie, data):
        # a round reads only its own row: a block run as one batch equals the
        # block split at any row and run as two, bit for bit, randomness too
        gammas = (PI8, 0.7853981634) if protocol == "p2" else (0.0, PI8, 0.7853981634)
        param = EntanglementParam(data.draw(st.sampled_from(gammas), label="gamma"))
        g = np.random.Generator(np.random.Philox(key=key))
        a, b = sample_unit_sphere(g), sample_unit_sphere(g)
        if tie:
            b = np.array([-a[1], a[0], a[2]])  # a_z == b_z
        u = g.random((data.draw(st.integers(1, 48), label="rows"), UNIFORMS_PER_ROUND))
        u[0, 4:22] = 0.5  # every sign slot on its boundary
        split = data.draw(st.integers(0, u.shape[0]), label="split")
        block = RoundRandomness.from_uniform_block(u)
        parts = [RoundRandomness.from_uniform_block(rows) for rows in (u[:split], u[split:])]
        for name in ("lam1", "lam2", "flip_r", "box_u", "signs"):
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert np.array_equal(joined, getattr(block, name)), name
        whole = run_batch(param, a, b, block, completion, protocol)
        outs = [run_batch(param, a, b, part, completion, protocol) for part in parts]
        for name in ("alpha", "beta", "alpha0", "beta0", "p", "q", "cbit"):
            joined = np.concatenate([getattr(out, name) for out in outs])
            assert np.array_equal(joined, getattr(whole, name)), name

    def test_uniform_block_sign_slots(self):
        # each row of a block packs its own signs
        param = EntanglementParam(PI8)
        a, b = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, 0.8])
        u = np.zeros((3, UNIFORMS_PER_ROUND))
        u[1, 4] = 0.9
        u[2, 16] = 0.9
        rr = RoundRandomness.from_uniform_block(u)
        assert rr.signs.tolist() == [0, 1, 1 << 6]
        p = np.ones(3, dtype=np.int8)
        got_u, got_v = round_directions(param, a, b, p, p, rr.signs, Completion.NORMALIZE, "p2")
        for i, down in enumerate(((), {1}, {7})):
            assert np.array_equal(got_u[i], alice_u(param, a, 1, down, Completion.NORMALIZE, "p2"))
            assert np.array_equal(got_v[i], bob_v(param, b, 1, down, Completion.NORMALIZE, "p2"))


class TestSymmetrize:
    def test_reflects_into_upper_hemisphere(self):
        a1, b1, sa, sb = symmetrize([0.0, 0.0, -1.0], Z_HAT)
        assert a1 == pytest.approx([0.0, 0.0, 1.0])
        assert (sa, sb) == (-1, 1)

    def test_equator_counts_as_upper(self):
        a1, _, sa, _ = symmetrize(X_HAT, Z_HAT)
        assert sa == 1
        assert a1 == pytest.approx([1.0, 0.0, 0.0])

    def test_undo(self):
        a = np.array([0.6, 0.0, -0.8])
        a1, _, sa, _ = symmetrize(a, Z_HAT)
        assert sa * a1 == pytest.approx(a.tolist())


class TestCorrelatedFlip:
    def test_only_minus_one_flips(self):
        spec = FlipSpec(0.5, 0.5)
        assert correlated_flip(1, 1, spec, 0.1) == (1, 1)
        assert correlated_flip(-1, -1, spec, 0.1) == (1, 1)
        assert correlated_flip(-1, -1, spec, 0.9) == (-1, -1)

    def test_nested_events(self):
        spec = FlipSpec(0.3, 0.6)
        # whenever Alice flips, Bob (with the larger weight) flips too
        for r in np.linspace(0.0, 0.999, 100):
            alpha, beta = correlated_flip(-1, -1, spec, float(r))
            if alpha == 1:
                assert beta == 1

    def test_elementwise(self):
        # one call on arrays equals the calls on each element, and keeps the
        # sign dtype run_batch hands it
        spec = FlipSpec(0.3, 0.6)
        g = np.random.Generator(np.random.Philox(key=50))
        a0 = np.where(g.random(200) < 0.5, 1, -1).astype(np.int8)
        b0 = np.where(g.random(200) < 0.5, 1, -1).astype(np.int8)
        r = g.random(200)
        alpha, beta = correlated_flip(a0, b0, spec, r)
        assert alpha.dtype == np.int8 and beta.dtype == np.int8
        for i in range(200):
            assert (alpha[i], beta[i]) == correlated_flip(int(a0[i]), int(b0[i]), spec, float(r[i]))

    def test_validation(self):
        spec = FlipSpec(0.3, 0.6)
        with pytest.raises(ValueError):
            correlated_flip(0, 1, spec, 0.1)
        with pytest.raises(ValueError):
            correlated_flip(1, 1, spec, 1.0)
        with pytest.raises(ValueError):
            correlated_flip(np.array([1, -1]), np.array([1, 2]), spec, np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            correlated_flip(np.array([1, -1]), np.array([1, 1]), spec, np.array([0.1, np.nan]))
        # an int8 square would wrap 127 to 1; a range check by floor must see
        # the tiny negative and the infinity
        with pytest.raises(ValueError):
            correlated_flip(np.int8([1, 127]), np.int8([1, 1]), spec, np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            correlated_flip(np.int8([1, -1]), np.int8([-128, 1]), spec, np.array([0.1, 0.2]))
        for bad_r in (-1e-300, np.inf, -np.inf):
            with pytest.raises(ValueError):
                correlated_flip(np.array([1, -1]), np.array([1, 1]), spec, np.array([0.1, bad_r]))
        assert correlated_flip(-1, -1, spec, -0.0) == (1, 1)
        # ±1j has modulus 1 but is not a sign, in a complex or an object array
        for bad in (np.array([1, 1j]), np.array([1, -1j], dtype=object), 1j):
            with pytest.raises(ValueError):
                correlated_flip(bad, np.array([1, 1]), spec, np.array([0.1, 0.2]))
            with pytest.raises(ValueError):
                correlated_flip(np.array([1, 1]), bad, spec, np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            FlipSpec(-0.1, 0.5)
        with pytest.raises(ValueError):
            FlipSpec(0.5, 1.1)


class TestTbRound:
    def test_aligned_settings_always_agree(self):
        g = np.random.Generator(np.random.Philox(key=51))
        for _ in range(100):
            lam1 = g.normal(size=3)
            lam2 = g.normal(size=3)
            lam1 /= np.linalg.norm(lam1)
            lam2 /= np.linalg.norm(lam2)
            u = g.normal(size=3)
            u /= np.linalg.norm(u)
            alpha, beta, _ = tb_round(u, u, lam1, lam2)
            assert alpha * beta == 1

    def test_correlation_is_scalar_product(self):
        rr = random_rr(200_000, key=52)
        u = np.array([0.6, 0.0, 0.8])
        v = np.array([0.0, 0.8, -0.6])
        out = run_batch(EntanglementParam(PI8), u, v, rr, Completion.NORMALIZE, "tb")
        prod = (out.alpha.astype(float) * out.beta).mean()
        band = 4.0 / math.sqrt(rr.n)
        assert abs(prod - float(u @ v)) < band

    def test_scalar_matches_batch(self):
        rr = random_rr(200, key=53)
        a, b = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, 0.8])
        out = run_batch(EntanglementParam(0.0), a, b, rr, Completion.NORMALIZE, "tb")
        for i in range(rr.n):
            alpha, beta, cbit = tb_round(a, b, rr.lam1[i], rr.lam2[i])
            assert (alpha, beta, cbit) == (out.alpha[i], out.beta[i], out.cbit[i])


class TestDirectionConstruction:
    def test_alice_worked_example(self):
        # a = x, both mu signs up, p = +1: u = normalize(a + A) with
        # A = (s, 0, -c)/1 at gamma = pi/8
        u = alice_u(EntanglementParam(PI8), X_HAT, 1, (), Completion.NORMALIZE)
        assert u == pytest.approx([0.9238795, 0.0, -0.3826834], abs=1e-7)

    def test_alice_branch_chooses_other_mu_pair(self):
        # flip mu_4 down: only the p = -1 branch sees it
        param = EntanglementParam(PI8)
        same = alice_u(param, X_HAT, 1, {4}, Completion.NORMALIZE)
        assert same == pytest.approx(alice_u(param, X_HAT, 1, (), Completion.NORMALIZE).tolist())
        other = alice_u(param, X_HAT, -1, {4}, Completion.NORMALIZE)
        assert not np.allclose(other, alice_u(param, X_HAT, -1, (), Completion.NORMALIZE))

    def test_bob_completion_sign_reflects(self):
        # under ORTHO the mu_5 sign mirrors the completion: the two choices
        # average back to the in-plane part
        param = EntanglementParam(PI8)
        b = X_HAT
        plus = bob_v(param, b, 1, {1}, Completion.ORTHO)
        minus = bob_v(param, b, 1, {1, 5}, Completion.ORTHO)
        w = b - aux_axis(param, b)
        assert np.linalg.norm(w) < 1.0
        assert plus + minus == pytest.approx((2.0 * w).tolist(), abs=1e-12)
        assert np.linalg.norm(plus) == pytest.approx(1.0, abs=1e-12)

    def test_nonlocal_form_in_band_majority(self):
        # gamma = pi/8 puts z = 0 inside the band: direction is +/- a
        param = EntanglementParam(PI8)
        u = alice_u(param, X_HAT, 1, (), Completion.NORMALIZE, protocol="p2")
        assert u == pytest.approx([1.0, 0.0, 0.0])
        u = alice_u(param, X_HAT, 1, {1, 4, 6}, Completion.NORMALIZE, protocol="p2")
        assert u == pytest.approx([-1.0, 0.0, 0.0])


class TestDirectionTable:
    # (gamma, a, b, protocols): generic settings, a p2 setting inside the
    # equatorial band, a tie a_z == b_z, and Alice's degenerate alternate axis
    CASES = (
        (PI8, [0.6, 0.0, 0.8], [0.0, 0.6, -0.8], ("p1", "p2")),
        (PI8, [0.995, 0.0, 0.0998749217771909], [0.36, 0.48, 0.8], ("p1", "p2")),
        (PI8, [0.6, 0.0, 0.8], [0.0, 0.6, 0.8], ("p1", "p2")),
        (0.0, [0.0, 0.0, 1.0], [0.6, 0.0, 0.8], ("p1",)),
    )

    @pytest.mark.parametrize("strategy", list(Completion), ids=lambda s: s.value)
    def test_gathered_rows_match_per_round_calls(self, strategy):
        # every round's looked-up u and v equal, bit for bit, the direction
        # builders called on that round alone with the mu signs it packs;
        # packed bits 7 and 8 are read by no strategy
        g = np.random.Generator(np.random.Philox(key=7))
        for gamma, a, b, protocols in self.CASES:
            param = EntanglementParam(gamma)
            a1, b1, _, _ = symmetrize(a, b)
            for protocol in protocols:
                n_mu = 5 if protocol == "p1" else 7
                n = 300
                packed = g.integers(0, 1 << 9, n).astype(np.uint16)
                p = np.where(g.random(n) < 0.5, 1, -1).astype(np.int8)
                q = np.where(g.random(n) < 0.5, 1, -1).astype(np.int8)
                u, v = round_directions(param, a1, b1, p, q, packed, strategy, protocol)
                for high in (0b01, 0b10, 0b11):
                    other = packed ^ np.uint16(high << 7)
                    u2, v2 = round_directions(param, a1, b1, p, q, other, strategy, protocol)
                    assert np.array_equal(u2, u) and np.array_equal(v2, v), (gamma, a, protocol, high)
                for i in range(n):
                    signs = [-1 if int(packed[i]) >> j & 1 else 1 for j in range(n_mu)]
                    mu = np.array([signs + [1] * (7 - n_mu)], dtype=np.int8)
                    want_u = alice_direction_rows(param, a1, p[i : i + 1], mu, strategy, protocol)
                    want_v = bob_direction_rows(param, b1, q[i : i + 1], mu, strategy, protocol)
                    assert np.array_equal(u[i], want_u[0]), (gamma, a, protocol, i)
                    assert np.array_equal(v[i], want_v[0]), (gamma, b, protocol, i)


class TestRunBatch:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            run_batch(
                EntanglementParam(PI8), Z_HAT, Z_HAT, random_rr(4, key=61), Completion.NORMALIZE, "p3"
            )

    def test_p2_needs_entanglement(self):
        with pytest.raises(ValueError):
            run_batch(
                EntanglementParam(0.0), Z_HAT, Z_HAT, random_rr(4, key=62), Completion.NORMALIZE, "p2"
            )

    def test_protocol_ids(self):
        assert PROTOCOL_IDS == ("p1", "p2", "tb")

    @pytest.mark.parametrize("protocol", ["p1", "p2"])
    def test_output_coding(self, protocol):
        rr = random_rr(5000, key=63)
        out = run_batch(
            EntanglementParam(PI8), [0.6, 0.0, 0.8], [0.0, 0.6, -0.8], rr, Completion.ORTHO, protocol
        )
        for col in (out.alpha, out.beta, out.alpha0, out.beta0, out.p, out.q):
            assert set(np.unique(col).tolist()) <= {-1, 1}
        assert out.alpha.dtype == np.int8
        # flips only ever promote a -1, and b_z < 0 reflects Bob's outputs
        alpha_sym, beta_sym = out.alpha, -out.beta
        assert np.all(alpha_sym[out.alpha0 == 1] == 1)
        assert np.all(beta_sym[out.beta0 == 1] == 1)
        assert np.any(alpha_sym != out.alpha0) and np.any(beta_sym != out.beta0)

    def test_branch_sign_tracks_comparison(self):
        rr = random_rr(200, key=65)
        param = EntanglementParam(PI8)
        low_high = run_batch(param, [0.8, 0.0, 0.6], [0.0, 0.0, 1.0], rr, Completion.NORMALIZE, "p1")
        assert np.all(low_high.p == low_high.q)
        high_low = run_batch(param, [0.0, 0.0, 1.0], [0.8, 0.0, 0.6], rr, Completion.NORMALIZE, "p1")
        assert np.all(high_low.p == -high_low.q)
        tie = run_batch(param, [0.8, 0.0, 0.6], [0.0, 0.8, 0.6], rr, Completion.NORMALIZE, "p1")
        assert np.all(tie.p == tie.q)

    def test_branch_sign_sees_symmetrized_settings(self):
        rr = random_rr(200, key=66)
        out = run_batch(
            EntanglementParam(PI8), [0.0, 0.0, -1.0], [0.8, 0.0, 0.6], rr, Completion.NORMALIZE, "p1"
        )
        # box compares |a_z| = 1 against 0.6
        assert np.all(out.p == -out.q)

    def test_p_is_a_fair_coin(self):
        rr = random_rr(100_000, key=67)
        out = run_batch(EntanglementParam(PI8), Z_HAT, X_HAT, rr, Completion.NORMALIZE, "p1")
        assert abs(out.p.astype(float).mean()) < 4.0 / math.sqrt(rr.n)

    def test_pre_flip_outputs_are_unbiased(self):
        rr = random_rr(100_000, key=68)
        out = run_batch(
            EntanglementParam(PI8), [0.6, 0.0, 0.8], [0.0, 0.6, 0.8], rr, Completion.NORMALIZE, "p1"
        )
        band = 4.5 / math.sqrt(rr.n)
        assert abs(out.alpha0.astype(float).mean()) < band
        assert abs(out.beta0.astype(float).mean()) < band

    def test_deterministic(self):
        rr = random_rr(1000, key=69)
        a, b = [0.6, 0.0, 0.8], [0.0, 0.6, -0.8]
        one = run_batch(EntanglementParam(PI8), a, b, rr, Completion.ORTHO, "p2")
        two = run_batch(EntanglementParam(PI8), a, b, rr, Completion.ORTHO, "p2")
        assert np.array_equal(one.alpha, two.alpha)
        assert np.array_equal(one.beta, two.beta)

    def test_desymmetrization_sign(self):
        # negating Alice's setting reflects it onto the same symmetrized
        # frame, so the whole batch replays with her final output negated
        rr = random_rr(2000, key=74)
        param = EntanglementParam(PI8)
        up = np.array([0.6, 0.0, 0.8])
        for protocol in ("p1", "p2"):
            out_up = run_batch(param, up, Z_HAT, rr, Completion.NORMALIZE, protocol)
            out_dn = run_batch(param, -up, Z_HAT, rr, Completion.NORMALIZE, protocol)
            assert np.array_equal(out_dn.alpha0, out_up.alpha0)
            assert np.array_equal(out_dn.beta, out_up.beta)
            assert np.array_equal(out_dn.alpha, -out_up.alpha)

    def test_ortho_sign_runs_ortho(self):
        # ortho-sign is sampled by ortho's rule: every column of every batch
        # is the same, at generic settings, a tie a_z == b_z, a p2 setting
        # inside the band, gamma = pi/4 and the degenerate axis at gamma = 0
        generic = ([0.6, 0.0, 0.8], [0.0, 0.6, -0.8])
        tie = ([0.6, 0.0, 0.8], [0.0, 0.6, 0.8])
        in_band = ([0.995, 0.0, 0.0998749217771909], [0.0, 1.0, 0.0])
        cases = [(gamma, protocol, pair)
                 for gamma in (PI8, 0.7853981634)
                 for protocol in ("p1", "p2")
                 for pair in (generic, tie, in_band)]
        cases.append((0.0, "p1", (Z_HAT, [0.6, 0.0, 0.8])))
        rr = random_rr(4000, key=75)
        for gamma, protocol, (a, b) in cases:
            param = EntanglementParam(gamma)
            one = run_batch(param, a, b, rr, Completion.ORTHO, protocol)
            two = run_batch(param, a, b, rr, Completion.ORTHO_SIGN, protocol)
            for name in ("alpha", "beta", "alpha0", "beta0", "p", "q", "cbit"):
                assert np.array_equal(getattr(one, name), getattr(two, name)), (gamma, protocol, a, name)

    @pytest.mark.parametrize("protocol", ["p1", "p2"])
    def test_flip_is_correlated_flip(self, protocol):
        # run_batch applies correlated_flip's rule, without its input checks
        rr = random_rr(5000, key=77)
        param = EntanglementParam(PI8)
        a, b = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, -0.8])
        out = run_batch(param, a, b, rr, Completion.NORMALIZE, protocol)
        a1, b1, sign_a, sign_b = symmetrize(a, b)
        alpha, beta = correlated_flip(out.alpha0, out.beta0, flip_spec(param, a1, b1, protocol), rr.flip_r)
        assert np.array_equal(out.alpha, sign_a * alpha)
        assert np.array_equal(out.beta, sign_b * beta)

    def test_degenerate_axis_falls_back(self):
        # gamma = 0 makes Alice's alternate axis undefined at a = z; the
        # round must still execute (and the flip weight there is 1)
        rr = random_rr(500, key=70)
        out = run_batch(EntanglementParam(0.0), Z_HAT, [0.6, 0.0, 0.8], rr, Completion.NORMALIZE, "p1")
        assert np.all(out.alpha == 1)
