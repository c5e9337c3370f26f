import dataclasses
import math

import numpy as np
import pytest

from mboxsim.geometry import Completion, CompletionStrategy, X_HAT, Z_HAT
from mboxsim.protocols import (
    FlipSpec,
    PROTOCOL_IDS,
    RoundRandomness,
    SharedRandomness,
    UNIFORMS_PER_ROUND,
    build_u,
    build_v,
    correlated_flip,
    protocol1_round,
    protocol2_round,
    run_batch,
    symmetrize,
    tb_round,
)
from mboxsim.quantum import EntanglementParam, aux_axis

PI8 = math.pi / 8
PI4 = math.pi / 4
NORMALIZE = CompletionStrategy(Completion.NORMALIZE)
ORTHO = CompletionStrategy(Completion.ORTHO)


def shared_from(slots: dict[int, float]) -> SharedRandomness:
    """Round bundle from an all-zeros row with selected slots overridden."""
    u = np.zeros(UNIFORMS_PER_ROUND)
    for i, val in slots.items():
        u[i] = val
    return SharedRandomness.from_uniforms(u)


def random_rr(n: int, key: int) -> RoundRandomness:
    g = np.random.Generator(np.random.Philox(key=key))
    return RoundRandomness.from_uniform_block(g.random((n, UNIFORMS_PER_ROUND)))


class TestSharedRandomness:
    def test_from_uniforms_layout(self):
        shared = shared_from({})
        assert shared.lambda1 == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert shared.lambda2 == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert shared.mu_sign == (1,) * 7
        assert shared.flip_r == 0.0
        assert shared.box_u == 0.0
        assert shared.extra_signs == (1, 1)

    def test_mu_sign_slots(self):
        # polar slots 4, 6, ..., 16 carry the signs (u <= 1/2 means z >= 0);
        # the azimuth slots between them are never read
        shared = shared_from({4: 0.9, 5: 0.9, 10: 0.5, 16: 0.51})
        assert shared.mu_sign == (-1, 1, 1, 1, 1, 1, -1)

    def test_slot_18_is_flip_and_19_is_box(self):
        shared = shared_from({18: 0.25, 19: 0.75})
        assert shared.flip_r == 0.25
        assert shared.box_u == 0.75

    def test_extra_sign_slots(self):
        shared = shared_from({20: 0.9, 21: 0.1})
        assert shared.extra_signs == (-1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedRandomness.from_uniforms(np.zeros(23))
        ok = shared_from({})
        with pytest.raises(ValueError):
            dataclasses.replace(ok, flip_r=1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(ok, mu_sign=(0, 1, 1, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            dataclasses.replace(ok, mu_sign=(1,) * 6)
        with pytest.raises(ValueError):
            dataclasses.replace(ok, extra_signs=(0, 1))
        with pytest.raises(ValueError):
            dataclasses.replace(ok, lambda1=np.array([0.0, 0.0, 2.0]))
        assert dataclasses.replace(ok, mu_sign=np.array([-1] * 7)).mu_sign == (-1,) * 7

    def test_draw_is_deterministic_in_the_stream(self):
        a = SharedRandomness.draw(np.random.Generator(np.random.Philox(key=5)))
        b = SharedRandomness.draw(np.random.Generator(np.random.Philox(key=5)))
        assert np.array_equal(a.lambda1, b.lambda1)
        assert a.mu_sign == b.mu_sign
        assert a.flip_r == b.flip_r

    def test_round_randomness_views_agree(self):
        # a scalar round is a batch of one: expanding each row on its own
        # and expanding the block give bit-identical randomness and rounds
        g = np.random.Generator(np.random.Philox(key=6))
        u = g.random((40, UNIFORMS_PER_ROUND))
        u[0, 4:22] = 0.5
        block = RoundRandomness.from_uniform_block(u)
        param = EntanglementParam(PI8)
        a, b = [0.6, 0.0, 0.8], [0.0, 0.6, -0.8]
        for i, row in enumerate(u):
            rr = RoundRandomness.from_shared(SharedRandomness.from_uniforms(row))
            assert rr.n == 1
            for name in ("lam1", "lam2", "mu_sign", "flip_r", "box_u", "extra"):
                assert np.array_equal(getattr(rr, name)[0], getattr(block, name)[i]), name
        for protocol in PROTOCOL_IDS:
            whole = run_batch(param, a, b, block, ORTHO, protocol)
            for i, row in enumerate(u):
                rr = RoundRandomness.from_shared(SharedRandomness.from_uniforms(row))
                one = run_batch(param, a, b, rr, ORTHO, protocol)
                for name in ("alpha", "beta", "alpha0", "beta0", "p", "q", "cbit"):
                    assert getattr(one, name)[0] == getattr(whole, name)[i], (protocol, name)

    def test_uniform_block_sign_slots(self):
        u = np.zeros((3, UNIFORMS_PER_ROUND))
        u[1, 4] = 0.9
        u[2, 16] = 0.9
        rr = RoundRandomness.from_uniform_block(u)
        assert rr.mu_sign[0].tolist() == [1] * 7
        assert rr.mu_sign[1].tolist() == [-1, 1, 1, 1, 1, 1, 1]
        assert rr.mu_sign[2].tolist() == [1, 1, 1, 1, 1, 1, -1]


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

    def test_validation(self):
        spec = FlipSpec(0.3, 0.6)
        with pytest.raises(ValueError):
            correlated_flip(0, 1, spec, 0.1)
        with pytest.raises(ValueError):
            correlated_flip(1, 1, spec, 1.0)
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
        out = run_batch(EntanglementParam(PI8), u, v, rr, NORMALIZE, "tb")
        prod = (out.alpha.astype(float) * out.beta).mean()
        band = 4.0 / math.sqrt(rr.n)
        assert abs(prod - float(u @ v)) < band

    def test_scalar_matches_batch(self):
        shared = SharedRandomness.draw(np.random.Generator(np.random.Philox(key=53)))
        a, b = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, 0.8])
        alpha, beta, cbit = tb_round(a, b, shared.lambda1, shared.lambda2)
        out = run_batch(EntanglementParam(0.0), a, b, RoundRandomness.from_shared(shared), NORMALIZE, "tb")
        assert (alpha, beta, cbit) == (out.alpha[0], out.beta[0], out.cbit[0])


class TestDirectionConstruction:
    def test_build_u_worked_example(self):
        # a = x, both mu signs up, p = +1: u = normalize(a + A) with
        # A = (s, 0, -c)/1 at gamma = pi/8
        shared = shared_from({})
        u = build_u(EntanglementParam(PI8), X_HAT, 1, shared, NORMALIZE)
        assert u == pytest.approx([0.9238795, 0.0, -0.3826834], abs=1e-7)

    def test_build_u_branch_chooses_other_mu_pair(self):
        # flip mu_4 (slot 10) down: only the p = -1 branch sees it
        shared_up = shared_from({})
        shared_dn = shared_from({10: 0.9})
        param = EntanglementParam(PI8)
        same = build_u(param, X_HAT, 1, shared_dn, NORMALIZE)
        assert same == pytest.approx(build_u(param, X_HAT, 1, shared_up, NORMALIZE).tolist())
        other = build_u(param, X_HAT, -1, shared_dn, NORMALIZE)
        assert not np.allclose(other, build_u(param, X_HAT, -1, shared_up, NORMALIZE))

    def test_build_v_completion_sign_reflects(self):
        # under ORTHO the mu_5 sign mirrors the completion: the two choices
        # average back to the in-plane part
        param = EntanglementParam(PI8)
        b = X_HAT
        plus = build_v(param, b, 1, shared_from({4: 0.9}), ORTHO)
        minus = build_v(param, b, 1, shared_from({4: 0.9, 12: 0.9}), ORTHO)
        w = b - aux_axis(param, b)
        assert np.linalg.norm(w) < 1.0
        assert plus + minus == pytest.approx((2.0 * w).tolist(), abs=1e-12)
        assert np.linalg.norm(plus) == pytest.approx(1.0, abs=1e-12)

    def test_build_u_requires_sign(self):
        with pytest.raises(ValueError):
            build_u(EntanglementParam(PI8), X_HAT, 0, shared_from({}), NORMALIZE)

    def test_nonlocal_form_in_band_majority(self):
        # gamma = pi/8 puts z = 0 inside the band: direction is +/- a
        param = EntanglementParam(PI8)
        u = build_u(param, X_HAT, 1, shared_from({}), NORMALIZE, nonlocal_form=True)
        assert u == pytest.approx([1.0, 0.0, 0.0])
        u = build_u(param, X_HAT, 1, shared_from({4: 0.9, 10: 0.9, 14: 0.9}), NORMALIZE, nonlocal_form=True)
        assert u == pytest.approx([-1.0, 0.0, 0.0])


class TestRunBatch:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            run_batch(EntanglementParam(PI8), Z_HAT, Z_HAT, random_rr(4, key=61), NORMALIZE, "p3")

    def test_p2_needs_entanglement(self):
        with pytest.raises(ValueError):
            run_batch(EntanglementParam(0.0), Z_HAT, Z_HAT, random_rr(4, key=62), NORMALIZE, "p2")

    def test_protocol_ids(self):
        assert PROTOCOL_IDS == ("p1", "p2", "tb")

    @pytest.mark.parametrize("protocol", ["p1", "p2"])
    def test_output_coding(self, protocol):
        rr = random_rr(5000, key=63)
        out = run_batch(EntanglementParam(PI8), [0.6, 0.0, 0.8], [0.0, 0.6, -0.8], rr, ORTHO, protocol)
        for col in (out.alpha, out.beta, out.alpha0, out.beta0, out.p, out.q):
            assert set(np.unique(col).tolist()) <= {-1, 1}
        assert out.alpha.dtype == np.int8
        # flips only ever promote a -1
        assert not np.any(out.flipped_alpha & (out.alpha0 == 1))
        assert not np.any(out.flipped_beta & (out.beta0 == 1))

    def test_budget_columns(self):
        rr = random_rr(1000, key=64)
        out = run_batch(EntanglementParam(PI8), Z_HAT, X_HAT, rr, NORMALIZE, "p1")
        assert np.all(out.cbits_a_to_b == 1)
        assert np.all(out.cbits_b_to_a == 0)
        assert np.all(out.mbox_calls == 1)
        tb = run_batch(EntanglementParam(PI8), Z_HAT, X_HAT, rr, NORMALIZE, "tb")
        assert np.all(tb.mbox_calls == 0)
        assert np.all(tb.cbits_a_to_b == 1)

    def test_branch_sign_tracks_comparison(self):
        rr = random_rr(200, key=65)
        param = EntanglementParam(PI8)
        low_high = run_batch(param, [0.8, 0.0, 0.6], [0.0, 0.0, 1.0], rr, NORMALIZE, "p1")
        assert np.all(low_high.p == low_high.q)
        high_low = run_batch(param, [0.0, 0.0, 1.0], [0.8, 0.0, 0.6], rr, NORMALIZE, "p1")
        assert np.all(high_low.p == -high_low.q)
        tie = run_batch(param, [0.8, 0.0, 0.6], [0.0, 0.8, 0.6], rr, NORMALIZE, "p1")
        assert np.all(tie.p == tie.q)

    def test_branch_sign_sees_symmetrized_settings(self):
        rr = random_rr(200, key=66)
        out = run_batch(EntanglementParam(PI8), [0.0, 0.0, -1.0], [0.8, 0.0, 0.6], rr, NORMALIZE, "p1")
        # box compares |a_z| = 1 against 0.6
        assert np.all(out.p == -out.q)

    def test_p_is_a_fair_coin(self):
        rr = random_rr(100_000, key=67)
        out = run_batch(EntanglementParam(PI8), Z_HAT, X_HAT, rr, NORMALIZE, "p1")
        assert abs(out.p.astype(float).mean()) < 4.0 / math.sqrt(rr.n)

    def test_pre_flip_outputs_are_unbiased(self):
        rr = random_rr(100_000, key=68)
        out = run_batch(EntanglementParam(PI8), [0.6, 0.0, 0.8], [0.0, 0.6, 0.8], rr, NORMALIZE, "p1")
        band = 4.5 / math.sqrt(rr.n)
        assert abs(out.alpha0.astype(float).mean()) < band
        assert abs(out.beta0.astype(float).mean()) < band

    def test_deterministic(self):
        rr = random_rr(1000, key=69)
        a, b = [0.6, 0.0, 0.8], [0.0, 0.6, -0.8]
        one = run_batch(EntanglementParam(PI8), a, b, rr, ORTHO, "p2")
        two = run_batch(EntanglementParam(PI8), a, b, rr, ORTHO, "p2")
        assert np.array_equal(one.alpha, two.alpha)
        assert np.array_equal(one.beta, two.beta)

    def test_degenerate_axis_falls_back(self):
        # gamma = 0 makes Alice's alternate axis undefined at a = z; the
        # round must still execute (and the flip weight there is 1)
        rr = random_rr(500, key=70)
        out = run_batch(EntanglementParam(0.0), Z_HAT, [0.6, 0.0, 0.8], rr, NORMALIZE, "p1")
        assert np.all(out.alpha == 1)


class TestScalarRounds:
    def test_transcript_budget_and_fields(self):
        shared = SharedRandomness.draw(np.random.Generator(np.random.Philox(key=71)))
        t = protocol1_round(EntanglementParam(PI8), [0.6, 0.0, 0.8], Z_HAT, shared, NORMALIZE)
        assert t.ledger.as_tuple() == (1, 0, 1)
        assert t.protocol == "p1"
        assert t.strategy == "normalize"
        assert t.alpha in (-1, 1) and t.beta in (-1, 1)
        assert t.p * t.q in (-1, 1)
        assert t.cbit in (-1, 1)

    def test_matches_batch_engine(self):
        g = np.random.Generator(np.random.Philox(key=72))
        param = EntanglementParam(PI8)
        a, b = [0.6, 0.0, 0.8], [0.0, 0.6, -0.8]
        for make, protocol in ((protocol1_round, "p1"), (protocol2_round, "p2")):
            for _ in range(25):
                shared = SharedRandomness.draw(g)
                t = make(param, a, b, shared, ORTHO)
                out = run_batch(param, a, b, RoundRandomness.from_shared(shared), ORTHO, protocol)
                assert (t.alpha, t.beta) == (int(out.alpha[0]), int(out.beta[0]))
                assert (t.p, t.q, t.cbit) == (int(out.p[0]), int(out.q[0]), int(out.cbit[0]))
                assert (t.alpha0, t.beta0) == (int(out.alpha0[0]), int(out.beta0[0]))

    def test_deterministic_transcripts(self):
        shared = SharedRandomness.draw(np.random.Generator(np.random.Philox(key=73)))
        param = EntanglementParam(PI8)
        one = protocol2_round(param, [0.6, 0.0, 0.8], Z_HAT, shared, NORMALIZE)
        two = protocol2_round(param, [0.6, 0.0, 0.8], Z_HAT, shared, NORMALIZE)
        assert (one.alpha, one.beta, one.p, one.q, one.cbit) == (
            two.alpha, two.beta, two.p, two.q, two.cbit
        )

    def test_desymmetrization_sign(self):
        # negating Alice's setting reflects it onto the same symmetrized
        # frame, so the whole round replays with her final output negated
        g = np.random.Generator(np.random.Philox(key=74))
        param = EntanglementParam(PI8)
        up = np.array([0.6, 0.0, 0.8])
        for _ in range(20):
            shared = SharedRandomness.draw(g)
            t_up = protocol1_round(param, up, Z_HAT, shared, NORMALIZE)
            t_dn = protocol1_round(param, -up, Z_HAT, shared, NORMALIZE)
            assert t_dn.alpha0 == t_up.alpha0
            assert t_dn.beta == t_up.beta
            assert t_dn.alpha == -t_up.alpha
