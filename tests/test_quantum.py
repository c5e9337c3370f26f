import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mboxsim.geometry import X_HAT, Z_HAT, sample_unit_sphere
from mboxsim.protocols import flip_spec, symmetrize
from mboxsim.quantum import (
    DegenerateAxisError,
    EntanglementParam,
    aux_axis,
    aux_axis_alice_nl,
    branch_pairing,
    checked_distribution,
    correlation,
    epr2_correlation,
    epr2_flip_probability,
    epr2_local_bias,
    flip_exact_axis,
    in_slice,
    joint_local_product,
    joint_nl,
    joint_qm,
    pre_flip_correlation,
    rotate_pi_about_x,
    slice_threshold,
)

PI8 = math.pi / 8
PI4 = math.pi / 4
Y_HAT = np.array([0.0, 1.0, 0.0])


def random_settings(n, key):
    g = np.random.Generator(np.random.Philox(key=key))
    return [(sample_unit_sphere(g), sample_unit_sphere(g)) for _ in range(n)]


class TestEntanglementParam:
    def test_range(self):
        with pytest.raises(ValueError):
            EntanglementParam(-0.1)
        with pytest.raises(ValueError):
            EntanglementParam(0.8)
        EntanglementParam(0.0)
        EntanglementParam(PI4)

    def test_decimal_pi_over_4_is_clamped(self):
        # ten-digit decimal spelling lands a hair above the float bound
        p = EntanglementParam(0.7853981634)
        assert p.gamma <= PI4
        assert p.cos2g >= 0.0

    def test_trig_identity(self):
        for gamma in np.linspace(0.0, PI4, 17):
            p = EntanglementParam(float(gamma))
            assert p.cos2g**2 + p.sin2g**2 == pytest.approx(1.0, abs=1e-12)
            assert p.cos2g >= 0.0
            assert p.sin2g >= 0.0


class TestCheckedDistribution:
    def test_refuses_a_sum_off_one(self):
        assert checked_distribution([0.5, 0.0, 0.0, 0.5]).tolist() == [0.5, 0.0, 0.0, 0.5]
        with pytest.raises(ValueError, match="sum to"):
            checked_distribution([0.6, 0.6, 0.0, 0.0])
        with pytest.raises(ValueError, match="sum to"):
            checked_distribution([0.5, 0.0, 0.0, 0.5 + 2e-9])

    def test_clips_float_noise_only(self):
        arr = checked_distribution([0.5 + 1e-13, -1e-13, 0.0, 0.5])
        assert np.all(arr >= 0.0)
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)
        # any entry below -1e-12 is refused, even one far inside the sum's 1e-9
        for entry in (-1e-6, -1e-9, -4.07e-12):
            with pytest.raises(ValueError, match="negative probability entry"):
                checked_distribution([0.5 - entry, entry, 0.0, 0.5])


class TestJointQm:
    def test_product_state_aligned(self):
        d = joint_qm(EntanglementParam(0.0), Z_HAT, Z_HAT)
        assert d == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_maximal_aligned(self):
        d = joint_qm(EntanglementParam(PI4), Z_HAT, Z_HAT)
        assert d == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-15)

    def test_maximal_x_y_uniform(self):
        d = joint_qm(EntanglementParam(PI4), X_HAT, Y_HAT)
        assert d == pytest.approx([0.25] * 4, abs=1e-15)

    def test_marginals_exact(self):
        for param, (a, b) in zip(
            [EntanglementParam(g) for g in (0.0, PI8, PI4)],
            random_settings(3, key=21),
        ):
            d = joint_qm(param, a, b)
            assert d @ [1, 1, -1, -1] == pytest.approx(param.cos2g * a[2], abs=1e-12)
            assert d @ [1, -1, 1, -1] == pytest.approx(param.cos2g * b[2], abs=1e-12)

    def test_alice_reflection_symmetry(self):
        param = EntanglementParam(PI8)
        for a, b in random_settings(20, key=22):
            d = joint_qm(param, a, b)
            r = joint_qm(param, -a, b)
            # negating a swaps alpha outcomes: (+,+) with (-,+), (+,-) with (-,-)
            assert d[:2] == pytest.approx(r[2:], abs=1e-15)


class TestCorrelation:
    def test_aligned_z_is_one(self):
        for gamma in (0.0, PI8, PI4):
            assert correlation(EntanglementParam(gamma), Z_HAT, Z_HAT) == pytest.approx(1.0)

    def test_y_y(self):
        assert correlation(EntanglementParam(PI8), Y_HAT, Y_HAT) == pytest.approx(-0.7071068, abs=1e-7)

    def test_x_y_vanishes(self):
        assert correlation(EntanglementParam(PI8), X_HAT, Y_HAT) == pytest.approx(0.0, abs=1e-15)


class TestAuxAxes:
    def test_bob_fixes_z(self):
        v = aux_axis(EntanglementParam(PI8), Z_HAT)
        assert v == pytest.approx([0.0, 0.0, 1.0])

    def test_alice_identity_at_pi_over_4(self):
        param = EntanglementParam(PI4)
        for a, _ in random_settings(10, key=23):
            assert aux_axis(param, a) == pytest.approx(a.tolist(), abs=1e-12)

    def test_alice_x_hat(self):
        v = aux_axis(EntanglementParam(PI8), X_HAT)
        assert v == pytest.approx([0.7071068, 0.0, -0.7071068], abs=1e-7)

    def test_flip_exact_axis_negates_y_only(self):
        param = EntanglementParam(PI8)
        for a, _ in random_settings(10, key=25):
            want = aux_axis(param, a) * np.array([1.0, -1.0, 1.0])
            assert flip_exact_axis(param, a) == pytest.approx(want.tolist(), abs=1e-15)
        assert flip_exact_axis(param, Z_HAT) == pytest.approx([0.0, 0.0, 1.0])

    def test_alice_nl_z_hat(self):
        assert aux_axis_alice_nl(EntanglementParam(PI4), Z_HAT) == pytest.approx([0.0, 0.0, -1.0])
        assert aux_axis_alice_nl(EntanglementParam(PI8), Z_HAT) == pytest.approx([0.0, 0.0, -1.0])

    def test_unit_norm_where_defined(self):
        g = np.random.Generator(np.random.Philox(key=24))
        n_checked = 0
        for _ in range(10_000):
            param = EntanglementParam(float(g.uniform(0.0, PI4)))
            a = sample_unit_sphere(g)
            if 1.0 - param.cos2g * a[2] < 1e-6:
                continue
            n_checked += 1
            for axis in (aux_axis, aux_axis_alice_nl, flip_exact_axis):
                assert np.linalg.norm(axis(param, a)) == pytest.approx(1.0, abs=1e-9)
        assert n_checked > 9000

    def test_degenerate_raises(self):
        for axis in (aux_axis, aux_axis_alice_nl, flip_exact_axis):
            with pytest.raises(DegenerateAxisError):
                axis(EntanglementParam(0.0), Z_HAT)


class TestRotatePiAboutX:
    def test_examples(self):
        assert rotate_pi_about_x(X_HAT) == pytest.approx([1.0, 0.0, 0.0])
        assert rotate_pi_about_x(Z_HAT) == pytest.approx([0.0, 0.0, -1.0])
        assert rotate_pi_about_x([0.6, 0.8, 0.0]) == pytest.approx([0.6, -0.8, 0.0])

    def test_involution(self):
        for a, _ in random_settings(5, key=25):
            assert rotate_pi_about_x(rotate_pi_about_x(a)) == pytest.approx(a.tolist())


class TestEpr2Scalars:
    def test_slice_threshold(self):
        assert slice_threshold(EntanglementParam(PI8)) == pytest.approx(0.4142136, abs=1e-7)
        assert slice_threshold(EntanglementParam(PI4)) == 0.0
        assert slice_threshold(EntanglementParam(0.0)) == pytest.approx(1.0)

    def test_in_slice_boundary_is_inside(self):
        param = EntanglementParam(PI8)
        t = slice_threshold(param)
        assert in_slice(param, t)
        assert in_slice(param, -t)
        assert not in_slice(param, t + 1e-12)

    def test_local_bias_values(self):
        param = EntanglementParam(PI8)
        assert epr2_local_bias(param, 0.2) == pytest.approx(0.4828427, abs=1e-7)
        assert epr2_local_bias(param, 0.5) == pytest.approx(1.0)
        assert epr2_local_bias(param, 0.0) == 0.0
        assert epr2_local_bias(param, -0.2) == pytest.approx(-0.4828427, abs=1e-7)

    def test_local_bias_saturates_off_band(self):
        param = EntanglementParam(PI8)
        t = slice_threshold(param)
        for z in np.linspace(t + 1e-9, 1.0, 50):
            assert abs(epr2_local_bias(param, float(z))) == pytest.approx(1.0)

    def test_flip_probability_values(self):
        param = EntanglementParam(PI8)
        assert epr2_flip_probability(param, 0.2) == 0.0
        assert epr2_flip_probability(param, 1.0) == pytest.approx(0.5857864, abs=1e-7)
        assert epr2_flip_probability(param, -1.0) == pytest.approx(-0.5857864, abs=1e-7)

    def test_flip_probability_vanishes_in_band_only(self):
        param = EntanglementParam(PI8)
        t = slice_threshold(param)
        for z in np.linspace(0.0, t, 20):
            assert epr2_flip_probability(param, float(z)) == 0.0
        for z in np.linspace(t + 1e-6, 1.0, 20):
            assert epr2_flip_probability(param, float(z)) > 0.0

    def test_decomposition_scalars_need_entanglement(self):
        param = EntanglementParam(0.0)
        with pytest.raises(ValueError):
            epr2_flip_probability(param, 0.9)
        with pytest.raises(ValueError):
            epr2_local_bias(param, 0.9)


class TestEpr2Correlation:
    def test_equatorial_form(self):
        param = EntanglementParam(PI8)
        g = np.random.Generator(np.random.Philox(key=26))
        for _ in range(20):
            ta, tb = g.uniform(0.0, 2 * math.pi, size=2)
            a = np.array([math.cos(ta), math.sin(ta), 0.0])
            b = np.array([math.cos(tb), math.sin(tb), 0.0])
            want = a[0] * b[0] - a[1] * b[1]
            assert epr2_correlation(param, a, b) == pytest.approx(want, abs=1e-12)

    def test_aligned_z(self):
        assert epr2_correlation(EntanglementParam(PI8), Z_HAT, Z_HAT) == pytest.approx(1.0)

    def test_z_x_vanishes(self):
        assert epr2_correlation(EntanglementParam(PI8), Z_HAT, X_HAT) == pytest.approx(0.0, abs=1e-15)


class TestJointNl:
    def test_aligned_z(self):
        param = EntanglementParam(PI8)
        big_f = epr2_flip_probability(param, 1.0)
        d = joint_nl(param, Z_HAT, Z_HAT)
        want = [0.5 * (1 + big_f), 0.0, 0.0, 0.5 * (1 - big_f)]
        assert d == pytest.approx(want, abs=1e-12)

    def test_equatorial_scalar_product_form(self):
        param = EntanglementParam(PI8)
        a = np.array([math.cos(0.3), math.sin(0.3), 0.0])
        b = np.array([math.cos(1.1), math.sin(1.1), 0.0])
        bp = rotate_pi_about_x(b)
        d = joint_nl(param, a, b)
        dot = float(a @ bp)
        want = [(1 + dot) / 4, (1 - dot) / 4, (1 - dot) / 4, (1 + dot) / 4]
        assert d == pytest.approx(want, abs=1e-12)

    def test_equals_qm_at_pi_over_4(self):
        param = EntanglementParam(PI4)
        for a, b in random_settings(20, key=27):
            nl = joint_nl(param, a, b)
            qm = joint_qm(param, a, b)
            assert np.max(np.abs(nl - qm)) <= 1e-12


class TestDecomposition:
    def test_reconstruction_identity(self):
        for gamma in (PI8 / 2, PI8, 3 * PI8 / 2):
            param = EntanglementParam(gamma)
            s = param.sin2g
            for a, b in random_settings(30, key=28):
                qm = joint_qm(param, a, b)
                loc = joint_local_product(param, a, b)
                nl = joint_nl(param, a, b)
                assert np.max(np.abs(qm - ((1 - s) * loc + s * nl))) <= 1e-12

    def test_local_equatorial_uniform(self):
        param = EntanglementParam(PI8)
        a = np.array([math.cos(0.4), math.sin(0.4), 0.0])
        b = np.array([math.cos(2.0), math.sin(2.0), 0.0])
        d = joint_local_product(param, a, b)
        assert d == pytest.approx([0.25] * 4, abs=1e-15)

    def test_local_aligned_z_deterministic(self):
        d = joint_local_product(EntanglementParam(PI8), Z_HAT, Z_HAT)
        assert d == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_requires_partial_entanglement(self):
        with pytest.raises(ValueError):
            joint_local_product(EntanglementParam(0.0), Z_HAT, Z_HAT)
        with pytest.raises(ValueError):
            joint_nl(EntanglementParam(0.0), Z_HAT, Z_HAT)


class TestPreFlipCorrelation:
    def symmetrized_settings(self, n, key):
        out = []
        for a, b in random_settings(n, key=key):
            a = a if a[2] >= 0 else -a
            b = b if b[2] >= 0 else -b
            out.append((a, b))
        return out

    def test_requires_symmetrized(self):
        param = EntanglementParam(PI8)
        with pytest.raises(ValueError):
            pre_flip_correlation(param, [0.0, 0.0, -1.0], Z_HAT, "p1")
        with pytest.raises(ValueError):
            pre_flip_correlation(param, Z_HAT, [0.0, 0.0, -1.0], "p2")

    def test_flip_lands_on_quantum_correlation(self):
        # moment identity: with flips (c az, c bz), the post-flip correlation
        # fmin + (1 - fmax) * C0 must equal the quantum C exactly
        for gamma in (PI8 / 2, PI8, PI4):
            param = EntanglementParam(gamma)
            c = param.cos2g
            for a, b in self.symmetrized_settings(25, key=31):
                c0 = pre_flip_correlation(param, a, b, "p1")
                fa, fb = c * a[2], c * b[2]
                got = min(fa, fb) + (1 - max(fa, fb)) * c0
                want = correlation(param, a, b)
                assert got == pytest.approx(want, abs=1e-12)

    def test_flip_lands_on_nonlocal_correlation(self):
        for gamma in (PI8, 3 * PI8 / 2):
            param = EntanglementParam(gamma)
            for a, b in self.symmetrized_settings(25, key=32):
                c0 = pre_flip_correlation(param, a, b, "p2")
                fa = epr2_flip_probability(param, a[2])
                fb = epr2_flip_probability(param, b[2])
                got = min(fa, fb) + (1 - max(fa, fb)) * c0
                want = epr2_correlation(param, a, b)
                assert got == pytest.approx(want, abs=1e-12)

    def test_rounding_is_clamped_to_unit_interval(self):
        # Both settings sit inside the band at pi/8, so c0 = a . rot(b), which
        # rounds to -1.0000000000000002 unless clamped.
        param = EntanglementParam(PI8)
        a = np.array([-0.9498845440455933, -0.312444417695568, 0.009891351483639507])
        b = np.array([0.9498845440455933, -0.312444417695568, 0.009891351483639507])
        assert pre_flip_correlation(param, a, b, "p2") == -1.0


class TestBranchPairing:
    def test_claim_and_flip_identity_differ_only_in_y_sign(self):
        # the claimed closed form pairs with aux_axis, the exact flip identity
        # with flip_exact_axis: same vectors but for the axis's y sign
        for gamma in (PI8 / 2, PI8, PI4):
            param = EntanglementParam(gamma)
            for a, b in random_settings(25, key=33):
                a, b = (a if a[2] >= 0 else -a), (b if b[2] >= 0 else -b)
                for protocol in ("p1", "p2"):
                    for same in (True, False):
                        claim, exact = (
                            np.concatenate(branch_pairing(param, a, b, same, protocol, axis))
                            for axis in (aux_axis, flip_exact_axis)
                        )
                        assert np.array_equal(claim[[0, 2, 3, 5]], exact[[0, 2, 3, 5]])
                        assert np.array_equal(np.abs(claim), np.abs(exact))

    def test_p2_band_cases(self):
        param = EntanglementParam(PI8)
        t = slice_threshold(param)
        inside = np.array([math.sqrt(1 - (t / 2) ** 2), 0.0, t / 2])
        outside = np.array([math.sqrt(1 - 0.9**2), 0.0, 0.9])
        for same in (True, False):
            x, y = branch_pairing(param, inside, inside, same, "p2", aux_axis)
            assert np.array_equal(x, inside) and np.array_equal(y, rotate_pi_about_x(inside))
            x, y = branch_pairing(param, inside, outside, same, "p2", aux_axis)
            assert np.array_equal(x, inside) and np.array_equal(y, aux_axis(param, outside))
            x, y = branch_pairing(param, outside, inside, same, "p2", aux_axis)
            assert np.array_equal(x, aux_axis_alice_nl(param, outside))
            assert np.array_equal(y, rotate_pi_about_x(inside))
        x, _ = branch_pairing(param, outside, outside, True, "p2", aux_axis)
        assert np.array_equal(x, outside)
        x, _ = branch_pairing(param, outside, outside, False, "p2", aux_axis)
        assert np.array_equal(x, aux_axis_alice_nl(param, outside))



# ---------------------------------------------------------------------------
# Array form: row i of a block's result is the one-setting call on pair i,
# bit for bit, and a block refuses what one of its rows alone refuses.
# ---------------------------------------------------------------------------

# 1e-6 is near the product state, where aux_axis degenerates at the poles;
# at pi/4, 1 - s == 0 and the band is the equator alone.
ARRAY_GAMMAS = (1e-6, PI8 / 2, PI8, 0.3, PI4)


def _on_sphere(z, phi):
    rho = math.sqrt(max(0.0, 1.0 - z * z))
    return [rho * math.cos(phi), rho * math.sin(phi), z]


def _special_z(param):
    t = slice_threshold(param)
    return [0.0, -0.0, t, -t, t / 2.0, 1.0, -1.0]


@st.composite
def setting_blocks(draw):
    """(param, a, b): a gamma and (n, 3) blocks of settings whose z are the
    band edges, the equator, the poles or any value, a_z == b_z on some rows."""
    param = EntanglementParam(draw(st.sampled_from(ARRAY_GAMMAS)))
    z = st.one_of(st.sampled_from(_special_z(param)), st.floats(-1.0, 1.0))
    phi = st.floats(0.0, 2.0 * math.pi)
    a, b = [], []
    for _ in range(draw(st.integers(1, 6))):
        za = draw(z)
        zb = za if draw(st.booleans()) else draw(z)
        a.append(_on_sphere(za, draw(phi)))
        b.append(_on_sphere(zb, draw(phi)))
    return param, np.array(a), np.array(b)


def corner_blocks():
    """Every pair of the special z at each gamma, both equal-z orders."""
    for gamma in ARRAY_GAMMAS:
        param = EntanglementParam(gamma)
        zs = _special_z(param)
        pairs = [(za, zb) for za in zs for zb in zs]
        a = np.array([_on_sphere(za, 0.3 + k) for k, (za, _) in enumerate(pairs)])
        b = np.array([_on_sphere(zb, 1.9 - k) for k, (_, zb) in enumerate(pairs)])
        yield param, a, b


def assert_block_is_rows(block_call, row_call, n, same_message=False):
    """block_call() has the bits of [row_call(i) for i < n]; if a row call
    raises, the block call raises the same error type (and message)."""
    try:
        rows = [row_call(i) for i in range(n)]
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            block_call()
        if same_message:
            assert str(info.value) == str(exc)
        return
    got = np.asarray(block_call(), dtype=float)
    want = np.array(rows, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_array_forms(param, a, b):
    n = len(a)
    for f in (correlation, joint_qm, joint_nl, joint_local_product, epr2_correlation):
        assert_block_is_rows(lambda: f(param, a, b), lambda i: f(param, a[i], b[i]), n)
    z = np.concatenate([a[:, 2], b[:, 2]])
    for f in (epr2_local_bias, epr2_flip_probability, in_slice):
        assert_block_is_rows(lambda: f(param, z), lambda i: f(param, z.tolist()[i]), len(z))
    nl = joint_nl(param, a, b)
    assert_block_is_rows(
        lambda: checked_distribution(nl), lambda i: checked_distribution(nl[i]), n, same_message=True
    )
    a1, b1, _, _ = symmetrize(a, b)
    for protocol in ("p1", "p2"):
        assert_block_is_rows(
            lambda: pre_flip_correlation(param, a1, b1, protocol),
            lambda i: pre_flip_correlation(param, a1[i], b1[i], protocol),
            n,
        )

        def flip_weights(a, b):
            spec = flip_spec(param, a, b, protocol)
            return np.stack([spec.f_a, spec.f_b], axis=-1)

        assert_block_is_rows(lambda: flip_weights(a1, b1), lambda i: flip_weights(a1[i], b1[i]), n)
        same = a1[:, 2] <= b1[:, 2]
        for axis in (aux_axis, flip_exact_axis):
            assert_block_is_rows(
                lambda: np.hstack(branch_pairing(param, a1, b1, same, protocol, axis)),
                lambda i: np.concatenate(
                    branch_pairing(param, a1[i], b1[i], bool(same[i]), protocol, axis)
                ),
                n,
            )


class TestArrayFormsEqualOneSettingCalls:
    @settings(max_examples=150, deadline=None)
    @given(setting_blocks())
    def test_random_blocks(self, block):
        check_array_forms(*block)

    @pytest.mark.parametrize("block", list(corner_blocks()), ids=lambda b: f"gamma={b[0].gamma:g}")
    def test_band_edges_equator_poles_and_equal_z(self, block):
        check_array_forms(*block)

    def test_a_refused_row_names_itself(self):
        param = EntanglementParam(PI8)
        good = [0.0, 0.0, 1.0]
        with pytest.raises(ValueError, match="vector norm 2.0 deviates"):
            joint_nl(param, np.array([good, [0.0, 0.0, 2.0]]), np.array([good, good]))
        with pytest.raises(ValueError, match=r"z must lie in \[-1, 1\], got 1.5"):
            epr2_flip_probability(param, np.array([0.5, 1.5, np.nan]))
        with pytest.raises(ValueError, match=r"z must lie in \[-1, 1\], got nan"):
            epr2_local_bias(param, np.array([0.5, np.nan]))
