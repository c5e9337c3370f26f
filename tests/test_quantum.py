import math

import numpy as np
import pytest

from mboxsim.geometry import X_HAT, Y_HAT, Z_HAT, sample_unit_sphere, spherical_grid
from mboxsim.quantum import (
    DegenerateAxisError,
    EntanglementParam,
    JointDist,
    aux_axis,
    aux_axis_alice_nl,
    chsh_value,
    correlation,
    epr2_correlation,
    epr2_flip_probability,
    epr2_local_bias,
    flip_exact_axis,
    in_slice,
    joint_local_from_decomposition,
    joint_local_product,
    joint_nl,
    joint_qm,
    pre_flip_correlation_nl,
    pre_flip_correlation_qm,
    rotate_pi_about_x,
    slice_threshold,
)

PI8 = math.pi / 8
PI4 = math.pi / 4


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


class TestJointDist:
    def test_validate_and_sum(self):
        d = JointDist(0.5, 0.0, 0.0, 0.5).validate()
        assert sum(d.as_array()) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            JointDist(0.6, 0.6, 0.0, 0.0).validate()
        with pytest.raises(ValueError):
            JointDist(0.5, -0.1, 0.3, 0.3).validate()

    def test_clamped_clips_float_noise_only(self):
        d = JointDist(0.5 + 1e-13, -1e-13, 0.0, 0.5)
        arr = d.clamped()
        assert np.all(arr >= 0.0)
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            JointDist(0.5, -1e-6, 0.0, 0.5).clamped()

    def test_tv_distance(self):
        a = JointDist(1.0, 0.0, 0.0, 0.0)
        b = JointDist(0.0, 1.0, 0.0, 0.0)
        assert a.tv_distance(b) == pytest.approx(1.0)
        assert a.tv_distance(a) == 0.0


class TestJointQm:
    def test_product_state_aligned(self):
        d = joint_qm(EntanglementParam(0.0), Z_HAT, Z_HAT)
        assert d.as_array() == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_maximal_aligned(self):
        d = joint_qm(EntanglementParam(PI4), Z_HAT, Z_HAT)
        assert d.as_array() == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-15)

    def test_maximal_x_y_uniform(self):
        d = joint_qm(EntanglementParam(PI4), X_HAT, Y_HAT)
        assert d.as_array() == pytest.approx([0.25] * 4, abs=1e-15)

    def test_marginals_exact(self):
        for param, (a, b) in zip(
            [EntanglementParam(g) for g in (0.0, PI8, PI4)],
            random_settings(3, key=21),
        ):
            d = joint_qm(param, a, b)
            assert d.mean_alpha == pytest.approx(param.cos2g * a[2], abs=1e-12)
            assert d.mean_beta == pytest.approx(param.cos2g * b[2], abs=1e-12)

    def test_alice_reflection_symmetry(self):
        param = EntanglementParam(PI8)
        for a, b in random_settings(20, key=22):
            d = joint_qm(param, a, b)
            r = joint_qm(param, -a, b)
            # negating a swaps alpha outcomes
            assert d.pp == pytest.approx(r.mp, abs=1e-15)
            assert d.pm == pytest.approx(r.mm, abs=1e-15)


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
        assert d.as_array() == pytest.approx(want, abs=1e-12)

    def test_equatorial_scalar_product_form(self):
        param = EntanglementParam(PI8)
        a = np.array([math.cos(0.3), math.sin(0.3), 0.0])
        b = np.array([math.cos(1.1), math.sin(1.1), 0.0])
        bp = rotate_pi_about_x(b)
        d = joint_nl(param, a, b)
        dot = float(a @ bp)
        want = [(1 + dot) / 4, (1 - dot) / 4, (1 - dot) / 4, (1 + dot) / 4]
        assert d.as_array() == pytest.approx(want, abs=1e-12)

    def test_equals_qm_at_pi_over_4(self):
        param = EntanglementParam(PI4)
        for a, b in random_settings(20, key=27):
            nl = joint_nl(param, a, b).as_array()
            qm = joint_qm(param, a, b).as_array()
            assert np.max(np.abs(nl - qm)) <= 1e-12


class TestDecomposition:
    def test_reconstruction_identity(self):
        for gamma in (PI8 / 2, PI8, 3 * PI8 / 2):
            param = EntanglementParam(gamma)
            s = param.sin2g
            for a, b in random_settings(30, key=28):
                qm = joint_qm(param, a, b).as_array()
                loc = joint_local_product(param, a, b).as_array()
                nl = joint_nl(param, a, b).as_array()
                assert np.max(np.abs(qm - ((1 - s) * loc + s * nl))) <= 1e-12

    def test_local_part_recovered(self):
        param = EntanglementParam(PI8)
        for a, b in random_settings(20, key=29):
            got = joint_local_from_decomposition(param, a, b).as_array()
            want = joint_local_product(param, a, b).as_array()
            assert np.max(np.abs(got - want)) <= 1e-12
        grid = spherical_grid(20)
        other = spherical_grid(20, phase=0.5)
        for a, b in zip(grid, other):
            got = joint_local_from_decomposition(param, a, b).as_array()
            want = joint_local_product(param, a, b).as_array()
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_local_equatorial_uniform(self):
        param = EntanglementParam(PI8)
        a = np.array([math.cos(0.4), math.sin(0.4), 0.0])
        b = np.array([math.cos(2.0), math.sin(2.0), 0.0])
        d = joint_local_product(param, a, b)
        assert d.as_array() == pytest.approx([0.25] * 4, abs=1e-15)

    def test_local_aligned_z_deterministic(self):
        d = joint_local_product(EntanglementParam(PI8), Z_HAT, Z_HAT)
        assert d.as_array() == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_requires_partial_entanglement(self):
        with pytest.raises(ValueError):
            joint_local_product(EntanglementParam(0.0), Z_HAT, Z_HAT)
        with pytest.raises(ValueError):
            joint_local_from_decomposition(EntanglementParam(PI4), Z_HAT, Z_HAT)


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
            pre_flip_correlation_qm(param, [0.0, 0.0, -1.0], Z_HAT)
        with pytest.raises(ValueError):
            pre_flip_correlation_nl(param, Z_HAT, [0.0, 0.0, -1.0])

    def test_flip_lands_on_quantum_correlation(self):
        # moment identity: with flips (c az, c bz), the post-flip correlation
        # fmin + (1 - fmax) * C0 must equal the quantum C exactly
        for gamma in (PI8 / 2, PI8, PI4):
            param = EntanglementParam(gamma)
            c = param.cos2g
            for a, b in self.symmetrized_settings(25, key=31):
                c0 = pre_flip_correlation_qm(param, a, b)
                fa, fb = c * a[2], c * b[2]
                got = min(fa, fb) + (1 - max(fa, fb)) * c0
                want = correlation(param, a, b)
                assert got == pytest.approx(want, abs=1e-12)

    def test_flip_lands_on_nonlocal_correlation(self):
        for gamma in (PI8, 3 * PI8 / 2):
            param = EntanglementParam(gamma)
            for a, b in self.symmetrized_settings(25, key=32):
                c0 = pre_flip_correlation_nl(param, a, b)
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
        assert pre_flip_correlation_nl(param, a, b) == -1.0


class TestChsh:
    def test_maximal(self):
        assert chsh_value(EntanglementParam(PI4)) == pytest.approx(2.8284271, abs=1e-6)

    def test_product(self):
        assert chsh_value(EntanglementParam(0.0)) == pytest.approx(2.0, abs=1e-6)

    def test_partial_is_strictly_between(self):
        v = chsh_value(EntanglementParam(PI8))
        assert 2.0 + 1e-3 < v < 2.0 * math.sqrt(2.0) - 1e-3
