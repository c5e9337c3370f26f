import math

import numpy as np
import pytest

from mboxsim.geometry import (
    Completion,
    CompletionStrategy,
    X_HAT,
    Z_HAT,
    as_unit_vector,
    complete_rows,
    sample_unit_sphere,
    sgn,
    sign_array,
    spherical_grid,
    unit_vector_from_uniforms,
)


class TestSgn:
    def test_values(self):
        assert sgn(0.5) == 1
        assert sgn(-0.2) == -1
        assert sgn(0.0) == 1

    def test_odd_away_from_zero(self):
        g = np.random.Generator(np.random.Philox(key=1))
        for x in g.normal(size=200).tolist():
            if x != 0.0:
                assert sgn(-x) == -sgn(x)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sgn(bad)

    def test_sign_array_matches_scalar(self):
        xs = np.array([-2.0, -0.0, 0.0, 1e-300, 3.0])
        assert sign_array(xs).tolist() == [-1, 1, 1, 1, 1]
        assert sign_array(xs).dtype == np.int8


class TestUnitVectors:
    def test_as_unit_vector_validates(self):
        v = np.array([0.0, 0.6, 0.8])
        assert as_unit_vector(v) is v
        # the norm of (0, 0, z) is z: inside tol passes, just past it fails
        assert as_unit_vector([0.0, 0.0, 1.0 + 0.5e-9]).shape == (3,)
        for bad in ([0.0, 0.0, 1.1], [0.0, 0.0, 1.0 + 1.5e-9], [0.0, 0.0, 1.0 - 1.5e-9]):
            with pytest.raises(ValueError, match="deviates from 1"):
                as_unit_vector(bad)
        with pytest.raises(ValueError, match="shape"):
            as_unit_vector([0.0, 0.0])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                as_unit_vector([0.0, bad, 1.0])

    def test_from_uniforms_layout(self):
        v = unit_vector_from_uniforms(0.25, 0.0)
        assert v[2] == pytest.approx(0.5)
        assert v[1] == pytest.approx(0.0, abs=1e-15)
        block = unit_vector_from_uniforms(np.linspace(0, 0.99, 50), np.linspace(0, 0.99, 50))
        assert block.shape == (50, 3)
        assert np.allclose(np.linalg.norm(block, axis=1), 1.0, atol=1e-12)

    def test_from_uniforms_matches_reference_formula(self):
        # the columns are written in place; the values are those of the plain
        # formula, bit for bit, for blocks, strided columns and scalars
        def reference(u1, u2):
            z = 1.0 - 2.0 * np.asarray(u1, dtype=float)
            phi = 2.0 * np.pi * np.asarray(u2, dtype=float)
            rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
            return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)

        g = np.random.Generator(np.random.Philox(key=9))
        u = g.random((1000, 7))
        u[:3, :2] = [[0.0, 0.0], [0.5, 0.5], [1.0 - 2.0**-53, 0.25]]
        assert np.array_equal(unit_vector_from_uniforms(u[:, 0], u[:, 1]), reference(u[:, 0], u[:, 1]))
        for u1, u2 in ((0.0, 0.0), (0.3, 0.9), (1.0, 0.5)):
            got = unit_vector_from_uniforms(u1, u2)
            assert got.shape == (3,) and np.array_equal(got, reference(u1, u2))

    def test_sample_unit_sphere_norm_and_mean(self):
        g = np.random.Generator(np.random.Philox(key=7))
        draws = np.array([sample_unit_sphere(g) for _ in range(100_000)])
        assert np.allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-12)
        # each component has variance 1/3; 4 sigma band on the mean
        band = 4.0 * math.sqrt(1.0 / 3.0 / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < band)

    def test_hemisphere_sign_is_fair(self):
        g = np.random.Generator(np.random.Philox(key=8))
        draws = np.array([sample_unit_sphere(g) for _ in range(100_000)])
        signs = sign_array(draws @ Z_HAT).astype(float)
        assert abs(signs.mean()) < 4.0 / math.sqrt(draws.shape[0])


class TestSphericalGrid:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            spherical_grid(1)

    def test_quadrature_moments(self):
        nodes = spherical_grid(10_000)
        assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-12)
        assert abs(nodes[:, 2].mean()) <= 1e-3
        assert abs((nodes[:, 2] ** 2).mean() - 1.0 / 3.0) <= 1e-3

    def test_deterministic_and_phase_offset(self):
        a = spherical_grid(500)
        b = spherical_grid(500)
        assert np.array_equal(a, b)
        shifted = spherical_grid(500, phase=0.5)
        assert a[:, 2] == pytest.approx(shifted[:, 2].tolist())
        assert not np.allclose(a[:, 0], shifted[:, 0])


class TestCompletionStrategy:
    def test_built_from_tag_value(self):
        # the one alias perfbench/ still calls: it hands back the member itself
        for tag in Completion:
            assert CompletionStrategy(Completion(tag.value)) is tag


def complete_one(w, strategy, comp_sign=1.0):
    """complete_rows on a batch of one row, with fallback x-hat."""
    rows = np.asarray(w, dtype=float).reshape(1, 3)
    return complete_rows(rows, strategy, X_HAT, np.array([comp_sign]))[0]


class TestCompleteToUnit:
    def test_normalize_rescales(self):
        out = complete_one([0.0, 0.0, 2.0], Completion.NORMALIZE)
        assert out == pytest.approx([0.0, 0.0, 1.0])

    def test_ortho_adds_z_deficit(self):
        out = complete_one([0.5, 0.0, 0.0], Completion.ORTHO)
        assert out == pytest.approx([0.5, 0.0, 0.8660254], abs=1e-7)

    def test_ortho_parallel_to_z_uses_x(self):
        out = complete_one([0.0, 0.0, 0.5], Completion.ORTHO)
        assert out == pytest.approx([0.8660254, 0.0, 0.5], abs=1e-7)

    @pytest.mark.parametrize("strategy", list(Completion), ids=lambda s: s.value)
    def test_zero_input_falls_back(self, strategy):
        out = complete_one([0.0, 0.0, 0.0], strategy)
        assert out == pytest.approx([1.0, 0.0, 0.0])

    def test_ortho_over_unit_normalizes(self):
        out = complete_one([0.0, 3.0, 4.0], Completion.ORTHO)
        assert out == pytest.approx([0.0, 0.6, 0.8])

    def test_ortho_sign_reflects_orthogonal_part(self):
        strategy = Completion.ORTHO_SIGN
        w = np.array([0.3, -0.2, 0.4])
        plus = complete_one(w, strategy, comp_sign=1)
        minus = complete_one(w, strategy, comp_sign=-1)
        assert plus + minus == pytest.approx(2.0 * w)
        assert np.linalg.norm(plus) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(minus) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("strategy", list(Completion), ids=lambda s: s.value)
    def test_unit_norm_property(self, strategy):
        g = np.random.Generator(np.random.Philox(key=11))
        w = g.normal(scale=0.8, size=(100_000, 3))
        signs = np.where(g.random(100_000) < 0.5, 1.0, -1.0)
        out = complete_rows(w, strategy, X_HAT, signs)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        strategy = Completion.ORTHO
        w = [0.2, 0.1, -0.3]
        a = complete_one(w, strategy)
        b = complete_one(w, strategy)
        assert np.array_equal(a, b)
