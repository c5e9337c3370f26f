import dataclasses
import hashlib
import json
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mboxsim import protocols, verify
from mboxsim.geometry import (
    Completion,
    X_HAT,
    Z_HAT,
    complete_rows,
    sample_unit_sphere,
    sign_array,
    spherical_grid,
)
from mboxsim.protocols import (
    CHUNK,
    FlipSpec,
    RoundRandomness,
    UNIFORMS_PER_ROUND,
    correlated_flip,
    run_batch,
    symmetrize,
)
from mboxsim.quantum import (
    EntanglementParam,
    aux_axis,
    epr2_correlation,
    epr2_flip_probability,
    joint_qm,
    pre_flip_correlation,
    rotate_pi_about_x,
)
from mboxsim.runtime import (
    ChunkStats,
    EstimateWithError,
    ExperimentConfig,
    _stats_from_batch,
    compare,
    estimate_joint_from_counts,
    resolve_settings,
    run_experiment,
    sample_settings,
    sign_mean_estimate,
)
from mboxsim.verify import (
    CheckResult,
    DEFAULT_SEED,
    branch_correlation_claim,
    claim_residual_report,
    exact_mu_average,
    flip_moments_claim,
    flip_moments_exact,
    mc_branch_correlations,
    mc_round_moments,
    quadrature_kernel,
    realized_joint,
    suite_epr2,
    suite_flip,
    suite_kernel,
    suite_mbox,
    suite_oracle,
)

PI8 = math.pi / 8
PI4 = math.pi / 4
Y_HAT = np.array([0.0, 1.0, 0.0])


def estimate_mean(values) -> EstimateWithError:
    """Reference estimator: sample mean with the sample sd over sqrt(n)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError(f"need n >= 2 samples, got {n}")
    return EstimateWithError(float(values.mean()), float(values.std(ddof=1)) / math.sqrt(n), n)


def flip_moments_reference(c0: float, f_a: float, f_b: float) -> tuple[Fraction, Fraction, Fraction]:
    """Reference flip algebra: Fraction band widths times numpy cell sums.

    The shared uniform matters only through its band [0, f_min), [f_min,
    f_max) or [f_max, 1); each band's four pre-flip cells go through
    correlated_flip at the band's lower end and weigh width * (1 + a0*b0*c0)/4.
    """
    if not -1.0 <= c0 <= 1.0:
        raise ValueError(f"pre-flip correlation must lie in [-1, 1], got {c0}")
    spec = FlipSpec(f_a, f_b)
    lo = min(f_a, f_b)
    hi = max(f_a, f_b)
    bands = [
        (width, rep)
        for width, rep in (
            (Fraction(lo), 0.0),
            (Fraction(hi) - Fraction(lo), lo),
            (1 - Fraction(hi), hi),
        )
        if width != 0
    ]
    a0 = np.tile([-1, -1, 1, 1], len(bands))
    b0 = np.tile([-1, 1, -1, 1], len(bands))
    alpha, beta = correlated_flip(a0, b0, spec, np.repeat([rep for _, rep in bands], 4))
    c0_frac = Fraction(c0)
    moments = [Fraction(0)] * 3
    for k, (width, _) in enumerate(bands):
        cell = slice(4 * k, 4 * k + 4)
        for j, x in enumerate((alpha[cell], beta[cell], alpha[cell] * beta[cell])):
            s = int(x.sum())
            t = int((a0[cell] * b0[cell] * x).sum())
            moments[j] += width * (s + t * c0_frac) / 4
    return tuple(moments)


def _bob_flips_at_f_b(alpha0, beta0, spec, r):
    """Mutant flip rule: Bob flips on r <= f_b instead of r < f_b."""
    alpha, _ = correlated_flip(alpha0, beta0, spec, r)
    return alpha, np.where((beta0 == -1) & (r <= spec.f_b), 1, beta0)


def _alice_reads_f_b(alpha0, beta0, spec, r):
    """Mutant flip rule: Alice compares r against Bob's f_b."""
    _, beta = correlated_flip(alpha0, beta0, spec, r)
    return np.where((alpha0 == -1) & (r < spec.f_b), 1, alpha0), beta


class TestEstimators:
    def test_estimate_mean(self):
        values = [1.0, 2.0, 3.0, 4.0]
        est = estimate_mean(values)
        assert est.mean == pytest.approx(2.5)
        assert est.stderr == pytest.approx(np.std(values, ddof=1) / 2.0)
        assert est.n == 4
        with pytest.raises(ValueError):
            estimate_mean([1.0])

    def test_sign_mean_matches_estimate_mean(self):
        signs = np.array([1] * 70 + [-1] * 30)
        direct = estimate_mean(signs.astype(float))
        packed = sign_mean_estimate(int(signs.sum()), signs.size)
        assert packed.mean == pytest.approx(direct.mean)
        assert packed.stderr == pytest.approx(direct.stderr)

    def test_estimate_with_error_validation(self):
        with pytest.raises(ValueError):
            EstimateWithError(mean=0.0, stderr=-1.0, n=10)
        with pytest.raises(ValueError):
            EstimateWithError(mean=math.nan, stderr=0.1, n=10)
        with pytest.raises(ValueError):
            EstimateWithError(mean=0.0, stderr=0.1, n=1)

    def test_joint_from_counts(self):
        est = estimate_joint_from_counts((1, 2, 3, 4))
        assert (est["n"], est["counts"]) == (10, [1, 2, 3, 4])
        assert est["empirical"] == pytest.approx([0.1, 0.2, 0.3, 0.4])
        assert est["stderr"][0] == pytest.approx(math.sqrt(0.1 * 0.9 / 10))
        with pytest.raises(ValueError):
            estimate_joint_from_counts((1, -1, 0, 0))
        with pytest.raises(ValueError):
            estimate_joint_from_counts((0, 0, 0, 0))


class TestCompare:
    def test_identical_is_zero(self):
        target = np.array([0.25, 0.25, 0.25, 0.25])
        empirical = estimate_joint_from_counts((250, 250, 250, 250))
        row = compare(target, empirical)
        assert row["tv"] == 0.0
        assert row["max_abs_z"] == 0.0

    def test_disjoint_is_one(self):
        target = np.array([1.0, 0.0, 0.0, 0.0])
        empirical = estimate_joint_from_counts((0, 1000, 0, 0))
        row = compare(target, empirical)
        assert row["tv"] == pytest.approx(1.0)
        # degenerate cells fall back to the 1/n z floor
        assert row["max_abs_z"] == pytest.approx(1000.0)

    def test_returns_a_records_comparison_fields(self):
        target = np.array([0.4, 0.1, 0.1, 0.4])
        row = compare(target, estimate_joint_from_counts((30, 20, 10, 40)))
        assert set(row) == {"n", "target", "empirical", "stderr", "counts", "tv", "max_abs_z"}
        assert (row["n"], row["counts"]) == (100, [30, 20, 10, 40])
        assert row["target"] == target.tolist()
        assert row["empirical"] == [0.3, 0.2, 0.1, 0.4]
        assert row["stderr"][1] == pytest.approx(0.04)
        assert row["tv"] == pytest.approx(0.1)
        assert row["max_abs_z"] == pytest.approx(2.5)

    def test_calibrated_baseline(self):
        # the bare kernel at aligned settings reproduces the maximally
        # entangled aligned-z statistics
        g = np.random.Generator(np.random.Philox(key=81))
        counts = np.zeros(4, dtype=np.int64)
        for _ in range(5):
            u = g.random((200_000, UNIFORMS_PER_ROUND))
            out = run_batch(
                EntanglementParam(0.0), Z_HAT, Z_HAT,
                RoundRandomness.from_uniform_block(u), Completion.NORMALIZE, "tb",
            )
            counts += _stats_from_batch(out).counts
        row = compare(
            joint_qm(EntanglementParam(PI4), Z_HAT, Z_HAT),
            estimate_joint_from_counts(counts),
        )
        assert row["tv"] <= 0.005

    def test_residual_shrinks_with_sample_size(self):
        # deterministic streams: the same comparison at growing round counts
        target = joint_qm(EntanglementParam(PI4), Z_HAT, X_HAT)
        tvs = []
        for rounds in (1000, 10_000, 100_000):
            g = np.random.Generator(np.random.Philox(key=82))
            u = g.random((rounds, UNIFORMS_PER_ROUND))
            out = run_batch(
                EntanglementParam(0.0), Z_HAT, X_HAT,
                RoundRandomness.from_uniform_block(u), Completion.NORMALIZE, "tb",
            )
            row = compare(target, estimate_joint_from_counts(_stats_from_batch(out).counts))
            tvs.append(row["tv"])
        assert tvs[2] < tvs[1] < tvs[0]


def _quadrature_reference(u, v, n_nodes):
    """The kernel quadrature summed over the whole n x n node grid, in
    512-row blocks: every sign evaluated, no sorting."""
    lam1 = spherical_grid(n_nodes)
    lam2 = spherical_grid(n_nodes, phase=0.5)
    d1v = lam1 @ v
    alpha = sign_array(lam1 @ u).astype(np.int64)
    e = sign_array(lam2 @ u).astype(float) * (lam2 @ v)
    total = 0
    for lo in range(0, n_nodes, 512):
        hi = min(lo + 512, n_nodes)
        x = d1v[lo:hi, None] + alpha[lo:hi, None] * e[None, :]
        rows = sign_array(x).sum(axis=1, dtype=np.int64)
        total += int((alpha[lo:hi] * rows).sum())
    return total / (n_nodes * n_nodes)


class TestQuadratureKernel:
    @pytest.mark.parametrize("n_nodes", [1000, 1001, 2001])
    def test_count_equals_grid_sum_on_ties(self, n_nodes):
        # Grid sums exactly at 0 must count as sgn(0) = +1.  Odd n puts a
        # node at z = 0, and (z, x) has ties at alpha = +1.  Both lattices
        # share their z levels, so (x, z) has hundreds at each alpha.
        pairs = [
            (Z_HAT, Z_HAT), (Z_HAT, -Z_HAT), (X_HAT, Y_HAT), (X_HAT, -X_HAT),
            (Z_HAT, X_HAT), (X_HAT, Z_HAT),
        ]
        for u, v in pairs:
            assert quadrature_kernel(u, v, n_nodes) == _quadrature_reference(u, v, n_nodes)

    def test_count_equals_grid_sum_on_random_pairs(self):
        g = np.random.Generator(np.random.Philox(key=DEFAULT_SEED + 51))
        for _ in range(20):
            u, v = sample_unit_sphere(g), sample_unit_sphere(g)
            assert quadrature_kernel(u, v, 2000) == _quadrature_reference(u, v, 2000)

    def test_aligned_is_exactly_one(self):
        assert quadrature_kernel(Z_HAT, Z_HAT, n_nodes=1000) == 1.0

    def test_minimum_node_count(self):
        with pytest.raises(ValueError):
            quadrature_kernel(Z_HAT, Z_HAT, n_nodes=999)

    def test_matches_scalar_product(self):
        assert abs(quadrature_kernel(X_HAT, Y_HAT)) <= 2e-3
        u = np.array([0.6, 0.0, 0.8])
        v = np.array([0.0, 0.6, 0.8])
        assert quadrature_kernel(u, v) == pytest.approx(float(u @ v), abs=2e-3)


def count_direction_builds(monkeypatch) -> list:
    """Record, in order, the name of each direction builder protocols calls from now on."""
    calls = []
    for name in ("alice_direction_rows", "bob_direction_rows", "complete_rows"):

        def counted(*args, _name=name, _real=getattr(protocols, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(protocols, name, counted)
    return calls


class TestExactMuAverage:
    def test_frozen_aligned_values(self):
        param = EntanglementParam(PI4)
        cases = [(Completion.NORMALIZE, 0.5), (Completion.ORTHO, 0.25), (Completion.ORTHO_SIGN, 0.25)]
        for strategy, want in cases:
            got = exact_mu_average(param, Z_HAT, Z_HAT, strategy, 1, 1, "p1")
            assert got == pytest.approx(want, abs=1e-12)

    def test_validation(self):
        param = EntanglementParam(PI8)
        with pytest.raises(ValueError):
            exact_mu_average(param, Z_HAT, Z_HAT, Completion.NORMALIZE, 0, 1, "p1")
        with pytest.raises(ValueError):
            exact_mu_average(param, Z_HAT, Z_HAT, Completion.NORMALIZE, 1, 1, "tb")
        with pytest.raises(ValueError, match="symmetrized"):
            exact_mu_average(param, [0.0, 0.0, -1.0], Z_HAT, Completion.NORMALIZE, 1, 1, "p1")

    def test_p2_needs_entanglement_as_the_sampler_does(self):
        # run_batch refuses it in the same direction_table
        with pytest.raises(ValueError, match="protocol 2 requires gamma > 0"):
            exact_mu_average(EntanglementParam(0.0), Z_HAT, X_HAT, Completion.NORMALIZE, 1, 1, "p2")

    @pytest.mark.parametrize("protocol", ["p1", "p2"])
    def test_oracle_reads_the_sampled_table(self, monkeypatch, protocol):
        # after a batch at a setting, the oracle at the symmetrized setting
        # builds nothing: it averages the block the sampler gathered from
        param = EntanglementParam(PI8)
        a, b = np.array([0.6, 0.0, -0.8]), np.array([0.0, 0.6, 0.8])
        rr = RoundRandomness.from_uniform_block(protocols.round_uniform_block(5, 0, 0, 64))
        run_batch(param, a, b, rr, Completion.ORTHO, protocol)
        calls = count_direction_builds(monkeypatch)
        a1, b1 = symmetrize(a, b)[:2]
        branches = [(p, q) for p in (1, -1) for q in (1, -1)]
        oracle = [
            exact_mu_average(param, a1, b1, Completion.ORTHO, p, q, protocol) for p, q in branches
        ]
        assert calls == []
        u, v = protocols.direction_table(param, a1, b1, Completion.ORTHO, protocol)
        assert calls == []
        assert not (u.flags.writeable or v.flags.writeable)
        half = 1 << {"p1": 5, "p2": 7}[protocol]
        assert u.shape == v.shape == (2 * half, 3)
        for (p, q), got in zip(branches, oracle):
            u_block = u[half:] if p < 0 else u[:half]
            v_block = v[half:] if q < 0 else v[:half]
            assert got == float(np.einsum("ij,ij->i", u_block, v_block).mean())

    def test_mismatched_branches_agree(self):
        # (p, q) = (1, -1) and (-1, 1) relabel the mu bundle onto each other
        param = EntanglementParam(PI8)
        a = np.array([0.6, 0.0, 0.8])
        b = np.array([0.0, 0.6, 0.8])
        for strategy in (Completion.NORMALIZE, Completion.ORTHO_SIGN):
            for protocol in ("p1", "p2"):
                one = exact_mu_average(param, a, b, strategy, 1, -1, protocol)
                two = exact_mu_average(param, a, b, strategy, -1, 1, protocol)
                assert one == pytest.approx(two, abs=1e-15)

    def test_completion_signs_average_out(self, monkeypatch):
        # An independent fair sign on each party's completion term changes no
        # branch average under ortho: Bob's completion term already carries a
        # fair sign Alice never reads, and ortho's completion of Alice is even
        # in all her signs.  This is why ortho-sign is sampled by ortho's rule.
        def signed_average(param, a, b, p, q, protocol):
            total = 0.0
            for e_a in (1.0, -1.0):
                for e_b in (1.0, -1.0):
                    # direction_table completes Alice's rows, then Bob's
                    party_signs = [e_a, e_b]

                    def signed(w, strategy, fallback, comp_sign):
                        e = party_signs.pop(0)
                        return complete_rows(w, strategy, fallback, e * np.asarray(comp_sign, dtype=float))

                    # the patched builder must build the table, and its
                    # table must not outlive the patch
                    with monkeypatch.context() as m:
                        m.setattr(protocols, "complete_rows", signed)
                        protocols._branch_tables.cache_clear()
                        total += exact_mu_average(param, a, b, Completion.ORTHO, p, q, protocol)
                    protocols._branch_tables.cache_clear()
                    assert not party_signs
            return total / 4.0

        g = np.random.Generator(np.random.Philox(key=DEFAULT_SEED + 49))
        pairs = [symmetrize(sample_unit_sphere(g), sample_unit_sphere(g))[:2] for _ in range(12)]
        a = pairs[0][0]
        pairs.append((a, np.array([-a[1], a[0], a[2]])))  # a_z == b_z
        worst = 0.0
        for gamma in (PI8 / 2, PI8, 0.6, PI4):
            param = EntanglementParam(gamma)
            for a, b in pairs:
                for protocol in ("p1", "p2"):
                    for p in (1, -1):
                        for q in (1, -1):
                            plain = exact_mu_average(param, a, b, Completion.ORTHO, p, q, protocol)
                            signed = signed_average(param, a, b, p, q, protocol)
                            worst = max(worst, abs(plain - signed))
        assert worst <= 1e-12, worst

    def test_matches_mc(self):
        param = EntanglementParam(PI8)
        a = np.array([0.6, 0.0, 0.8])
        b = np.array([0.0, 0.6, 0.8])
        mc = mc_branch_correlations(param, a, b, Completion.ORTHO, "p1", 200_000, seed=83)
        assert set(mc) == {(1, 1), (-1, -1)}
        for (p, q), est in mc.items():
            oracle = exact_mu_average(param, a, b, Completion.ORTHO, p, q, "p1")
            assert abs(est.mean - oracle) <= 4.0 * max(est.stderr, 1.0 / est.n)

    def test_branch_pairing_limits_combinations(self):
        # a_z > b_z forces p == -q
        param = EntanglementParam(PI8)
        mc = mc_branch_correlations(
            param, Z_HAT, np.array([0.8, 0.0, 0.6]), Completion.NORMALIZE, "p1", 50_000, seed=84
        )
        assert set(mc) == {(1, -1), (-1, 1)}

    def test_branch_seen_once_is_left_out(self):
        # one round gives no standard error; as in a report, the branch is
        # left out (three rounds split 2 + 1 at most of these seeds)
        param = EntanglementParam(PI8)
        sizes = set()
        for seed in range(8):
            mc = mc_branch_correlations(param, Z_HAT, Z_HAT, Completion.NORMALIZE, "p1", 3, seed=seed)
            sizes |= {est.n for est in mc.values()}
        assert sizes == {2, 3}


class TestBranchClaim:
    def test_aligned_claim_is_one(self):
        got = branch_correlation_claim(EntanglementParam(PI4), Z_HAT, Z_HAT, 1, 1, "p1")
        assert got == pytest.approx(1.0)

    def test_p1_forms(self):
        param = EntanglementParam(PI8)
        a = np.array([0.6, 0.0, 0.8])
        b = np.array([0.0, 0.6, 0.8])
        same = branch_correlation_claim(param, a, b, 1, 1, "p1")
        assert same == pytest.approx(float(a @ aux_axis(param, b)))

    def test_p2_in_band_form(self):
        param = EntanglementParam(PI8)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([math.cos(0.7), math.sin(0.7), 0.0])
        got = branch_correlation_claim(param, a, b, 1, 1, "p2")
        assert got == pytest.approx(float(a @ rotate_pi_about_x(b)))


class TestFlipMoments:
    def test_exact_equals_claim(self):
        g = np.random.Generator(np.random.Philox(key=85))
        for _ in range(200):
            c0 = float(g.uniform(-1.0, 1.0))
            f_a, f_b = float(g.random()), float(g.random())
            assert flip_moments_exact(c0, f_a, f_b) == flip_moments_claim(c0, f_a, f_b)

    def test_corners(self):
        assert flip_moments_exact(0.25, 0.0, 0.0) == (0, 0, Fraction(0.25))
        assert flip_moments_exact(-0.5, 1.0, 1.0) == (1, 1, 1)

    def test_pre_flip_rounding_regression(self):
        # both settings inside the band at pi/8: a . rot(b) rounds past -1
        param = EntanglementParam(PI8)
        a = np.array([-0.9498845440455933, -0.312444417695568, 0.009891351483639507])
        b = np.array([0.9498845440455933, -0.312444417695568, 0.009891351483639507])
        c0 = pre_flip_correlation(param, a, b, "p2")
        f_a = epr2_flip_probability(param, a[2])
        f_b = epr2_flip_probability(param, b[2])
        _, _, m_ab = flip_moments_exact(c0, f_a, f_b)
        assert float(m_ab) == pytest.approx(epr2_correlation(param, a, b), abs=1e-12)

    def test_returns_fractions(self):
        moments = flip_moments_exact(0.5, 0.25, 0.75)
        assert all(isinstance(m, Fraction) for m in moments)
        with pytest.raises(ValueError):
            flip_moments_exact(1.5, 0.5, 0.5)

    @staticmethod
    def assert_reference_fractions(c0, f_a, f_b):
        got = flip_moments_exact(c0, f_a, f_b)
        assert got == flip_moments_reference(c0, f_a, f_b)
        assert all(type(m) is Fraction for m in got)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_equals_reference(self, c0, f_a, f_b):
        self.assert_reference_fractions(c0, f_a, f_b)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_empty_middle_band_equals_reference(self, c0, f):
        self.assert_reference_fractions(c0, f, f)

    def test_edge_values_equal_reference(self):
        edges = (0.0, 1.0, 5e-324, 0.9999999999999999)
        for c0 in (-1.0, 0.0, 1.0, 1e-300):
            for f_a in edges:
                for f_b in edges:
                    self.assert_reference_fractions(c0, f_a, f_b)

    @pytest.mark.parametrize("mutant", [_bob_flips_at_f_b, _alice_reads_f_b])
    def test_suite_fails_under_a_mutant_flip_rule(self, monkeypatch, mutant):
        monkeypatch.setattr(verify, "correlated_flip", mutant)
        checks = {check.name: check for check in suite_flip(trials=50)}
        assert not checks["flip-moments-exact"].passed

    def test_one_flip_rule_call_per_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return correlated_flip(*args)

        monkeypatch.setattr(verify, "correlated_flip", counted)
        for c0, f_a, f_b in ((0.5, 0.25, 0.75), (0.5, 0.3, 0.3), (0.25, 0.0, 0.0), (-0.5, 1.0, 1.0)):
            calls.clear()
            flip_moments_exact(c0, f_a, f_b)
            assert len(calls) == 1


class TestMcRoundMoments:
    def test_shape(self):
        result = mc_round_moments(
            EntanglementParam(PI8), [0.6, 0.0, 0.8], Z_HAT, Completion.NORMALIZE, "p1",
            rounds=50_000, seed=86,
        )
        assert set(result) == {"alpha0", "beta0", "alpha", "beta"}
        for key in ("alpha0", "beta0", "alpha", "beta"):
            est = result[key]
            assert est.n == 50_000
            assert -1.0 <= est.mean <= 1.0
        band = 4.5 * max(result["alpha0"].stderr, 1.0 / 50_000)
        assert abs(result["alpha0"].mean) <= band
        assert abs(result["beta0"].mean) <= band


class TestSharedStream:
    @pytest.mark.parametrize("protocol", ["p1", "p2", "tb"])
    def test_mc_matches_run_experiment(self, protocol):
        # verify's Monte Carlo samples the very rounds run_experiment does:
        # same addressed chunks, same integer sums, across a chunk boundary,
        # and the report's branch estimates use the same stderr formula
        param = EntanglementParam(PI8)
        a, b = [0.6, 0.0, 0.8], [0.0, 0.8, -0.6]
        rounds, seed = CHUNK + 2048, 88
        for strategy in (Completion.NORMALIZE, Completion.ORTHO_SIGN):
            report = run_experiment(ExperimentConfig(
                protocol=protocol, gamma=PI8, rounds=rounds, seed=seed,
                completion=strategy.value, settings=((a, b),),
            ))
            rec = report["records"][0]
            pp, pm, mp, mm = rec["counts"]
            moments = mc_round_moments(param, a, b, strategy, protocol, rounds, seed)
            for name in ("alpha0", "beta0"):
                assert (moments[name].mean, moments[name].stderr) == (
                    rec["pre_flip"][f"{name}_mean"], rec["pre_flip"][f"{name}_stderr"]
                )
            assert moments["alpha"] == sign_mean_estimate(pp + pm - mp - mm, rounds)
            assert moments["beta"] == sign_mean_estimate(pp - pm + mp - mm, rounds)
            branches = mc_branch_correlations(param, a, b, strategy, protocol, rounds, seed)
            assert {
                (p, q): (est.n, est.mean, est.stderr) for (p, q), est in branches.items()
            } == {
                (br["p"], br["q"]): (br["n"], br["corr_mean"], br["corr_stderr"])
                for br in rec["branches"]
            }
            assert len(branches) == (0 if protocol == "tb" else 2)


class TestChunkStats:
    @pytest.mark.parametrize("protocol", ["p1", "p2", "tb"])
    def test_batch_aggregate_matches_direct_sums(self, protocol):
        g = np.random.Generator(np.random.Philox(key=DEFAULT_SEED + 50))
        rr = RoundRandomness.from_uniform_block(g.random((3000, UNIFORMS_PER_ROUND)))
        for a, b in ((Z_HAT, [0.6, 0.0, -0.8]), ([0.0, 0.8, 0.6], [0.6, 0.0, 0.8])):
            out = run_batch(EntanglementParam(PI8), a, b, rr, Completion.ORTHO, protocol)
            stats = _stats_from_batch(out)
            assert stats.hist.shape == (3, 3, 2, 2, 2, 2)
            assert stats.n == 3000
            assert stats.counts == [
                int(np.count_nonzero((out.alpha == x) & (out.beta == y)))
                for x, y in ((1, 1), (1, -1), (-1, 1), (-1, -1))
            ]
            for name in ("alpha0", "beta0", "alpha", "beta"):
                assert stats.sign_sum(name) == int(getattr(out, name).sum(dtype=np.int64))
            assert stats.sign_sum("alpha", "beta") == int(
                (out.alpha.astype(np.int64) * out.beta).sum()
            )
            prod = out.alpha0.astype(np.int64) * out.beta0
            want = {}
            for pv in (1, -1):
                for qv in (1, -1):
                    mask = (out.p == pv) & (out.q == qv)
                    if mask.any():
                        want[(pv, qv)] = (int(mask.sum()), int(prod[mask].sum()))
            assert stats.branches == want
            assert list(stats.branches) == sorted(want)
            assert (stats.branches == {}) == (protocol == "tb")

    _SPLIT_ROWS = RoundRandomness.from_uniform_block(
        np.random.Generator(np.random.Philox(key=DEFAULT_SEED + 51)).random(
            (3000, UNIFORMS_PER_ROUND)
        )
    )

    @settings(max_examples=30, deadline=None)
    @given(
        protocol=st.sampled_from(["p1", "p2", "tb"]),
        cuts=st.lists(st.integers(0, 3000), max_size=6),
    )
    def test_histogram_does_not_depend_on_the_split(self, protocol, cuts):
        # a batch cut anywhere aggregates to the whole batch's histogram, cell for cell
        rr = self._SPLIT_ROWS
        param, a, b = EntanglementParam(PI8), [0.6, 0.0, 0.8], [0.0, 0.8, -0.6]
        whole = _stats_from_batch(run_batch(param, a, b, rr, Completion.NORMALIZE, protocol))
        bounds = [0, *sorted(cuts), rr.n]
        pieces = ChunkStats()
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                piece = RoundRandomness(
                    **{f.name: getattr(rr, f.name)[lo:hi] for f in dataclasses.fields(rr)}
                )
                pieces.add(_stats_from_batch(run_batch(
                    param, a, b, piece, Completion.NORMALIZE, protocol))
                )
        assert np.array_equal(pieces.hist, whole.hist)
        assert whole.n == rr.n


class TestRealizedJoint:
    @staticmethod
    def settings():
        g = np.random.Generator(np.random.Philox(key=DEFAULT_SEED + 47))
        pairs = [(sample_unit_sphere(g), sample_unit_sphere(g)) for _ in range(3)]
        a = pairs[0][0]
        pairs.append((a, np.array([-a[1], a[0], -a[2]])))  # |a_z| == |b_z|
        # a_z > b_z, where p1's two branch correlations differ in sign
        pairs.append((np.array([0.6, 0.0, 0.8]), np.array([0.96, 0.0, 0.28])))
        return tuple((tuple(a), tuple(b)) for a, b in pairs)

    def test_is_a_distribution(self):
        # the gamma edges: 0 (p1 only; the pair (z, z) has a degenerate
        # alternate axis there) and pi/4 both as a float and in decimal
        settings = self.settings() + (((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),)
        for gamma in (0.0, PI8, PI4, 0.7853981634):
            param = EntanglementParam(gamma)
            for a, b in settings:
                for strategy in Completion:
                    for protocol in ("p1", "p2") if gamma > 0.0 else ("p1",):
                        probs = realized_joint(param, a, b, strategy, protocol)
                        assert abs(float(probs.sum()) - 1.0) <= 1e-12
                        assert float(probs.min()) >= -1e-12
                        if protocol == "p1":
                            # the flip alone sets the marginals
                            mean_a, mean_b = probs @ [1, 1, -1, -1], probs @ [1, -1, 1, -1]
                            assert mean_a == pytest.approx(param.cos2g * a[2], abs=1e-12)
                            assert mean_b == pytest.approx(param.cos2g * b[2], abs=1e-12)

    @pytest.mark.parametrize("protocol", ["p1", "p2"])
    def test_builds_one_table(self, monkeypatch, protocol):
        # both branches' averages read one table of the fresh setting
        calls = count_direction_builds(monkeypatch)
        realized_joint(EntanglementParam(PI8), *self.settings()[0], Completion.ORTHO, protocol)
        assert calls.count("alice_direction_rows") == calls.count("bob_direction_rows") == 1

    def test_refuses_what_the_engine_refuses_in_its_words(self):
        a, b = self.settings()[0]
        with pytest.raises(ValueError, match="protocol 2 requires gamma > 0"):
            realized_joint(EntanglementParam(0.0), a, b, Completion.NORMALIZE, "p2")
        with pytest.raises(ValueError, match="protocol must be 'p1' or 'p2', got 'tb'"):
            realized_joint(EntanglementParam(PI8), a, b, Completion.NORMALIZE, "tb")

    def test_matches_run_experiment(self):
        # every cell of the sampled full joint against the exact one, 4 sigma
        param = EntanglementParam(PI8)
        settings = self.settings()
        rounds = 150_000
        worst = 0.0
        for protocol in ("p1", "p2"):
            for strategy in Completion:
                report = run_experiment(ExperimentConfig(
                    protocol=protocol, gamma=PI8, rounds=rounds, seed=DEFAULT_SEED + 48,
                    completion=strategy.value, settings=settings,
                ))
                for (a, b), rec in zip(settings, report["records"]):
                    exact = realized_joint(param, a, b, strategy, protocol)
                    freq = np.array(rec["counts"]) / rounds
                    sigma = np.maximum(np.sqrt(exact * (1.0 - exact) / rounds), 1.0 / rounds)
                    z = np.abs(freq - exact) / sigma
                    worst = max(worst, float(z.max()))
                    assert z.max() <= 4.0, (protocol, strategy.value, a, b, z)
        print(f"full joint: max |z| = {worst:.2f}")


class TestEpr2Suite:
    def test_report_passes_at_pi_over_8(self):
        checks = suite_epr2(gamma=PI8, grid_n=12)
        assert all(c.passed for c in checks), [str(c) for c in checks]
        assert checks[0].detail.endswith("over 144 pairs")

    def test_validation(self):
        with pytest.raises(ValueError):
            suite_epr2(gamma=PI8, grid_n=9)
        with pytest.raises(ValueError):
            suite_epr2(gamma=0.0)

    def test_refused_nonlocal_entry_fails_the_check(self):
        # at gamma = 1e-9 a grid pair's nonlocal part has a negative entry; the
        # suite reports its refusal as a FAIL naming the entry instead of raising
        checks = {c.name: c for c in suite_epr2(gamma=1e-9, grid_n=20)}
        nonneg = checks["epr2-nl-nonnegative[gamma=0.000000]"]
        assert not nonneg.passed
        assert "negative probability entry -4.79" in nonneg.detail
        assert "a = (0.3122, 0, 0.95)" in nonneg.detail


class TestClaimResidualReport:
    # SHA-256 of the sorted-key JSON of the 10-setting report at the default
    # seed.  The report is pure enumeration, so a change to a direction, the
    # claim or the settings draw shows here.  The digest is 0.15.0's bytes.
    GOLDEN_10 = "937fb640e92b938cce6e134de00f82f7e276279303a295a04759c6564337b1ac"

    def test_golden_digest(self):
        text = json.dumps(claim_residual_report(n_settings=10), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_10

    def test_deterministic_and_nonzero(self):
        kwargs = dict(n_settings=5, seed=DEFAULT_SEED)
        one = claim_residual_report(**kwargs)
        two = claim_residual_report(**kwargs)
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
        for per_gamma in one["strategies"].values():
            for per_protocol in per_gamma.values():
                for entry in per_protocol.values():
                    # the claimed identity does not hold for any of these
                    # completions; the report records the gap rather than 0
                    assert entry["max_residual"] > 0.01

    def test_structure(self):
        report = claim_residual_report(n_settings=2)
        assert report["gammas"] == [PI8, PI4]
        assert report["protocols"] == ["p1", "p2"]
        assert set(report["strategies"]) == {"normalize", "ortho", "ortho-sign"}
        for per_gamma in report["strategies"].values():
            assert list(per_gamma) == [repr(PI8), repr(PI4)]
            assert all(list(per_protocol) == ["p1", "p2"] for per_protocol in per_gamma.values())

    def test_rejects_no_settings(self):
        # a maximum over no settings would read as an exact identity at setting 0
        with pytest.raises(ValueError, match="need n_settings >= 1"):
            claim_residual_report(n_settings=0)


class TestSuites:
    def test_check_result_str(self):
        assert str(CheckResult("name", True, "detail")) == "PASS name: detail"
        assert str(CheckResult("name", False, "detail")) == "FAIL name: detail"

    def test_suite_mbox(self):
        checks = suite_mbox(rounds=50_000)
        assert [c.name for c in checks] == ["mbox-xor-grid", "mbox-m-uniform"]
        assert all(c.passed for c in checks)
        with pytest.raises(ValueError, match="need rounds >= 1"):
            suite_mbox(rounds=0)

    def test_suite_kernel(self):
        checks = suite_kernel(n_pairs=3, rounds=100_000, n_nodes=10_000)
        assert all(c.passed for c in checks), [str(c) for c in checks]

    @pytest.mark.parametrize(
        "kwargs,match",
        [({"rounds": 1}, "need rounds >= 2"), ({"n_nodes": 999}, "need n_nodes >= 1000")],
        ids=["rounds", "n_nodes"],
    )
    def test_suite_kernel_checks_sizes_first(self, kwargs, match):
        # raised at entry, not from an estimator after the sampling ran
        with pytest.raises(ValueError, match=match):
            suite_kernel(**{"n_pairs": 0, "rounds": 1000, **kwargs})

    def test_suite_flip(self):
        checks = suite_flip(trials=300)
        assert all(c.passed for c in checks), [str(c) for c in checks]
        # zero triples would pass a check that compared nothing
        with pytest.raises(ValueError):
            suite_flip(trials=0)

    def test_suite_epr2_single_gamma(self):
        checks = suite_epr2(gamma=PI8, grid_n=12)
        assert len(checks) == 4
        assert all(c.passed for c in checks), [str(c) for c in checks]

    def test_suite_oracle_small(self):
        checks = suite_oracle(gamma=PI8, n_settings=2, rounds=150_000)
        assert [c.name for c in checks] == [
            f"oracle-vs-mc[{protocol},{strategy.value}]"
            for protocol in ("p1", "p2")
            for strategy in Completion
        ]
        assert all(c.passed for c in checks), [str(c) for c in checks]
        assert all("over 4 branches of 2 settings" in c.detail for c in checks)

    def test_suite_oracle_fails_when_nothing_compared(self):
        # no settings leave every check without a branch to compare
        checks = suite_oracle(gamma=PI8, n_settings=0, rounds=2)
        assert not any(c.passed for c in checks), [str(c) for c in checks]
        assert all("over 0 branches" in c.detail for c in checks)

    def test_suite_oracle_checks_rounds_before_sampling(self, monkeypatch):
        # a standard error needs two rounds
        def sampled(*args, **kwargs):
            raise AssertionError("sampled before checking rounds")

        monkeypatch.setattr(verify, "mc_branch_correlations", sampled)
        with pytest.raises(ValueError, match="need rounds >= 2, got 1"):
            suite_oracle(gamma=PI8, n_settings=2, rounds=1)

    def test_suite_oracle_runs_at_the_largest_seed(self, monkeypatch):
        # each case's seed, seed + 7919 case, wraps modulo 2^64
        seed = 2**64 - 1
        seeds = []
        real = verify.mc_branch_correlations

        def recorded(*args):
            seeds.append(args[-1])
            return real(*args)

        monkeypatch.setattr(verify, "mc_branch_correlations", recorded)
        checks = suite_oracle(gamma=PI8, n_settings=1, rounds=2000, seed=seed)
        assert seeds == [7919 * case - 1 for case in range(1, 7)]
        assert len(checks) == 6
        assert all(c.passed for c in checks), [str(c) for c in checks]

    def test_suite_oracle_checks_gamma_before_sampling(self, monkeypatch):
        def sampled(*args, **kwargs):
            raise AssertionError("sampled before checking gamma")

        monkeypatch.setattr(verify, "mc_branch_correlations", sampled)
        with pytest.raises(ValueError, match="gamma > 0"):
            suite_oracle(gamma=0.0, n_settings=2, rounds=1000)


_SEED_PAIR = (np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8]))

# Every entry point that keys a stream by a caller's seed, at the smallest size.
_SEEDED = {
    "sample_settings": lambda seed: sample_settings(
        EntanglementParam(PI8), [_SEED_PAIR], Completion.NORMALIZE, "p1", 10, seed
    ),
    "mc_round_moments": lambda seed: mc_round_moments(
        EntanglementParam(PI8), *_SEED_PAIR, Completion.NORMALIZE, "p1", 10, seed
    ),
    "resolve_settings": lambda seed: resolve_settings(
        SimpleNamespace(random_settings=2, settings=(), seed=seed)
    ),
    "ExperimentConfig": lambda seed: ExperimentConfig(
        protocol="p1", gamma=PI8, rounds=10, seed=seed, random_settings=1
    ),
    "suite_mbox": lambda seed: suite_mbox(rounds=10, seed=seed),
    "suite_flip": lambda seed: suite_flip(trials=1, seed=seed),
    "suite_kernel": lambda seed: suite_kernel(n_pairs=0, rounds=10, n_nodes=1000, seed=seed),
    "suite_oracle": lambda seed: suite_oracle(n_settings=1, rounds=100, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("entry", sorted(_SEEDED))
def test_seed_outside_64_bits_is_refused(entry, seed):
    # Philox would take 2^64 as a 128-bit key and run; -1 does not fit a uint64
    with pytest.raises(ValueError, match=re.escape(f"seed must fit in 64 bits, got {seed}")):
        _SEEDED[entry](seed)
