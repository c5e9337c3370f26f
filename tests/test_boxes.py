import numpy as np
import pytest

from mboxsim.boxes import MBoxOutcome, compare_bit, outcome_from_uniform


class TestCompareBit:
    def test_strict_orderings(self):
        assert compare_bit(0.3, 0.7) == 1
        assert compare_bit(0.7, 0.3) == 0

    def test_tie_counts_as_true(self):
        assert compare_bit(0.5, 0.5) == 1


class TestOutcomeFromUniform:
    def test_xor_contract_exhaustive(self):
        xs = np.linspace(0.0, 1.0, 11)
        for x in xs:
            for y in xs:
                for u in (0.1, 0.9):
                    out = outcome_from_uniform(float(x), float(y), u)
                    assert out.n == out.m ^ compare_bit(float(x), float(y))

    def test_m_comes_from_the_coin_only(self):
        assert outcome_from_uniform(0.2, 0.9, 0.49).m == 1
        assert outcome_from_uniform(0.2, 0.9, 0.5).m == 0

    def test_sign_forms(self):
        out = MBoxOutcome(m=1, n=0)
        assert out.p == 1
        assert out.q == -1
        out = MBoxOutcome(m=0, n=1)
        assert out.p == -1
        assert out.q == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            outcome_from_uniform(-0.1, 0.5, 0.2)
        with pytest.raises(ValueError):
            outcome_from_uniform(0.5, 1.5, 0.2)
        with pytest.raises(ValueError):
            outcome_from_uniform(0.5, 0.5, 1.0)

    def test_outputs_marginally_fair(self):
        g = np.random.Generator(np.random.Philox(key=41))
        us = g.random(100_000)
        ms = np.fromiter(
            (outcome_from_uniform(0.3, 0.7, float(u)).m for u in us),
            dtype=np.int64,
            count=us.size,
        )
        band = 4.0 * 0.5 / np.sqrt(us.size)
        assert abs(ms.mean() - 0.5) < band

    def test_no_signaling_marginal(self):
        # Alice's bit depends only on the coin, never on Bob's input
        for u in (0.1, 0.6):
            m_values = {outcome_from_uniform(0.4, y, u).m for y in (0.0, 0.39, 0.41, 1.0)}
            assert len(m_values) == 1
        # Bob's bit is the coin XOR the comparison, a fair coin for fixed inputs
        n_low = outcome_from_uniform(0.4, 0.8, 0.1).n
        n_high = outcome_from_uniform(0.4, 0.8, 0.9).n
        assert {n_low, n_high} == {0, 1}


class TestMboxCall:
    def test_joint_correlates_on_comparison(self):
        # bits disagree exactly when x <= y
        for u in (0.2, 0.8):
            out = outcome_from_uniform(0.3, 0.7, u)
            assert out.p * out.q == -1
            out = outcome_from_uniform(0.7, 0.3, u)
            assert out.p * out.q == 1
