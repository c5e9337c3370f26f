import numpy as np
import pytest

from mboxsim.boxes import compare_bit, outcome_from_uniform


class TestCompareBit:
    def test_strict_orderings(self):
        assert compare_bit(0.3, 0.7) == 1
        assert compare_bit(0.7, 0.3) == 0

    def test_tie_counts_as_true(self):
        assert compare_bit(0.5, 0.5) == 1


class TestOutcomeFromUniform:
    def test_xor_contract_exhaustive(self):
        # one call over the 11 x 11 grid and both coins
        xs = np.linspace(0.0, 1.0, 11)
        x, y, u = xs[:, None, None], xs[None, :, None], np.array([0.1, 0.9])
        m, n = outcome_from_uniform(x, y, u)
        # Alice's bit reads the coin alone; Bob's takes the broadcast shape
        assert (m.shape, n.shape) == ((2,), (11, 11, 2))
        assert m.tolist() == [1, 0]
        want = np.array([[compare_bit(float(xi), float(yj)) for yj in xs] for xi in xs])
        assert np.array_equal(m ^ n, np.broadcast_to(want[:, :, None], n.shape))

    def test_m_comes_from_the_coin_only(self):
        m, _ = outcome_from_uniform(0.2, 0.9, [0.49, 0.5])
        assert m.tolist() == [1, 0]

    def test_scalar_call_broadcasts(self):
        m, n = outcome_from_uniform(0.3, 0.7, 0.2)
        assert (m.shape, n.shape) == ((), ())
        assert (int(m), int(n)) == (1, 0)
        # scalar inputs meet an array coin, and an array input a scalar coin
        m, n = outcome_from_uniform(0.3, 0.7, np.array([0.2, 0.8, 0.4]))
        assert m.tolist() == [1, 0, 1] and n.tolist() == [0, 1, 0]
        m, n = outcome_from_uniform([0.2, 0.9], 0.5, 0.8)
        assert int(m) == 0 and n.tolist() == [1, 0]

    @pytest.mark.parametrize("u", [0.3, np.array([0.3, 0.6]), np.empty((2, 0))])
    def test_outputs_are_int8(self, u):
        m, n = outcome_from_uniform(0.4, 0.1, u)
        assert m.dtype == n.dtype == np.int8
        assert m.shape == n.shape == np.shape(u)

    def test_input_validation(self):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], got -0.1$"):
            outcome_from_uniform(-0.1, 0.5, 0.2)
        with pytest.raises(ValueError, match=r"^y must lie in \[0, 1\], got 1.5$"):
            outcome_from_uniform(0.5, 1.5, 0.2)
        with pytest.raises(ValueError, match=r"^box uniform must lie in \[0, 1\), got 1.0$"):
            outcome_from_uniform(0.5, 0.5, 1.0)
        # both ends of the closed interval, and 0 for the coin, are accepted
        outcome_from_uniform([0.0, 1.0], [1.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("position", ["x", "y", "u"])
    @pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2.0**-52, np.nan])
    def test_one_bad_entry_in_an_array_is_refused(self, position, bad):
        if position == "u" and bad > 1.0:
            bad = 1.0  # u's interval is open at 1
        inputs = {"x": np.full(64, 0.25), "y": np.full(64, 0.75), "u": np.full(64, 0.5)}
        inputs[position][17] = bad
        with pytest.raises(ValueError, match="must lie in"):
            outcome_from_uniform(inputs["x"], inputs["y"], inputs["u"])

    def test_outputs_marginally_fair(self):
        g = np.random.Generator(np.random.Philox(key=41))
        us = g.random(100_000)
        m, n = outcome_from_uniform(0.3, 0.7, us)
        band = 4.0 * 0.5 / np.sqrt(us.size)
        assert abs(m.mean() - 0.5) < band
        assert abs(n.mean() - 0.5) < band

    def test_no_signaling_marginal(self):
        # Alice's bit depends only on the coin, never on Bob's input
        y = np.array([0.0, 0.39, 0.41, 1.0])
        for u in (0.1, 0.6):
            m, _ = outcome_from_uniform(0.4, y, np.full(y.size, u))
            assert len(set(m.tolist())) == 1
        # Bob's bit is the coin XOR the comparison, a fair coin for fixed inputs
        _, n = outcome_from_uniform(0.4, 0.8, [0.1, 0.9])
        assert set(n.tolist()) == {0, 1}


class TestMboxCall:
    def test_joint_correlates_on_comparison(self):
        # as signs, the bits disagree exactly when x <= y
        u = np.array([0.2, 0.8])
        for x, y, product in ((0.3, 0.7, -1), (0.7, 0.3, 1), (0.5, 0.5, -1)):
            m, n = outcome_from_uniform(x, y, u)
            assert ((2 * m - 1) * (2 * n - 1)).tolist() == [product, product]
