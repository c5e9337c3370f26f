"""The comparison box ("M box"), called once per round by protocols p1 and p2.

The box takes one real input from each side, x and y in [0, 1], and hands
back one bit to each side.  Alice's bit m is a fair coin drawn from the box's
private randomness; Bob's bit is n = m XOR [x <= y], with the comparison
counting equality as true.  Each output alone is an unbiased coin whatever the
inputs, so neither side can signal through the box; only the pair (m, n)
carries the comparison.

outcome_from_uniform is the one statement of that contract in the package.
It works elementwise, so protocols.run_batch makes one call per batch of
rounds and verify.suite_mbox one call per grid.  Acceptance criterion 9
holds the engine's branch signs to the contract as this docstring words it,
and checks that Bob's outputs see Alice's setting only through the box and
the one cbit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["compare_bit", "outcome_from_uniform"]


def compare_bit(x, y):
    """The bit the box correlates on: 1 iff x <= y (equality counts), as int8,
    elementwise."""
    return np.less_equal(x, y).astype(np.int8)


def _check_entries(name: str, v: np.ndarray, closed: bool) -> None:
    """Refuse v unless every entry lies in [0, 1], or in [0, 1) if not closed.

    min and max carry a NaN entry through, and NaN fails both comparisons, so
    NaN is refused too.  initial=0.0 lets an empty array pass.
    """
    low, high = float(v.min(initial=0.0)), float(v.max(initial=0.0))
    if not (low >= 0.0 and (high <= 1.0 if closed else high < 1.0)):
        bad = high if low >= 0.0 else low
        raise ValueError(f"{name} must lie in [0, 1{']' if closed else ')'}, got {bad}")


def outcome_from_uniform(x, y, u) -> tuple[np.ndarray, np.ndarray]:
    """The box, elementwise: m = [u < 1/2] and n = m XOR [x <= y], in int8.

    Alice's bit m has u's shape, and Bob's bit n the shape that x, y and u
    broadcast to, so one call serves a batch of rounds.  An entry of x or y
    outside [0, 1], or of u outside [0, 1), is refused, and so is NaN.
    """
    x, y, u = (np.asarray(v, dtype=np.float64) for v in (x, y, u))
    _check_entries("x", x, closed=True)
    _check_entries("y", y, closed=True)
    _check_entries("box uniform", u, closed=False)
    m = np.less(u, 0.5).view(np.int8)
    return m, m ^ compare_bit(x, y)
