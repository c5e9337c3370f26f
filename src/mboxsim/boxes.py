"""The comparison box ("M box"), called once per round by protocols p1 and p2.

The box takes one real input from each side, x and y in [0, 1], and hands
back one bit to each side.  Alice's bit m is a fair coin drawn from the box's
private randomness; Bob's bit is n = m XOR [x <= y], with the comparison
counting equality as true.  Each output alone is an unbiased coin whatever the
inputs, so neither side can signal through the box; only the pair (m, n)
carries the comparison.

The batch engine (protocols.run_batch) applies this contract row-wise
instead of calling outcome_from_uniform.  Acceptance criterion 9 checks on
every row that the two agree, and that Bob's outputs see Alice's setting only
through the box and the one cbit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MBoxOutcome", "compare_bit", "outcome_from_uniform"]


@dataclass(frozen=True)
class MBoxOutcome:
    """One box invocation: Alice's bit m, Bob's bit n, and their sign forms."""

    m: int
    n: int

    @property
    def p(self) -> int:
        """Alice's output as a sign, p = 2m - 1."""
        return 2 * self.m - 1

    @property
    def q(self) -> int:
        """Bob's output as a sign, q = 2n - 1."""
        return 2 * self.n - 1


def compare_bit(x: float, y: float) -> int:
    """The bit the box correlates on: 1 iff x <= y (equality counts)."""
    return 1 if x <= y else 0


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def outcome_from_uniform(x: float, y: float, u: float) -> MBoxOutcome:
    """Deterministic core of the box: m = [u < 1/2], n = m XOR [x <= y]."""
    _check_unit_interval("x", x)
    _check_unit_interval("y", y)
    if not 0.0 <= u < 1.0:
        raise ValueError(f"box uniform must lie in [0, 1), got {u}")
    m = 1 if u < 0.5 else 0
    return MBoxOutcome(m=m, n=m ^ compare_bit(x, y))
