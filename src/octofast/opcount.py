"""Operation counting by instrumentation, not by static claims.

Both kernels run unchanged on :class:`Counted` scalars, which tally every
multiplication and addition they actually perform.  Conventions:

* a multiplication is free when one operand is a compile-time constant 0 or
  ``+-2^k`` (sign flips and shifts), the constants
  :func:`~octofast.stages.pow2_exponent` accepts;
* subtraction counts as an addition; negation is free;
* wrapped (runtime) operands are never treated as constants, so the counts
  are independent of the input values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import Octo, mul_naive
from .kernel import Pipeline, mul_fast
from .program import OpCount
from .stages import pow2_exponent


def is_trivial_factor(v) -> bool:
    """True for constants 0 and ``+-2^k`` (:func:`pow2_exponent`):
    multiplying by them is free."""
    if not isinstance(v, (int, Fraction, float)):
        return False
    if v == 0:
        return True
    try:
        pow2_exponent(v)
    except ValueError:  # not +-2^k, a float inf or nan among them
        return False
    return True


class Tally:
    """Mutable counters shared by a family of Counted scalars."""

    __slots__ = ("mults", "adds")

    def __init__(self):
        self.mults = 0
        self.adds = 0

    def snapshot(self) -> OpCount:
        return OpCount(self.mults, self.adds)

    def wrap_octo(self, o: Octo) -> Octo:
        return Octo(tuple(Counted(v, self) for v in o.c))


class Counted:
    """A scalar that reports its arithmetic to a Tally.

    A Counted operand is a runtime value by definition; only plain (unwrapped)
    operands can qualify as trivial constants.
    """

    __slots__ = ("v", "t")

    def __init__(self, v, tally: Tally):
        self.v = v
        self.t = tally

    @property
    def value(self):
        return self.v

    def zero(self) -> "Counted":
        return Counted(0, self.t)

    def __add__(self, other):
        self.t.adds += 1
        return Counted(self.v + _raw(other), self.t)

    def __radd__(self, other):
        self.t.adds += 1
        return Counted(_raw(other) + self.v, self.t)

    def __sub__(self, other):
        self.t.adds += 1
        return Counted(self.v - _raw(other), self.t)

    def __rsub__(self, other):
        self.t.adds += 1
        return Counted(_raw(other) - self.v, self.t)

    def __neg__(self):
        return Counted(-self.v, self.t)

    def __mul__(self, other):
        if isinstance(other, Counted) or not is_trivial_factor(other):
            self.t.mults += 1
        return Counted(self.v * _raw(other), self.t)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Counted({self.v!r})"


def _raw(v):
    return v.v if isinstance(v, Counted) else v


def count_algorithm(algo: str, pipeline: Optional[Pipeline] = None) -> OpCount:
    """Run one full product on instrumented scalars and report the tallies.

    ``algo`` is ``"naive"`` or ``"fast"``; ``"fast"`` runs ``pipeline``
    through :func:`~octofast.kernel.mul_fast`, which stands in its own
    default, the certified ``default_pipeline()``, for ``None``.  Counts are
    structural: any input values give the same result.
    """
    tally = Tally()
    x = tally.wrap_octo(Octo((3, 5, 7, 9, 11, 13, 17, 19)))
    b = tally.wrap_octo(Octo((23, 29, 31, 37, 41, 43, 47, 53)))
    if algo == "naive":
        mul_naive(x, b)
    elif algo == "fast":
        mul_fast(x, b, pipeline)
    else:
        raise ValueError(f"unknown algorithm: {algo!r}")
    return tally.snapshot()
