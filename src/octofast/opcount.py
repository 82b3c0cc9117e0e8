"""Operation counting by instrumentation, not by static claims.

Both kernels run unchanged on :class:`Counted` scalars, which tally every
multiplication and addition they actually perform.  Conventions:

* a multiplication is free when one operand is a compile-time constant in
  ``{0, +-1, +-2^k}`` (sign flips and shifts);
* subtraction counts as an addition; negation is free;
* wrapped (runtime) operands are never treated as constants, so the counts
  are independent of the input values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Octo, mul_naive
from .kernel import Pipeline, default_pipeline, mul_fast


@dataclass(frozen=True)
class OpCount:
    mults: int
    adds: int

    def __str__(self):
        return f"mults={self.mults} adds={self.adds}"


def is_trivial_factor(v) -> bool:
    """True for constants in {0, +-2^k}: multiplying by them is free."""
    if isinstance(v, bool):
        return True
    if isinstance(v, int):
        n = abs(v)
        return n & (n - 1) == 0
    if isinstance(v, Fraction):
        n, d = abs(v.numerator), v.denominator
        return n & (n - 1) == 0 and d & (d - 1) == 0
    if isinstance(v, float):
        if v == 0 or not math.isfinite(v):
            return v == 0
        m, _ = math.frexp(abs(v))
        return m == 0.5
    return False


class Tally:
    """Mutable counters shared by a family of Counted scalars."""

    __slots__ = ("mults", "adds")

    def __init__(self):
        self.mults = 0
        self.adds = 0

    def snapshot(self) -> OpCount:
        return OpCount(self.mults, self.adds)

    def reset(self) -> None:
        self.mults = 0
        self.adds = 0

    def wrap(self, v) -> "Counted":
        return Counted(v, self)

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

    ``algo`` is ``"naive"`` or ``"fast"``.  Counts are structural: any input
    values give the same result.
    """
    tally = Tally()
    x = tally.wrap_octo(Octo((3, 5, 7, 9, 11, 13, 17, 19)))
    b = tally.wrap_octo(Octo((23, 29, 31, 37, 41, 43, 47, 53)))
    if algo == "naive":
        mul_naive(x, b)
    elif algo == "fast":
        mul_fast(x, b, pipeline if pipeline is not None else default_pipeline())
    else:
        raise ValueError(f"unknown algorithm: {algo!r}")
    return tally.snapshot()
