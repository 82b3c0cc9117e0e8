"""Hyperbolic octonions: the 8-dimensional algebra and its schoolbook product.

Elements live over the ordered basis ``(1, e1, e2, e3, E4, E5, E6, E7)``: the
first three imaginary units square to -1, the last four "counterimaginary"
units square to +1, and the algebra is neither commutative nor associative.

Two independent descriptions of the product are kept side by side on purpose:

* :func:`mul_naive` spells out the eight coordinate formulas (the canonical
  definition, 64 scalar multiplications and 56 additions);
* :data:`basis_mul` / :func:`schoolbook_matrix` encode the unit table and the
  left-multiplication matrix.

Tests pin the three views to each other; the fast kernel is certified against
:func:`schoolbook_matrix`.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Sequence

from .linform import LinForm, SymMatrix


class BasisProduct(NamedTuple):
    """Product of two basis units: ``sign * unit[index]``."""
    sign: int
    index: int


# Unit products for the seven imaginary/counterimaginary units, row = left
# factor e_i, column = right factor e_j, entry = (sign, index).  Row/column 0
# (the scalar unit) is handled by unitality in basis_mul.
_UNIT_TABLE = (
    ((-1, 0), (1, 3), (-1, 2), (1, 5), (1, 4), (-1, 7), (1, 6)),
    ((-1, 3), (-1, 0), (1, 1), (1, 6), (1, 7), (1, 4), (-1, 5)),
    ((1, 2), (-1, 1), (-1, 0), (1, 7), (-1, 6), (1, 5), (1, 4)),
    ((-1, 5), (-1, 6), (-1, 7), (1, 0), (1, 1), (1, 2), (1, 3)),
    ((-1, 4), (-1, 7), (1, 6), (-1, 1), (1, 0), (1, 3), (-1, 2)),
    ((1, 7), (-1, 4), (-1, 5), (-1, 2), (-1, 3), (1, 0), (1, 1)),
    ((-1, 6), (1, 5), (-1, 4), (-1, 3), (1, 2), (-1, 1), (1, 0)),
)


def basis_mul(i: int, j: int) -> BasisProduct:
    """Product of basis units ``unit(i) * unit(j)`` as a signed unit.

    Args:
        i: index of the left unit, 0..7.
        j: index of the right unit, 0..7.
    """
    if not (0 <= i < 8 and 0 <= j < 8):
        raise ValueError(f"unit index out of range: ({i}, {j})")
    if i == 0:
        return BasisProduct(1, j)
    if j == 0:
        return BasisProduct(1, i)
    sign, index = _UNIT_TABLE[i - 1][j - 1]
    return BasisProduct(sign, index)


def _exact(token: str):
    """``token`` as an ``int`` when its value is integral, else a
    ``Fraction``.  An exponent beyond the int-to-text digit limit is refused
    before ``10**exp`` is built, which can take seconds and much memory."""
    # a Python without the limit (before 3.10.7) behaves as with limit 0
    limit = getattr(sys, "get_int_max_str_digits", int)()
    exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\Z", token)
    if exp and limit and abs(int(exp[1])) > limit:
        raise ValueError(f"exponent of {token[:40]!r} is beyond "
                         f"{limit}, Python's int-to-text digit limit")
    q = Fraction(token)
    return q.numerator if q.denominator == 1 else q


class Octo:
    """A hyperbolic octonion as an immutable 8-tuple of coefficients.

    Coefficients are either exact (int / Fraction) or float; float
    coefficients must be finite.  Scalar-like wrapper objects (e.g. the
    instrumented counters) pass through untouched.

    ``kind``, read-only like ``c``, is the one exact type of all eight
    coefficients (``float``, ``int``, ``Fraction``, ``bool``, a subclass
    as itself), or ``None`` when their types differ; the compiled kernel
    picks its body by it.  Finding it costs seven ``is`` tests, and it
    spares the finiteness loop: an all-``int`` value has no float to
    check, and an all-``float`` value whose sum is finite has none that
    is not (a float sum with an infinite or NaN term is infinite or NaN).
    Every other value, one whose float sum overflows included, runs the
    loop, so ``Octo`` refuses exactly the non-finite floats.
    """

    __slots__ = ("c", "kind")

    def __init__(self, coeffs: Sequence):
        c = tuple(coeffs)
        if len(c) != 8:
            raise ValueError(f"expected 8 coefficients, got {len(c)}")
        c0, c1, c2, c3, c4, c5, c6, c7 = c
        kind = type(c0)
        if not (type(c1) is kind and type(c2) is kind and type(c3) is kind
                and type(c4) is kind and type(c5) is kind
                and type(c6) is kind and type(c7) is kind):
            kind = None
        if kind is not int and not (
                kind is float
                and _isfinite(c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7)):
            for v in c:
                if isinstance(v, float) and not _isfinite(v):
                    raise ValueError(f"non-finite coefficient: {v!r}")
        _set_c(self, c)
        _set_kind(self, kind)

    def __setattr__(self, name, value):
        raise AttributeError("Octo is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the checking constructor,
        # which finds the kind again; the default restores slots by setattr
        return (Octo, (self.c,))

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "Octo":
        return cls((0,) * 8)

    @classmethod
    def unit(cls, i: int) -> "Octo":
        if not 0 <= i < 8:
            raise ValueError(f"unit index out of range: {i}")
        c = [0] * 8
        c[i] = 1
        return cls(c)

    @classmethod
    def from_text(cls, text: str, mode: str = "exact") -> "Octo":
        """Parse the canonical text form: 8 comma-separated coefficients.

        ``exact`` mode accepts integers and ``p/q`` rationals, and gives an
        ``int`` for each integral value (``3/1``, ``-0``) and a ``Fraction``
        for any other, and refuses a decimal exponent beyond Python's
        int-to-text digit limit; ``float`` mode accepts decimal numbers.
        """
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 8:
            raise ValueError(f"expected 8 comma-separated values, got {len(parts)}")
        if mode == "exact":
            return cls(tuple(_exact(p) for p in parts))
        if mode == "float":
            return cls(tuple(float(p) for p in parts))
        raise ValueError(f"unknown mode: {mode!r}")

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.c)

    # ---- linear structure ----

    def __add__(self, other: "Octo") -> "Octo":
        return Octo(tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other: "Octo") -> "Octo":
        return Octo(tuple(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self) -> "Octo":
        return Octo(tuple(-a for a in self.c))

    def scale(self, alpha) -> "Octo":
        return Octo(tuple(alpha * a for a in self.c))

    def __eq__(self, other):
        if not isinstance(other, Octo):
            return NotImplemented
        return all(a == b for a, b in zip(self.c, other.c))

    def __hash__(self):
        return hash(self.c)

    def __iter__(self):
        return iter(self.c)

    def __repr__(self):
        return f"Octo({self.to_text()})"


# bound once: ``Octo.__init__`` runs on every product, and the compiled
# kernel builds an ``Octo`` whose checks its outputs pass by construction
# with ``_new(Octo)``, ``_set_c`` and ``_set_kind``
_isfinite = math.isfinite
_set_c = Octo.c.__set__
_set_kind = Octo.kind.__set__
_new = object.__new__


def mul_naive(x: Octo, b: Octo) -> Octo:
    """Schoolbook product ``x * b`` via the eight coordinate formulas."""
    x0, x1, x2, x3, x4, x5, x6, x7 = x.c
    b0, b1, b2, b3, b4, b5, b6, b7 = b.c
    return Octo((
        x0*b0 - x1*b1 - x2*b2 - x3*b3 + x4*b4 + x5*b5 + x6*b6 + x7*b7,
        x0*b1 + x1*b0 + x2*b3 - x3*b2 + x4*b5 - x5*b4 + x6*b7 - x7*b6,
        x0*b2 - x1*b3 + x2*b0 + x3*b1 + x4*b6 - x5*b7 - x6*b4 + x7*b5,
        x0*b3 + x1*b2 - x2*b1 + x3*b0 + x4*b7 + x5*b6 - x6*b5 - x7*b4,
        x0*b4 + x1*b5 + x2*b6 + x3*b7 + x4*b0 - x5*b1 - x6*b2 - x7*b3,
        x0*b5 + x1*b4 - x2*b7 + x3*b6 - x4*b1 + x5*b0 - x6*b3 + x7*b2,
        x0*b6 + x1*b7 + x2*b4 - x3*b5 - x4*b2 + x5*b3 + x6*b0 - x7*b1,
        x0*b7 - x1*b6 + x2*b5 + x3*b4 - x4*b3 - x5*b2 + x6*b1 + x7*b0,
    ))


# Left-multiplication matrix: row r, column c holds the coefficient of x_c in
# the formula for y_r, as (b-index, sign).  Kept as a separate literal from
# mul_naive so the two can cross-check each other.
_MATRIX_ENTRIES = (
    ((0, 1), (1, -1), (2, -1), (3, -1), (4, 1), (5, 1), (6, 1), (7, 1)),
    ((1, 1), (0, 1), (3, 1), (2, -1), (5, 1), (4, -1), (7, 1), (6, -1)),
    ((2, 1), (3, -1), (0, 1), (1, 1), (6, 1), (7, -1), (4, -1), (5, 1)),
    ((3, 1), (2, 1), (1, -1), (0, 1), (7, 1), (6, 1), (5, -1), (4, -1)),
    ((4, 1), (5, 1), (6, 1), (7, 1), (0, 1), (1, -1), (2, -1), (3, -1)),
    ((5, 1), (4, 1), (7, -1), (6, 1), (1, -1), (0, 1), (3, -1), (2, 1)),
    ((6, 1), (7, 1), (4, 1), (5, -1), (2, -1), (3, 1), (0, 1), (1, -1)),
    ((7, 1), (6, -1), (5, 1), (4, 1), (3, -1), (2, -1), (1, 1), (0, 1)),
)


@cache
def schoolbook_matrix() -> SymMatrix:
    """The 8x8 left-multiplication matrix with symbolic entries.

    ``schoolbook_matrix().evaluate(b.c)`` applied to ``x.c`` reproduces
    ``mul_naive(x, b)`` exactly; the fast kernel is certified against this
    matrix.  It is built once: a ``SymMatrix`` is immutable, so every caller
    shares it.
    """
    return SymMatrix([[LinForm.var(idx, sign) for idx, sign in row]
                      for row in _MATRIX_ENTRIES])


def quadratic_form(x: Octo):
    """Signature-(4,4) form: squares of the first four coefficients minus
    squares of the last four.

    Equals the scalar part of ``x * conj(x)`` (all other parts vanish), but it
    is **not** multiplicative for this algebra — ``quadratic_form(mul(x, y))``
    generally differs from the product of the forms.
    """
    c = x.c
    return (c[0]*c[0] + c[1]*c[1] + c[2]*c[2] + c[3]*c[3]
            - c[4]*c[4] - c[5]*c[5] - c[6]*c[6] - c[7]*c[7])
