"""Exact linear forms in the right operand, and dense symbolic matrices.

A :class:`LinForm` is an affine expression ``c + q0*b0 + ... + q7*b7`` over the
eight coefficients of the multiplication's right operand, with rational
coefficients.  It is stored as nine integer numerators (``c`` first, then
``q0..q7``) over one positive denominator, in lowest terms: the gcd of the
numerators and the denominator is 1.  Equal forms therefore have equal
fields, so comparison and hashing are tuple operations and the arithmetic is
integer arithmetic; ``.const`` and ``.q`` give the coefficients back as
``fractions.Fraction``.  Every stage matrix of the fast kernel has LinForm
entries, so composing stages symbolically stays exact and a claimed
factorization can be checked by literal matrix equality.

Forms are degree-at-most-one by construction: multiplying two non-constant
forms raises :class:`DegreeError`.  That restriction is the structural
guarantee that all data-dependent multiplications live in a single
quasi-diagonal stage.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub
from typing import Iterable, Sequence

NVARS = 8

_ZEROQ = (0,) * NVARS


class DegreeError(ArithmeticError):
    """A non-bilinear product: of two non-constant linear forms, or in a
    program that ``program.Program.validate`` refuses."""


def _exact(v):
    """``v`` itself if it is an int or a Fraction, else ``Fraction(v)``."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


class LinForm:
    """Affine form ``const + sum(q[i] * b_i)`` with rational coefficients.

    ``numerators`` holds the nine integer numerators (constant first) and
    ``denominator`` their common positive denominator, in lowest terms.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, const=0, q: Sequence = _ZEROQ):
        if len(q) != NVARS:
            raise ValueError(f"expected {NVARS} coefficients, got {len(q)}")
        vals = (const, *q)
        if all(type(v) is int for v in vals):
            self._n, self._d = vals, 1
            return
        fr = [v if isinstance(v, Fraction) else Fraction(v) for v in vals]
        d = lcm(*(f.denominator for f in fr))
        # each coefficient in lowest terms over the lcm leaves gcd 1
        self._n = tuple(f.numerator * (d // f.denominator) for f in fr)
        self._d = d

    # ---- fields ----

    @property
    def numerators(self) -> tuple:
        return self._n

    @property
    def denominator(self) -> int:
        return self._d

    @property
    def const(self) -> Fraction:
        return Fraction(self._n[0], self._d)

    @property
    def q(self) -> tuple:
        d = self._d
        return tuple(Fraction(n, d) for n in self._n[1:])

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "LinForm":
        return _LF_ZERO

    @classmethod
    def var(cls, i: int, scale=1) -> "LinForm":
        """The form ``scale * b_i``: ``combo([(i, scale)])``, which refuses
        an ``i`` outside 0..7 with ``ValueError``."""
        return cls.combo([(i, scale)])

    @classmethod
    def combo(cls, terms: Iterable[tuple[int, object]], const=0) -> "LinForm":
        """Build from (index, coefficient) pairs; repeated indices accumulate.
        An index outside 0..7 raises ``ValueError``."""
        q = list(_ZEROQ)
        for i, c in terms:
            if not 0 <= i < NVARS:
                raise ValueError(f"lane index out of range: {i}")
            q[i] += _exact(c)
        return cls(const, q)

    # ---- predicates ----

    @property
    def is_constant(self) -> bool:
        return not any(self._n[1:])

    @property
    def is_zero(self) -> bool:
        return not any(self._n)

    # ---- arithmetic ----

    def __add__(self, other):
        if not isinstance(other, LinForm):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _combine(add, self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, LinForm):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _combine(sub, self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(sub, other, self)

    def __neg__(self):
        return _form(tuple(map(neg, self._n)), self._d)

    def __mul__(self, other):
        if isinstance(other, LinForm):
            if any(other._n[1:]):
                if any(self._n[1:]):
                    raise DegreeError(
                        f"product of non-constant forms: ({self}) * ({other})")
                self, other = other, self
            p, r = other._n[0], other._d
        elif isinstance(other, (int, Fraction)):
            p, r = other.numerator, other.denominator
        else:
            return NotImplemented
        if not p:
            return _LF_ZERO
        if r == 1:
            if p == 1:
                return self
            if p == -1:
                return -self
        return _reduced(tuple(p * n for n in self._n), self._d * r)

    __rmul__ = __mul__

    # ---- evaluation / comparison ----

    def evaluate(self, b: Sequence):
        """Value of the form at concrete coefficients ``b``; a ``b`` of
        other than 8 values raises ``ValueError``."""
        if len(b) != NVARS:
            raise ValueError(f"b: expected {NVARS} lanes, got {len(b)}")
        const = self.const
        acc = const if const else 0
        for c, v in zip(self.q, b):
            if c:
                acc = acc + c * v
        return acc

    def __eq__(self, other):
        if not isinstance(other, LinForm):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        # a constant form equals its constant, so it must hash as one
        if self.is_constant:
            c = self._n[0]
            return hash(c) if self._d == 1 else hash(Fraction(c, self._d))
        return hash((self._n, self._d))

    def __repr__(self):
        return f"LinForm({self})"

    def __str__(self):
        const, q = self.const, self.q
        parts = []
        if const != 0 or self.is_constant:
            parts.append(str(const))
        for i, c in enumerate(q):
            if c == 0:
                continue
            if c == 1:
                parts.append(f"+ b{i}" if parts else f"b{i}")
            elif c == -1:
                parts.append(f"- b{i}" if parts else f"-b{i}")
            elif parts:
                sign = "+" if c > 0 else "-"
                parts.append(f"{sign} {abs(c)}*b{i}")
            else:
                parts.append(f"{c}*b{i}")
        return " ".join(parts)


_new = object.__new__


def _form(n: tuple, d: int) -> LinForm:
    """The form with numerators ``n`` over ``d``, already in lowest terms."""
    f = _new(LinForm)
    f._n, f._d = n, d
    return f


def _reduced(n: tuple, d: int) -> LinForm:
    """The form ``n / d`` for a positive ``d``, brought to lowest terms."""
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            n, d = tuple([v // g for v in n]), d // g
    return _form(n, d)


def _combine(op, f: LinForm, g: LinForm) -> LinForm:
    """``op(f, g)`` for ``op`` ``add`` or ``sub``."""
    d = f._d
    if d == g._d:
        return _reduced(tuple(map(op, f._n, g._n)), d)
    k = gcd(d, g._d)
    mf, mg = g._d // k, d // k
    return _reduced(tuple(op(a * mf, b * mg) for a, b in zip(f._n, g._n)),
                    d * mf)


_LF_ZERO = _form((0, *_ZEROQ), 1)
# shared constant forms: every stage matrix is mostly 0 and +-1
_SMALL = {0: _LF_ZERO, 1: _form((1, *_ZEROQ), 1), -1: _form((-1, *_ZEROQ), 1)}


def _coerce(v):
    """``v`` as a form: itself, or the constant form of an int or Fraction."""
    if type(v) is int:
        f = _SMALL.get(v)
        return f if f is not None else _form((v, *_ZEROQ), 1)
    if isinstance(v, LinForm):
        return v
    if isinstance(v, (int, Fraction)):
        return _form((v.numerator, *_ZEROQ), v.denominator)
    return NotImplemented


class SymMatrix:
    """Dense matrix of LinForm entries, with exact product and equality."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = tuple(tuple(map(_entry, row)) for row in entries)
        if not grid:
            raise ValueError("empty matrix")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows")
        _fill(self, grid)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        one = _SMALL[1]
        return cls([[one if i == j else _LF_ZERO for j in range(n)]
                    for i in range(n)])

    def entry(self, i: int, j: int) -> LinForm:
        return self.entries[i][j]

    def __matmul__(self, other: "SymMatrix") -> "SymMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        zero, brows, cols = _LF_ZERO, other.entries, range(other.cols)
        out = []
        for arow in self.entries:
            # stage matrices are sparse: skip the shared zero, and keep the
            # integer scale of each constant entry (None for the others)
            terms = [(a, None if any(a._n[1:]) else a._n[0], brows[k])
                     for k, a in enumerate(arow) if a is not zero]
            row = []
            for j in cols:
                acc = None
                for a, s, brow in terms:
                    b = brow[j]
                    if b is zero:
                        continue
                    if s is None:
                        if any(b._n[1:]):
                            raise DegreeError(f"product of non-constant "
                                              f"forms: ({a}) * ({b})")
                        t, n = b._n[0], a._n
                    else:
                        t, n = s, b._n
                    d = a._d * b._d
                    if acc is None:
                        acc, den, last = (n if t == 1 else
                                          [t * v for v in n]), d, b
                    elif d == den:
                        acc = (list(map(add, acc, n)) if t == 1 else
                               list(map(sub, acc, n)) if t == -1 else
                               [u + t * v for u, v in zip(acc, n)])
                    else:
                        k = gcd(den, d)
                        ma, mt = d // k, t * (den // k)
                        acc = [u * ma + mt * v for u, v in zip(acc, n)]
                        den *= ma
                if acc is None or not any(acc):
                    row.append(zero)
                elif acc is last._n and den == last._d:
                    row.append(last)  # one term times 1: the entry itself
                else:
                    row.append(_reduced(tuple(acc), den))
            out.append(tuple(row))
        return _matrix(tuple(out))

    def evaluate(self, b: Sequence) -> list:
        """Concrete rational matrix at right-operand coefficients ``b``,
        checked as :meth:`LinForm.evaluate` checks it."""
        return [[e.evaluate(b) for e in row] for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SymMatrix({self.rows}x{self.cols})"


def _fill(m: SymMatrix, grid: tuple) -> None:
    object.__setattr__(m, "rows", len(grid))
    object.__setattr__(m, "cols", len(grid[0]))
    object.__setattr__(m, "entries", grid)


def _matrix(grid: tuple) -> SymMatrix:
    """A SymMatrix over a rectangular grid of LinForms, taken as is."""
    m = _new(SymMatrix)
    _fill(m, grid)
    return m


def _entry(v) -> LinForm:
    e = _coerce(v)
    if e is NotImplemented:
        raise TypeError(f"cannot use {type(v).__name__} as a matrix entry")
    return e
