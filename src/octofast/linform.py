"""Exact linear forms in the right operand, and dense symbolic matrices.

A :class:`LinForm` is an affine expression ``c + q0*b0 + ... + q7*b7`` over the
eight coefficients of the multiplication's right operand, with
``fractions.Fraction`` coefficients throughout.  Every stage matrix of the fast
kernel has LinForm entries, so composing stages symbolically stays exact and a
claimed factorization can be checked by literal matrix equality.

Forms are degree-at-most-one by construction: multiplying two non-constant
forms raises :class:`DegreeError`.  That restriction is the structural
guarantee that all data-dependent multiplications live in a single
quasi-diagonal stage.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

NVARS = 8

_ZEROQ = (Fraction(0),) * NVARS


class DegreeError(ArithmeticError):
    """A non-bilinear product: of two non-constant linear forms, or a lowered
    ``mul`` without one x-side and one b-side operand."""


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    return Fraction(v)


class LinForm:
    """Affine form ``const + sum(q[i] * b_i)`` with rational coefficients."""

    __slots__ = ("const", "q")

    def __init__(self, const=0, q: Sequence = _ZEROQ):
        if len(q) != NVARS:
            raise ValueError(f"expected {NVARS} coefficients, got {len(q)}")
        object.__setattr__(self, "const", _frac(const))
        object.__setattr__(self, "q", tuple(_frac(c) for c in q))

    def __setattr__(self, name, value):
        raise AttributeError("LinForm is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "LinForm":
        return _LF_ZERO

    @classmethod
    def constant(cls, v) -> "LinForm":
        return cls(v)

    @classmethod
    def var(cls, i: int, scale=1) -> "LinForm":
        """The form ``scale * b_i``."""
        q = [Fraction(0)] * NVARS
        q[i] = _frac(scale)
        return cls(0, q)

    @classmethod
    def combo(cls, terms: Iterable[tuple[int, object]], const=0) -> "LinForm":
        """Build from (index, coefficient) pairs; repeated indices accumulate."""
        q = [Fraction(0)] * NVARS
        for i, c in terms:
            q[i] += _frac(c)
        return cls(const, q)

    # ---- predicates ----

    @property
    def is_constant(self) -> bool:
        return all(c == 0 for c in self.q)

    @property
    def is_zero(self) -> bool:
        return self.const == 0 and self.is_constant

    def nonzero_count(self) -> int:
        n = sum(1 for c in self.q if c != 0)
        return n + (1 if self.const != 0 else 0)

    # ---- arithmetic ----

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LinForm(self.const + other.const,
                       tuple(a + b for a, b in zip(self.q, other.q)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LinForm(self.const - other.const,
                       tuple(a - b for a, b in zip(self.q, other.q)))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return LinForm(-self.const, tuple(-c for c in self.q))

    def __mul__(self, other):
        if isinstance(other, LinForm):
            if not other.is_constant:
                if not self.is_constant:
                    raise DegreeError(
                        f"product of non-constant forms: ({self}) * ({other})")
                self, other = other, self
            k = other.const
            return LinForm(self.const * k, tuple(c * k for c in self.q))
        if isinstance(other, (int, Fraction)):
            if not other:
                return _LF_ZERO
            return LinForm(self.const * other, tuple(c * other for c in self.q))
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, k) -> "LinForm":
        return self * _frac(k)

    # ---- evaluation / comparison ----

    def evaluate(self, b: Sequence):
        """Value of the form at concrete coefficients ``b`` (length 8)."""
        acc = self.const if self.const else 0
        for c, v in zip(self.q, b):
            if c:
                acc = acc + c * v
        return acc

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.const == other.const and self.q == other.q

    def __hash__(self):
        # a constant form equals its constant, so it must hash as one
        if self.is_constant:
            return hash(self.const)
        return hash((self.const, self.q))

    def __repr__(self):
        return f"LinForm({self})"

    def __str__(self):
        parts = []
        if self.const != 0 or self.is_constant:
            parts.append(str(self.const))
        for i, c in enumerate(self.q):
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


def _coerce(v):
    if isinstance(v, LinForm):
        return v
    if isinstance(v, (int, Fraction)):
        return LinForm(v) if v else _LF_ZERO
    return NotImplemented


_LF_ZERO = LinForm(0)


class SymMatrix:
    """Dense matrix of LinForm entries, with exact product and equality."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = tuple(tuple(_entry(v) for v in row) for row in entries)
        if not grid:
            raise ValueError("empty matrix")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        one, zero = LinForm.constant(1), LinForm.zero()
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)])

    def entry(self, i: int, j: int) -> LinForm:
        return self.entries[i][j]

    def __matmul__(self, other: "SymMatrix") -> "SymMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        zero = LinForm.zero()
        out = [[zero] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            arow = self.entries[i]
            orow = out[i]
            for k in range(self.cols):
                a = arow[k]
                if a.is_zero:
                    continue  # skip: stage matrices are sparse
                for j, bkj in enumerate(other.entries[k]):
                    if not bkj.is_zero:
                        orow[j] = orow[j] + a * bkj
        return SymMatrix(out)

    def evaluate(self, b: Sequence) -> list:
        """Concrete rational matrix at right-operand coefficients ``b``."""
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


def _entry(v) -> LinForm:
    e = _coerce(v)
    if e is NotImplemented:
        raise TypeError(f"cannot use {type(v).__name__} as a matrix entry")
    return e
