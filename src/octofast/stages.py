"""Stage vocabulary for linear signal-flow pipelines.

A pipeline is a list of stages applied left to right to a vector of scalars.
Every stage is linear in its input; the only data-dependent entries live in
:class:`QuasiDiagonal`, whose cells reference named precomputed values.

A stage has one meaning, its ``apply``, and a chain of stages one walk,
:func:`run`.  The pipeline runs it on concrete vectors (exact, float, or
instrumented scalars) and on the slot scalars the lowering uses.  The proof
and the correction solver read the lowered program that walk records
(:mod:`octofast.verify`), so the matrix certified is that of the code that
runs.

Every constant a stage or recipe multiplies by is ``±2^k``, a free shift
under the counting rules.  That rule lives here alone: :func:`pow2_exponent`
gives ``k`` for such a constant and refuses any other; :func:`pow2` gives back
the canonical constant, which lowering, compiled code and counting all use.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Mapping, Optional, Sequence

from .linform import SymMatrix


def pow2_exponent(f) -> int:
    """``k`` for a constant ``f = ±2^k``; ``ValueError`` for any other."""
    try:
        q = Fraction(f)  # ValueError for a nan
    except OverflowError:  # an infinity, no power of two either
        q = Fraction(0)
    n, d = abs(q.numerator), q.denominator
    if n == 0 or n & (n - 1) or d & (d - 1):
        raise ValueError(f"constant factor {f} is not a signed power of two")
    return n.bit_length() - d.bit_length()


def pow2(k: int, sign: int = 1):
    """The canonical constant ``sign * 2^k``: an ``int`` when ``k >= 0``,
    else a ``Fraction``."""
    return sign << k if k >= 0 else Fraction(sign, 1 << -k)


def canonical_pow2(f):
    """``f = ±2^k`` as :func:`pow2` gives it; ``ValueError`` for any other."""
    return pow2(pow2_exponent(f), -1 if f < 0 else 1)


def zero_like(v):
    """A zero of the same scalar kind as ``v`` (wrapper-aware)."""
    mk = getattr(v, "zero", None)
    if mk is not None:
        return mk()
    return type(v)(0)


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, made on first read and
    then kept on the class, so ``dataclasses.replace``, ``fields``,
    ``asdict`` and ``is_dataclass`` work on it without octofast importing
    ``dataclasses``.  Read through the class or an instance."""

    def __get__(self, obj, cls):
        from dataclasses import make_dataclass
        fields = make_dataclass(cls.__name__, cls._fields).__dataclass_fields__
        type.__setattr__(cls, "__dataclass_fields__", fields)
        return fields


def _store(obj, **attrs) -> None:
    """Set ``attrs`` on a frozen ``obj`` past its ``__setattr__``, with
    ``object.__setattr__``.  The one writer of a record's fields and of a
    :class:`~octofast.kernel.Pipeline`'s attributes.  Not through
    ``vars(obj)``: on CPython 3.11 and 3.12 that read materialises the
    instance's ``__dict__``, and each later attribute read of it is slower
    (``Pipeline._program`` and ``Program._kernel`` on every product)."""
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)


class _Record:
    """Base of the package's record classes, which a frozen ``@dataclass``
    would generate code for at import.

    A subclass's ``__init__`` names its fields: its parameters after
    ``self``, in order (a subclass without one keeps its parent's).  It
    checks them and sets them with one :func:`_store`, as a frozen
    dataclass's sets them past its ``__setattr__``, so Python refuses a bad
    call with its own ``TypeError``.  The base gives the dataclass
    ``repr``, equality with a record of the same class and equal fields,
    and a hash of the fields.
    Every record is frozen, and a field given as a sequence is kept as a
    tuple (``Sum`` rows and ``QuasiDiagonal`` cells as tuples of tuples), so
    a record built from lists equals and hashes as one built from tuples.
    Fields live in the instance ``__dict__``, and so may an attribute
    outside them that a subclass sets with :func:`_store`
    (``Program._kernel``); it takes no part in equality, hash or ``repr``.
    A class that sets ``__dataclass_fields__ = _DataclassFields()`` passes
    for a dataclass, and so does each subclass of it, with its own fields.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        # the field values; not a method, so called as self._get(self)
        cls._get = attrgetter(*cls._fields)
        if any("__dataclass_fields__" in vars(b) for b in cls.__mro__[1:]):
            cls.__dataclass_fields__ = _DataclassFields()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == other._get(other)

    def __hash__(self):
        return hash(self._get(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"


def run(chain: Sequence, vec: Sequence,
        values: Optional[Mapping] = None) -> list:
    """Each stage of ``chain`` applied in turn to ``vec``, with ``values``
    in any core; widths are checked once, when a pipeline is built."""
    vec = list(vec)
    for st in chain:
        vec = st.apply(vec, values)
    return vec


class Stage:
    """Base of every stage: a linear ``apply`` from ``in_dim`` lanes to
    ``out_dim`` lanes, as many unless a stage says otherwise."""

    @property
    def out_dim(self):
        return self.in_dim

    def matrix(self, forms: Optional[Mapping] = None) -> SymMatrix:
        """The stage's matrix: column ``j`` is its ``apply`` on the ``j``-th
        unit vector, with quasi-diagonal values read from ``forms`` (the
        matrix only because ``apply`` is linear; a nonlinear one is not
        detected).

        Kept because the frozen benchmark (``perfbench/harness.py``) and the
        tests call it; the proof reads the lowered program instead.
        """
        n = self.in_dim
        return SymMatrix(list(zip(*(
            self.apply([int(i == j) for i in range(n)], forms)
            for j in range(n)))))


# SignScale and Sum pass for dataclasses: the benchmark makes its sign
# mutants of them with dataclasses.replace (perfbench/harness.py::_sign_flips)
class SignScale(Stage, _Record):
    """Diagonal stage; every factor is ±2^k, so no multiplications count.
    Factors are stored canonical (:func:`pow2`): int lanes stay int."""

    __dataclass_fields__ = _DataclassFields()

    def __init__(self, factors: tuple, label: str = ""):
        _store(self, factors=tuple(map(canonical_pow2, factors)), label=label)

    @property
    def in_dim(self):
        return len(self.factors)

    def apply(self, vec, pre=None):
        return [v * f for v, f in zip(vec, self.factors)]


class Butterfly(Stage, _Record):
    """Sum/difference pairs: lanes (s+i, s+half+i) become (a+b, a-b).

    Covers blocks starting at each index in ``starts``; lanes outside any
    block pass through unchanged.
    """

    def __init__(self, half: int, starts: tuple, dim: int, label: str = ""):
        starts = tuple(starts)
        for s in starts:
            if s < 0 or s + 2 * half > dim:
                raise ValueError(f"block at {s} exceeds dimension {dim}")
        _store(self, half=half, starts=starts, dim=dim, label=label)

    @property
    def in_dim(self):
        return self.dim

    def apply(self, vec, pre=None):
        out = list(vec)
        for s in self.starts:
            for i in range(self.half):
                a = vec[s + i]
                b = vec[s + self.half + i]
                out[s + i] = a + b
                out[s + self.half + i] = a - b
        return out


class FanOut(Stage, _Record):
    """out[i] = in[src[i]] — pure reindexing, no arithmetic: a permutation,
    a duplication, or a widening of the vector."""

    def __init__(self, src: tuple, in_dim: int, label: str = ""):
        src = tuple(src)
        for j in src:
            if not 0 <= j < in_dim:
                raise ValueError(f"source lane {j} out of range")
        _store(self, src=src, in_dim=in_dim, label=label)

    @property
    def out_dim(self):
        return len(self.src)

    def apply(self, vec, pre=None):
        return [vec[j] for j in self.src]


class Sum(Stage, _Record):
    """Signed lane sums: each output row is ``sum(sign * in[lane])``."""

    __dataclass_fields__ = _DataclassFields()

    def __init__(self, rows: tuple, in_dim: int, label: str = ""):
        # rows: of tuples of (lane, sign); every row non-empty
        rows = tuple(tuple(map(tuple, row)) for row in rows)
        for row in rows:
            if not row:
                raise ValueError("empty sum row")
            for lane, sign in row:
                if not 0 <= lane < in_dim:
                    raise ValueError(f"lane {lane} out of range")
                if sign not in (1, -1):
                    raise ValueError(f"sign must be +-1, got {sign}")
        _store(self, rows=rows, in_dim=in_dim, label=label)

    @property
    def out_dim(self):
        return len(self.rows)

    def apply(self, vec, pre=None):
        out = []
        for row in self.rows:
            lane, sign = row[0]
            acc = vec[lane] if sign > 0 else -vec[lane]
            for lane, sign in row[1:]:
                if sign > 0:
                    acc = acc + vec[lane]
                else:
                    acc = acc - vec[lane]
            out.append(acc)
        return out


class QuasiDiagonal(Stage, _Record):
    """Square stage whose only nonzero entries are named precomputed values.

    This is the one place data-dependent multiplications happen: applying the
    stage multiplies an input lane by each referenced value, x side on the
    left as in the schoolbook product, so the identity also holds for
    coefficients that commute only with the constants ``±2^k`` (integer
    matrices, say).  ``cells`` is a row-major tuple of ``(row, col, name)``;
    rows with no cells hold a structural zero of the input's scalar kind.
    """

    def __init__(self, dim: int, cells: tuple, label: str = ""):
        cells = tuple(sorted(map(tuple, cells)))  # of (row, col, name)
        seen = set()
        for r, c, name in cells:
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"cell ({r},{c}) out of range")
            if (r, c) in seen:
                raise ValueError(f"duplicate cell ({r},{c})")
            seen.add((r, c))
        _store(self, dim=dim, cells=cells, label=label)

    @property
    def in_dim(self):
        return self.dim

    def apply(self, vec, pre: Mapping):
        rows: list = [None] * self.dim
        for r, c, name in self.cells:
            term = vec[c] * pre[name]
            rows[r] = term if rows[r] is None else rows[r] + term
        zero = zero_like(vec[0]) if any(v is None for v in rows) else None
        return [zero if v is None else v for v in rows]

    def matrix(self, forms: Optional[Mapping] = None) -> SymMatrix:
        if forms is None:
            raise ValueError("quasi-diagonal stage needs entry forms")
        return super().matrix(forms)


def apply_stage(stage, vec: Sequence, pre: Optional[Mapping] = None) -> list:
    """Apply one stage to a concrete vector, checking the dimension.  Kept
    because the frozen benchmark (``perfbench/layers.py``) imports it."""
    if len(vec) != stage.in_dim:
        raise ValueError(
            f"stage {stage.label or type(stage).__name__}: "
            f"expected {stage.in_dim} lanes, got {len(vec)}")
    return stage.apply(vec, pre)
