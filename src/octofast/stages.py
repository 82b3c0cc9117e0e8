"""Stage vocabulary for linear signal-flow pipelines.

A pipeline is a list of stages applied left to right to a vector of scalars.
Every stage is linear in its input; the only data-dependent entries live in
:class:`QuasiDiagonal`, whose cells reference named precomputed values.

A stage has one meaning, its ``apply``: it runs on concrete vectors (exact,
float, or instrumented scalars) and on the slot scalars the lowering uses.
Its :class:`~octofast.linform.SymMatrix`, which the proof composes, is read
off that same ``apply`` (:meth:`Stage.matrix`, through :func:`matrix_of`), so
the matrices certified are those of the code that runs.

Scale factors are restricted to ``±2^k`` so that every constant multiplication
is a free shift under the counting rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .linform import SymMatrix


def _is_pow2_scale(f: Fraction) -> bool:
    n, d = abs(f.numerator), f.denominator
    return n > 0 and n & (n - 1) == 0 and d & (d - 1) == 0


def scale(v, f):
    """``v * f`` for a ±2^k factor ``f``; ``v`` or ``-v`` when ``f`` is ±1."""
    if f == 1:
        return v
    if f == -1:
        return -v
    return v * f


def zero_like(v):
    """A zero of the same scalar kind as ``v`` (wrapper-aware)."""
    mk = getattr(v, "zero", None)
    if mk is not None:
        return mk()
    return type(v)(0)


def matrix_of(apply: Callable[[list], Sequence], n: int) -> SymMatrix:
    """The matrix of ``apply`` on ``n`` lanes: column ``j`` is ``apply`` of
    the ``j``-th unit vector.

    This is the map's matrix only because ``apply`` is linear; a nonlinear
    ``apply`` is not detected.
    """
    cols = [apply([int(i == j) for i in range(n)]) for j in range(n)]
    return SymMatrix(list(zip(*cols)))


class Stage:
    """Base of every stage: a linear ``apply`` from ``in_dim`` lanes to
    ``out_dim`` lanes."""

    def matrix(self, forms: Optional[Mapping] = None) -> SymMatrix:
        """The stage's matrix, read off its ``apply`` by :func:`matrix_of`,
        with quasi-diagonal values read from ``forms``."""
        return matrix_of(lambda vec: self.apply(vec, forms), self.in_dim)


@dataclass(frozen=True)
class Permute(Stage):
    """out[i] = in[perm[i]] — pure reindexing, no arithmetic."""
    perm: tuple
    label: str = ""

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"not a permutation: {self.perm}")

    @property
    def in_dim(self):
        return len(self.perm)

    @property
    def out_dim(self):
        return len(self.perm)

    def apply(self, vec, pre=None):
        return [vec[i] for i in self.perm]


@dataclass(frozen=True)
class SignScale(Stage):
    """Diagonal stage; every factor is ±2^k, so no multiplications count."""
    factors: tuple
    label: str = ""

    def __post_init__(self):
        fixed = tuple(Fraction(f) for f in self.factors)
        for f in fixed:
            if not _is_pow2_scale(f):
                raise ValueError(f"factor {f} is not a signed power of two")
        object.__setattr__(self, "factors", fixed)

    @property
    def in_dim(self):
        return len(self.factors)

    @property
    def out_dim(self):
        return len(self.factors)

    def apply(self, vec, pre=None):
        return [scale(v, f) for v, f in zip(vec, self.factors)]


@dataclass(frozen=True)
class Butterfly(Stage):
    """Sum/difference pairs: lanes (s+i, s+half+i) become (a+b, a-b).

    Covers blocks starting at each index in ``starts``; lanes outside any
    block pass through unchanged.
    """
    half: int
    starts: tuple
    dim: int
    label: str = ""

    def __post_init__(self):
        for s in self.starts:
            if s < 0 or s + 2 * self.half > self.dim:
                raise ValueError(f"block at {s} exceeds dimension {self.dim}")

    @property
    def in_dim(self):
        return self.dim

    @property
    def out_dim(self):
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


@dataclass(frozen=True)
class FanOut(Stage):
    """out[i] = in[src[i]] — duplication, possibly widening the vector."""
    src: tuple
    in_dim: int
    label: str = ""

    def __post_init__(self):
        for j in self.src:
            if not 0 <= j < self.in_dim:
                raise ValueError(f"source lane {j} out of range")

    @property
    def out_dim(self):
        return len(self.src)

    def apply(self, vec, pre=None):
        return [vec[j] for j in self.src]


@dataclass(frozen=True)
class Sum(Stage):
    """Signed lane sums: each output row is ``sum(sign * in[lane])``."""
    rows: tuple  # of tuples of (lane, sign); every row non-empty
    in_dim: int
    label: str = ""

    def __post_init__(self):
        for row in self.rows:
            if not row:
                raise ValueError("empty sum row")
            for lane, sign in row:
                if not 0 <= lane < self.in_dim:
                    raise ValueError(f"lane {lane} out of range")
                if sign not in (1, -1):
                    raise ValueError(f"sign must be +-1, got {sign}")

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


@dataclass(frozen=True)
class QuasiDiagonal(Stage):
    """Square stage whose only nonzero entries are named precomputed values.

    This is the one place data-dependent multiplications happen: applying the
    stage multiplies each referenced value by an input lane.  ``cells`` is a
    row-major tuple of ``(row, col, name)``; rows with no cells produce a
    structural zero of the input's scalar kind.
    """
    dim: int
    cells: tuple  # of (row, col, name), row-major
    label: str = ""

    def __post_init__(self):
        seen = set()
        for r, c, name in self.cells:
            if not (0 <= r < self.dim and 0 <= c < self.dim):
                raise ValueError(f"cell ({r},{c}) out of range")
            if (r, c) in seen:
                raise ValueError(f"duplicate cell ({r},{c})")
            seen.add((r, c))
        ordered = tuple(sorted(self.cells))
        object.__setattr__(self, "cells", ordered)

    @property
    def in_dim(self):
        return self.dim

    @property
    def out_dim(self):
        return self.dim

    def apply(self, vec, pre: Mapping):
        rows: list = [None] * self.dim
        for r, c, name in self.cells:
            term = pre[name] * vec[c]
            rows[r] = term if rows[r] is None else rows[r] + term
        zero = zero_like(vec[0])
        return [zero if v is None else v for v in rows]

    def matrix(self, forms: Optional[Mapping] = None) -> SymMatrix:
        if forms is None:
            raise ValueError("quasi-diagonal stage needs entry forms")
        return super().matrix(forms)


def apply_stage(stage, vec: Sequence, pre: Optional[Mapping] = None) -> list:
    """Apply one stage to a concrete vector, checking the dimension."""
    if len(vec) != stage.in_dim:
        raise ValueError(
            f"stage {stage.label or type(stage).__name__}: "
            f"expected {stage.in_dim} lanes, got {len(vec)}")
    return stage.apply(vec, pre)
