"""Stage vocabulary for linear signal-flow pipelines.

A pipeline is a list of stages applied left to right to a vector of scalars.
Every stage is linear in its input; the only data-dependent entries live in
:class:`QuasiDiagonal`, whose cells reference named precomputed values.  Each
stage knows how to

* apply itself to a concrete vector (exact, float, or instrumented scalars),
* render itself as a :class:`~octofast.linform.SymMatrix` for symbolic
  composition.

Scale factors are restricted to ``±2^k`` so that every constant multiplication
is a free shift under the counting rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .linform import LinForm, SymMatrix


def _is_pow2_scale(f: Fraction) -> bool:
    n, d = abs(f.numerator), f.denominator
    return n > 0 and n & (n - 1) == 0 and d & (d - 1) == 0


def zero_like(v):
    """A zero of the same scalar kind as ``v`` (wrapper-aware)."""
    mk = getattr(v, "zero", None)
    if mk is not None:
        return mk()
    return type(v)(0)


@dataclass(frozen=True)
class Permute:
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

    def matrix(self, forms=None) -> SymMatrix:
        n = len(self.perm)
        m = [[0] * n for _ in range(n)]
        for i, j in enumerate(self.perm):
            m[i][j] = 1
        return SymMatrix(m)


@dataclass(frozen=True)
class SignScale:
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
        out = []
        for v, f in zip(vec, self.factors):
            if f == 1:
                out.append(v)
            elif f == -1:
                out.append(-v)
            else:
                out.append(v * f)
        return out

    def matrix(self, forms=None) -> SymMatrix:
        n = len(self.factors)
        return SymMatrix([[self.factors[i] if i == j else 0 for j in range(n)]
                          for i in range(n)])


@dataclass(frozen=True)
class Butterfly:
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

    def matrix(self, forms=None) -> SymMatrix:
        m = [[0] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            m[i][i] = 1
        for s in self.starts:
            for i in range(self.half):
                t, u = s + i, s + self.half + i
                m[t][t], m[t][u] = 1, 1
                m[u][t], m[u][u] = 1, -1
        return SymMatrix(m)


@dataclass(frozen=True)
class FanOut:
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

    def matrix(self, forms=None) -> SymMatrix:
        m = [[0] * self.in_dim for _ in self.src]
        for i, j in enumerate(self.src):
            m[i][j] = 1
        return SymMatrix(m)


@dataclass(frozen=True)
class Sum:
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

    def matrix(self, forms=None) -> SymMatrix:
        m = [[0] * self.in_dim for _ in self.rows]
        for i, row in enumerate(self.rows):
            for lane, sign in row:
                m[i][lane] += sign
        return SymMatrix(m)


@dataclass(frozen=True)
class QuasiDiagonal:
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
        z = LinForm.zero()
        m = [[z] * self.dim for _ in range(self.dim)]
        for r, c, name in self.cells:
            m[r][c] = forms[name]
        return SymMatrix(m)


def apply_stage(stage, vec: Sequence, pre: Optional[Mapping] = None) -> list:
    """Apply one stage to a concrete vector, checking the dimension."""
    if len(vec) != stage.in_dim:
        raise ValueError(
            f"stage {stage.label or type(stage).__name__}: "
            f"expected {stage.in_dim} lanes, got {len(vec)}")
    return stage.apply(vec, pre)
