"""Symbolic certification of pipelines against the schoolbook matrix.

The one claim a certificate makes is "this pipeline computes the product of
hyperbolic octonions", and it is discharged by algebra, not sampling.  The
pipeline's own ``precompute`` runs on the symbolic operand
``b_i = LinForm.var(i)``; every main-chain stage's matrix is read off its own
``apply`` (:meth:`~octofast.stages.Stage.matrix`) with those values in the
core; the matrices are composed and compared entry by entry with the 8x8
left-multiplication matrix.  A clean certificate is a theorem about all
inputs at once, about the code that runs.

The entry forms take no part in the proof.  They are the targets of
:func:`solve_corrections`, which runs the residual machinery in reverse:
chosen quasi-diagonal entries become unknowns, and the main chain's
dependence on each of them, read off ``Pipeline.apply``, gives the linear
system against the product that reconstructs damaged or unknown entry forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import schoolbook_matrix
from .linform import LinForm, SymMatrix
from .stages import QuasiDiagonal, matrix_of


@dataclass(frozen=True)
class Residual:
    """One differing entry ``(row, col)`` of the 8x8 product matrix: the
    schoolbook form ``expected`` and the composed form ``got``."""
    row: int
    col: int
    expected: LinForm
    got: LinForm


@dataclass(frozen=True)
class ResidualReport:
    """Entrywise differences between a composed pipeline and the product."""
    residuals: tuple

    @property
    def ok(self) -> bool:
        return not self.residuals

    def rows(self) -> set:
        return {r.row for r in self.residuals}

    def to_text(self) -> str:
        if self.ok:
            return "symbolic residuals: none (all 64 entries match)\n"
        lines = [f"symbolic residuals: {len(self.residuals)} entries differ",
                 " row col expected | got"]
        for r in self.residuals:
            lines.append(f" {r.row:3d} {r.col:3d} {r.expected} | {r.got}")
        return "\n".join(lines) + "\n"

    def __str__(self):
        return self.to_text()


class InconsistentSystemError(ValueError):
    """The correction system has no solution: the fixed stages are wrong."""


def compose_symbolic(p) -> SymMatrix:
    """Exact product of the main-chain stage matrices of ``p`` (8x8 forms),
    with the values ``p.precompute`` yields on a symbolic ``b`` in the core.

    Raises :class:`~octofast.linform.DegreeError` if two data-dependent
    stages would multiply — a structural violation of the bilinear shape.
    """
    pre = p.precompute([LinForm.var(i) for i in range(8)])
    acc = SymMatrix.identity(8)
    for st in p.stages:
        acc = st.matrix(pre) @ acc
    return acc


def certify(p) -> ResidualReport:
    """Prove that ``p`` computes the hyperbolic-octonion product for every
    input.

    :func:`compose_symbolic` must equal the schoolbook matrix, and no other
    target can be given; each differing entry is a :class:`Residual`.  The
    lowering of ``p`` is built first and raises if it is not bilinear (see
    :mod:`octofast.program`), which catches a nonlinear ``apply`` that unit
    vectors cannot reveal; the lowering it gates is the one ``mul_fast``
    runs and ``flatten`` emits.  On success ``p.certified`` is set: it
    vouches for this one claim and no other.
    """
    target = schoolbook_matrix()
    p._program  # lowered first: it refuses what composition cannot see
    got = compose_symbolic(p)
    residuals = []
    for i in range(8):
        for j in range(8):
            e, g = target.entry(i, j), got.entry(i, j)
            if e != g:
                residuals.append(Residual(i, j, e, g))
    report = ResidualReport(tuple(residuals))
    if report.ok:
        p.certified = True
    return report


@dataclass(frozen=True)
class CorrectionSolve:
    """Solved entry forms; ``free`` lists under-determined names (set to 0)."""
    assignment: dict
    free: tuple


def solve_corrections(p, unknown: Optional[Iterable[str]] = None) -> CorrectionSolve:
    """Solve for quasi-diagonal entry forms from the main chain that runs.

    Entries named in ``unknown`` (default: every core entry with a
    correction recipe) are treated as unknown linear forms.  The chain's
    matrix is affine in the core values, so :func:`~octofast.stages.matrix_of`
    reads it off ``p.apply`` with the known entry forms in the core (unknowns
    at 0), and once per unknown set to 1 alone: its coefficients.  Matched
    against the schoolbook matrix, these give a linear system.

    Inconsistency raises :class:`InconsistentSystemError`; under-determined
    unknowns resolve to the zero form (the fewest-nonzero-coefficients
    choice) and are reported in ``free``.  Unknowns are processed in
    sorted-name order, so the result is deterministic.  An unknown the core
    does not read, and a known with no entry form, raise ``ValueError``.
    """
    cores = [st for st in p.stages if isinstance(st, QuasiDiagonal)]
    if len(cores) != 1:
        # with two cores the chain multiplies core values: not linear
        raise ValueError(
            f"expected exactly one quasi-diagonal stage, found {len(cores)}")
    read = {name for _, _, name in cores[0].cells}

    if unknown is None:
        unknown = [name for name in read if name in p.recipes]
    names = sorted(set(unknown))
    stray = [n for n in names if n not in read]
    if stray:
        raise ValueError(f"unknowns the core does not read: {', '.join(stray)}")
    formless = sorted(n for n in read - set(names) if n not in p.entry_forms)
    if formless:
        raise ValueError(f"knowns with no entry form: {', '.join(formless)}")

    def walk(values):
        return matrix_of(lambda x: p.apply(x, values), 8)

    known = walk({n: 0 if n in names else p.entry_forms[n] for n in read})
    coeffs = [walk({n: int(n == u) for n in read}) for u in names]

    # One equation per output entry: sum(coeff * unknown) = target - known.
    target = schoolbook_matrix()
    equations = [([c.entry(i, j).const for c in coeffs],
                  target.entry(i, j) - known.entry(i, j))
                 for i in range(8) for j in range(8)]

    assignment, free = _solve_linear(names, equations)
    return CorrectionSolve(assignment=assignment, free=tuple(free))


def _solve_linear(names, equations):
    """Gauss-Jordan over the rationals with LinForm right-hand sides."""
    n = len(names)
    rows = [(list(c), rhs) for c, rhs in equations]
    pivot_of_col = {}
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][0][col] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pc, prhs = rows[rank]
        inv = Fraction(1) / pc[col]
        pc = [v * inv for v in pc]
        prhs = prhs * inv
        rows[rank] = (pc, prhs)
        for r in range(len(rows)):
            if r == rank:
                continue
            f = rows[r][0][col]
            if f != 0:
                rc, rrhs = rows[r]
                rows[r] = ([a - f * b for a, b in zip(rc, pc)],
                           rrhs - f * prhs)
        pivot_of_col[col] = rank
        rank += 1

    for coeffs, rhs in rows[rank:]:
        if not rhs.is_zero:
            raise InconsistentSystemError(
                f"no entry assignment satisfies the fixed stages "
                f"(residual {rhs} over zero coefficients)")

    free = [names[c] for c in range(n) if c not in pivot_of_col]
    assignment = {}
    for col, name in enumerate(names):
        if col in pivot_of_col:
            assignment[name] = rows[pivot_of_col[col]][1]
        else:
            assignment[name] = LinForm.zero()
    return assignment, free
