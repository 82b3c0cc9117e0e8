"""Symbolic certification of pipelines against the schoolbook matrix.

The claim "this pipeline computes the product" is discharged by algebra, not
sampling: every stage's matrix of exact linear forms is read off the stage's
own ``apply`` (:meth:`~octofast.stages.Stage.matrix`), the same code that is
lowered, compiled and counted; the matrices are composed, and the result is
compared entry-by-entry with the 8x8 left-multiplication matrix.  The
composition reads the quasi-diagonal values from the pipeline's entry forms,
so the precompute that actually produces them is run on symbolic inputs and
held to the same forms.  A clean certificate is a theorem about all inputs at
once.

The residual machinery also runs in reverse: :func:`solve_corrections` treats
chosen quasi-diagonal entries as unknowns and solves the linear system the
surrounding constant stages impose, which is how damaged or unknown entry
forms are reconstructed in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import schoolbook_matrix
from .linform import LinForm, SymMatrix
from .stages import QuasiDiagonal


@dataclass(frozen=True)
class Residual:
    """One differing entry: of the 8x8 product matrix, or, for a wrong
    precomputed value, of the quasi-diagonal cell that consumes it."""
    row: int
    col: int
    expected: LinForm
    got: LinForm


@dataclass(frozen=True)
class ResidualReport:
    """Entrywise differences between a composed pipeline and the target."""
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
    """Exact product of all stage matrices of ``p`` (an 8x8 form matrix).

    Raises :class:`~octofast.linform.DegreeError` if two data-dependent
    stages would multiply — a structural violation of the bilinear shape.
    """
    acc = SymMatrix.identity(8)
    for st in p.stages:
        acc = st.matrix(p.entry_forms) @ acc
    return acc


def certify(p, target: Optional[SymMatrix] = None) -> ResidualReport:
    """Prove that ``p`` computes ``target`` for every input.

    Two checks, both exact: the symbolic composition of the main chain must
    equal the target (default: the schoolbook left-multiplication matrix),
    and ``p.precompute`` run on ``b_i = LinForm.var(i)`` must yield, for
    every quasi-diagonal cell, the entry form the composition assumed.  Each
    stage matrix in the first check is read off that stage's ``apply``, so
    the chain proved is the chain that runs; the second check covers the
    precompute stages, the tap and the correction recipes.  On success the
    pipeline's ``certified`` flag is set, which unlocks flattening to a
    straight-line program.
    """
    if target is None:
        target = schoolbook_matrix()
    got = compose_symbolic(p)
    residuals = []
    for i in range(8):
        for j in range(8):
            e, g = target.entry(i, j), got.entry(i, j)
            if e != g:
                residuals.append(Residual(i, j, e, g))
    pre = p.precompute([LinForm.var(i) for i in range(8)])
    for st in p.stages:
        if isinstance(st, QuasiDiagonal):
            for r, c, name in st.cells:
                if pre[name] != p.entry_forms[name]:
                    residuals.append(
                        Residual(r, c, p.entry_forms[name], pre[name]))
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
    """Solve for quasi-diagonal entry forms from the surrounding stages.

    Entries named in ``unknown`` (default: every entry with a correction
    recipe) are treated as unknown linear forms; the constant stages before
    and after the quasi-diagonal stage fix them via a linear system against
    the schoolbook matrix.  Inconsistency raises
    :class:`InconsistentSystemError`; under-determined unknowns resolve to the
    zero form (the fewest-nonzero-coefficients choice) and are reported in
    ``free``.  Unknowns are processed in sorted-name order, so the result is
    deterministic.
    """
    qd_positions = [i for i, st in enumerate(p.stages)
                    if isinstance(st, QuasiDiagonal)]
    if len(qd_positions) != 1:
        raise ValueError(
            f"expected exactly one quasi-diagonal stage, found {len(qd_positions)}")
    at = qd_positions[0]
    core = p.stages[at]

    if unknown is None:
        unknown = [name for _, _, name in core.cells if name in p.recipes]
    names = sorted(set(unknown))
    index = {n: k for k, n in enumerate(names)}

    pre = SymMatrix.identity(8)
    for st in p.stages[:at]:
        pre = st.matrix(None) @ pre          # 24x8, constant entries
    post = SymMatrix.identity(core.dim)
    for st in p.stages[at + 1:]:
        post = st.matrix(None) @ post        # 8x24, constant entries

    def const(m, i, j) -> Fraction:
        e = m.entry(i, j)
        if not e.is_constant:
            raise ValueError("stages around the quasi-diagonal must be constant")
        return e.const

    # One equation per output entry: sum(coeff * unknown) = target - known.
    equations = []
    target = schoolbook_matrix()
    for i in range(8):
        for j in range(8):
            coeffs = [Fraction(0)] * len(names)
            known = LinForm.zero()
            for r, c, name in core.cells:
                w = const(post, i, r) * const(pre, c, j)
                if w == 0:
                    continue
                if name in index:
                    coeffs[index[name]] += w
                else:
                    known = known + w * p.entry_forms[name]
            equations.append((coeffs, target.entry(i, j) - known))

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
