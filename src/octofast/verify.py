"""Symbolic certification of pipelines against the schoolbook matrix.

The one claim a certificate makes is "this pipeline computes the product of
hyperbolic octonions", and it is discharged by algebra, not sampling.  The
pipeline's own ``precompute`` runs on the symbolic operand
``b_i = LinForm.var(i)``.  The main chain is read as a head, which ends with
its quasi-diagonal core, and a constant tail; each runs once on unit vectors
through the one chain walk, :func:`octofast.stages.columns`, the head with
those values in the core.  Their product ``tail @ head`` (:func:`_compose`)
is compared entry by entry with the 8x8 left-multiplication matrix.  A clean
certificate is a theorem about all inputs at once, about the code that runs.

The entry forms take no part in the proof.  They are the targets of
:func:`solve_corrections`, which runs the residual machinery in reverse:
chosen quasi-diagonal entries become unknowns.  The main chain is
``post · core · pre``, two constant halves around its one core.  Its known
part is composed as the proof composes, with the known entry forms in the
core's own ``apply``; the chain is linear in each unknown, and matching it
against the product gives the linear system that reconstructs damaged or
unknown entry forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import schoolbook_matrix
from .linform import LinForm, SymMatrix
from .stages import QuasiDiagonal, columns


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
    """The 8x8 matrix of the main chain of ``p``, with the values
    ``p.precompute`` yields on a symbolic ``b`` in the core.

    The chain is split just after its last quasi-diagonal stage, or before
    its first stage if it has none (:func:`_split`).  The head runs once on
    the 8 unit vectors through its stages' own ``apply``: plain ints up to
    the core, linear forms from it on.  The tail is constant and runs once,
    in plain ints (``Fraction`` after a ``2^-k`` scale), on the unit vectors
    of the head's output width.  Column ``j`` of each is its image of the
    ``j``-th unit vector, so for linear stages the result is
    ``tail @ head`` (:func:`_compose`): one product of two matrices.

    Raises :class:`~octofast.linform.DegreeError` if two data-dependent
    stages would multiply — a structural violation of the bilinear shape.
    """
    pre = p.precompute([LinForm.var(i) for i in range(8)])
    _, head, tail = _split(p.stages)
    return _compose(head, tail, pre)


def certify(p) -> ResidualReport:
    """Prove that ``p`` computes the hyperbolic-octonion product for every
    input.

    :func:`compose_symbolic`, the main chain's head and constant tail each
    read once off their stages' ``apply`` and multiplied, must equal the
    schoolbook matrix, and no other target can be given; each differing
    entry is a :class:`Residual`.  The lowering of ``p`` is built first and
    raises if it is not bilinear (see :mod:`octofast.program`), which
    catches a nonlinear ``apply`` that unit vectors cannot reveal; the
    lowering it gates is the one ``mul_fast`` runs and ``flatten`` emits.
    On success ``p.certified`` is set: it vouches for this one claim and no
    other.
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
    correction recipe) are treated as unknown linear forms.  The main chain
    is ``post · core · pre`` with constant halves around its one
    quasi-diagonal core, split as :func:`compose_symbolic` splits it
    (:func:`_split`).  Its known part is :func:`_compose` of the two, with
    the known entry forms in the core and each unknown at 0, so it runs
    through the core's own ``apply``.  ``pre``, the stages before the core
    on the 8 unit vectors (ints, or ``Fraction`` where a ``SignScale``
    carries ``2^-k``), and ``post``, the tail's columns, give the
    coefficient of an unknown ``u`` in entry ``(i, j)``:
    ``sum(post[i][r] * pre[c][j])`` over the cells ``(r, c, u)`` that read
    it.  Matched against the schoolbook matrix, these give one linear
    equation per entry.

    Inconsistency raises :class:`InconsistentSystemError`; under-determined
    unknowns resolve to the zero form (the fewest-nonzero-coefficients
    choice) and are reported in ``free``.  Unknowns are processed in
    sorted-name order, so the result is deterministic.  An unknown the core
    does not read, and a known with no entry form, raise ``ValueError``.
    """
    cores, head, post_cols = _split(p.stages)  # core.dim cols of 8
    if len(cores) != 1:
        # with two cores the chain multiplies core values: not linear
        raise ValueError(
            f"expected exactly one quasi-diagonal stage, found {len(cores)}")
    core = head[-1]
    read = {name for _, _, name in core.cells}

    if unknown is None:
        unknown = [name for name in read if name in p.recipes]
    names = sorted(set(unknown))
    stray = [n for n in names if n not in read]
    if stray:
        raise ValueError(f"unknowns the core does not read: {', '.join(stray)}")
    formless = sorted(n for n in read - set(names) if n not in p.entry_forms)
    if formless:
        raise ValueError(f"knowns with no entry form: {', '.join(formless)}")

    col = {n: u for u, n in enumerate(names)}
    known = _compose(head, post_cols, {
        name: 0 if name in col else p.entry_forms[name] for name in read})

    pre = list(zip(*columns(head[:-1], 8)))  # core.dim rows of 8
    coeffs = [[0] * len(names) for _ in range(64)]  # row 8*i + j: entry (i, j)
    for r, c, name in core.cells:
        if name in col:
            u = col[name]
            for i, a in enumerate(post_cols[r]):
                if a:
                    for j, b in enumerate(pre[c]):
                        if b:
                            coeffs[8 * i + j][u] += a * b

    # One equation per output entry: sum(coeff * unknown) = target - known.
    target = schoolbook_matrix()
    rhs = [target.entry(i, j) - known.entry(i, j)
           for i in range(8) for j in range(8)]
    assignment, free = _solve_linear(names, coeffs, rhs)
    return CorrectionSolve(assignment=assignment, free=tuple(free))


def _split(stages) -> tuple:
    """Split the main chain ``stages`` just after its last quasi-diagonal
    stage, or before its first stage if it has none.

    Returns ``(cores, head, tail)``: the indices of the quasi-diagonal
    stages, the stages up to the split, and the columns of the constant
    stages after it on the unit vectors of the split's width.
    """
    cores = [k for k, st in enumerate(stages) if isinstance(st, QuasiDiagonal)]
    k = cores[-1] + 1 if cores else 0
    width = stages[k - 1].out_dim if k else 8
    return cores, stages[:k], columns(stages[k:], width)


def _compose(head, tail: list, values) -> SymMatrix:
    """``tail @ head``: the matrix of the chain ``head`` on 8 lanes, with
    ``values`` in its core, under the constant ``tail`` given by its columns
    (as :func:`_split` gives them)."""
    return (SymMatrix(list(zip(*tail)))
            @ SymMatrix(list(zip(*columns(head, 8, values)))))


def _solve_linear(names, coeffs, rhs):
    """Gauss-Jordan on int or ``Fraction`` coefficient rows with LinForm
    right-hand sides, free of division until the end.

    A pivot ``a`` clears its column from row ``r`` by ``r <- a*r - f*pivot``
    (the integer-preserving step of Bareiss elimination, without Bareiss's
    division by the previous pivot, which the chain's small coefficients do
    not need); each solved right-hand side is scaled once by ``1/a`` for
    its final pivot ``a``.  ``scale`` keeps what each row was multiplied by,
    so a residual is reported as plain subtraction would leave it.
    """
    n = len(names)
    rows = [[list(c), r, 1] for c, r in zip(coeffs, rhs)]
    pivot_of_col = {}
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][0][col]),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pc, prhs, _ = rows[rank]
        a = pc[col]
        for r, row in enumerate(rows):
            f = row[0][col]
            if f and r != rank:
                row[0] = [a * u - f * v for u, v in zip(row[0], pc)]
                row[1] = a * row[1] - f * prhs
                row[2] *= a
        pivot_of_col[col] = rank
        rank += 1

    for _, residual, scale in rows[rank:]:
        if not residual.is_zero:
            raise InconsistentSystemError(
                f"no entry assignment satisfies the fixed stages "
                f"(residual {residual * (1 / Fraction(scale))} over zero "
                f"coefficients)")

    free = [names[c] for c in range(n) if c not in pivot_of_col]
    assignment = {}
    for col, name in enumerate(names):
        if col in pivot_of_col:
            pc, prhs, _ = rows[pivot_of_col[col]]
            assignment[name] = prhs * (1 / Fraction(pc[col]))
        else:
            assignment[name] = LinForm.zero()
    return assignment, free
