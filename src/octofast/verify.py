"""Symbolic certification of pipelines against the schoolbook matrix.

The one claim a certificate makes is "this pipeline computes the product of
hyperbolic octonions", and it is discharged by algebra, not sampling, on the
lowered program ``p._program`` that ``mul_fast`` compiles, ``flatten`` emits
and ``count`` measures.  One walk over its instructions (:func:`_terms`)
reads it in the encode/multiply/decode form of a bilinear algorithm: the
constant output rows ``V``, and for each ``mul`` the x-row ``X[k]`` and
b-form ``B[k]`` it multiplies.  Their product (:func:`compose_symbolic`) is
compared entry by entry with the 8x8 left-multiplication matrix: a theorem
about all inputs at once, about the code that runs.

The entry forms take no part in the proof.  They are the targets of
:func:`solve_corrections`, which reads the same terms in reverse: chosen
core entries become unknowns of a linear system that reconstructs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import add, mul, neg, sub
from typing import Iterable, Optional

from .algebra import schoolbook_matrix
from .linform import DegreeError, LinForm, SymMatrix
from .stages import QuasiDiagonal, pow2


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
    """The 8x8 matrix of forms in ``b`` that the lowered program of ``p``
    computes: ``SymMatrix(V) @ W``, with ``V``, ``X`` and ``B`` read off
    ``p._program`` by :func:`_terms` and ``W`` the 8 unit rows of
    ``x0..x7``, then ``B[k] * X[k]`` for each ``mul`` ``k``.  Lowering
    raises what it refuses: a ``mul`` of core values, as from two cores
    (:class:`~octofast.linform.DegreeError`), or a constant not ``+-2^k``.
    """
    return _decode(*_terms(p._program))


def certify(p) -> ResidualReport:
    """Prove that ``p`` computes the hyperbolic-octonion product for every
    input.

    :func:`compose_symbolic`, read off the lowered program that
    ``mul_fast`` runs and ``flatten`` emits, must equal the schoolbook
    matrix, and no other target can be given; each differing entry is a
    :class:`Residual`.  Once the program is built no stage runs.  On
    success ``p.certified`` is set: it vouches for this one claim alone.
    """
    target = schoolbook_matrix()
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
    """Solve for quasi-diagonal entry forms from the lowered program.

    Entries named in ``unknown`` (default: every core entry with a
    correction recipe) are unknown linear forms.  The one core of the main
    chain makes one ``mul`` per cell, in ``cells`` order, so ``mul`` ``k``
    is cell ``k``; another ``mul`` count raises ``ValueError``.  The known
    part is :func:`compose_symbolic`'s product with each cell's entry form,
    or 0 for an unknown, as ``B[k]``; an unknown's coefficient in entry
    ``(i, j)`` is ``sum(V[i][8 + k] * X[k][j])`` over the cells ``k`` that
    read it.  Matched against the schoolbook matrix, these give one linear
    equation per entry.

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
    cells = cores[0].cells
    read = {name for _, _, name in cells}

    if unknown is None:
        unknown = [name for name in read if name in p.recipes]
    names = sorted(set(unknown))
    stray = [n for n in names if n not in read]
    if stray:
        raise ValueError(f"unknowns the core does not read: {', '.join(stray)}")
    formless = sorted(n for n in read - set(names) if n not in p.entry_forms)
    if formless:
        raise ValueError(f"knowns with no entry form: {', '.join(formless)}")

    V, X, _ = _terms(p._program)
    if len(X) != len(cells):
        raise ValueError(f"the program makes {len(X)} multiplications, "
                         f"the core has {len(cells)} cells")
    col = {n: u for u, n in enumerate(names)}
    known = _decode(V, X, [0 if name in col else p.entry_forms[name]
                           for _, _, name in cells])
    coeffs = [[0] * len(names) for _ in range(64)]  # row 8*i + j: entry (i, j)
    for k, (_, _, name) in enumerate(cells):
        for i, row in enumerate(V):
            if name in col and row[8 + k]:
                for j, c in enumerate(X[k]):
                    coeffs[8 * i + j][col[name]] += row[8 + k] * c

    # One equation per output entry: sum(coeff * unknown) = target - known.
    target = schoolbook_matrix()
    rhs = [target.entry(i, j) - known.entry(i, j)
           for i in range(8) for j in range(8)]
    assignment, free = _solve_linear(names, coeffs, rhs)
    return CorrectionSolve(assignment=assignment, free=tuple(free))


# "zero" is its operand times 0, on its operand's side
_OPS = {"add": add, "sub": sub, "neg": neg, "zero": partial(mul, 0)}


def _terms(prog) -> tuple:
    """``(V, X, B)``: the lowered program ``prog``, read in one pass.

    A slot derived from ``b0..b7`` alone is a :class:`LinForm` of them; any
    other is a row of ints and ``Fraction`` over ``x0..x7, m0..m{K-1}``,
    ``m_k`` the ``k``-th ``mul`` (an x-side value times a b-side one, as
    the lowering checks).  ``V`` holds the 8 output rows, ``X[k]`` the 8
    x-coefficients of ``mul`` ``k``'s left operand and ``B[k]`` the form of
    its right one.  A value that mixes the sides, or a b-side output, is
    not bilinear: :class:`~octofast.linform.DegreeError`.
    """
    n = 8 + sum(1 for ins in prog.instrs if ins.op == "mul")
    unit = [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]
    val = {f"b{i}": LinForm.var(i) for i in range(8)} | {
        f"x{j}": unit[j] for j in range(8)}
    X, B = [], []
    for ins in prog.instrs:
        a = val[ins.a]
        args = (a,) if ins.b is None else (a, val[ins.b])
        if ins.op == "mul":
            val[ins.dest] = unit[8 + len(X)]
            X.append(a[:8])
            B.append(args[1])
            continue
        bside = type(a) is LinForm
        if bside is not (type(args[-1]) is LinForm):
            raise DegreeError(f"{ins.to_text()}: mixes the x and b sides")
        f = partial(mul, pow2(ins.k)) if ins.op == "shift" else _OPS[ins.op]
        val[ins.dest] = f(*args) if bside else tuple(map(f, *args))
    V = [val[o] for o in prog.outputs]
    if any(type(v) is LinForm for v in V):
        raise DegreeError("an output derives from b0..b7 alone")
    return V, X, B


def _decode(V, X, forms) -> SymMatrix:
    """``SymMatrix(V) @ W``, ``W`` the 8 unit rows of ``x0..x7`` and then
    ``forms[k] * X[k]`` for each ``mul`` ``k``."""
    units = [[int(i == j) for j in range(8)] for i in range(8)]
    return SymMatrix(V) @ SymMatrix(
        units + [[f * c for c in x] for x, f in zip(X, forms)])


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
