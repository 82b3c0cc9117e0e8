"""Symbolic certification of pipelines against the schoolbook matrix.

The one claim a certificate makes is "this pipeline computes the product of
hyperbolic octonions", and it is discharged by algebra, not sampling, on the
lowered program ``p._program`` that ``mul_fast`` compiles, ``flatten`` emits
and ``count`` measures.  One walk over its instructions (:func:`_terms`)
reads it in the encode/multiply/decode form of a bilinear algorithm (the
lowering's ``Program.validate`` checks that shape): the output rows ``V``,
and for each ``mul`` the x-row ``X[k]`` and b-form ``B[k]`` it multiplies.
Their product (:func:`compose_symbolic`) is compared entry by entry with
the 8x8 left-multiplication matrix: a theorem about all inputs at once,
about the code that runs.

The entry forms take no part in the proof.  They are the targets of
:func:`solve_corrections`, which reads the same terms in reverse: chosen
core entries become unknowns of a linear system that reconstructs them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from operator import add, mul, neg, sub
from typing import Iterable, Optional

from .algebra import schoolbook_matrix
from .linform import (_LF_ZERO, _SMALL, LinForm, SymMatrix, _coerce, _entry,
                      _matrix)
from .program import INPUTS
from .stages import QuasiDiagonal, _Record, pow2


class Residual(_Record):
    """One differing entry ``(row, col)`` of the 8x8 product matrix: the
    schoolbook form ``expected`` and the composed form ``got``."""

    def __init__(self, row: int, col: int, expected: LinForm, got: LinForm):
        _set = object.__setattr__
        _set(self, "row", row)
        _set(self, "col", col)
        _set(self, "expected", expected)
        _set(self, "got", got)


class ResidualReport(_Record):
    """Entrywise differences between a composed pipeline and the product."""

    def __init__(self, residuals: tuple):
        object.__setattr__(self, "residuals", tuple(residuals))

    @property
    def ok(self) -> bool:
        return not self.residuals

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
    ``x0..x7``, then ``B[k] * X[k]`` for each ``mul`` ``k``.
    """
    return _decode(*_terms(p._program))


def certify(p) -> ResidualReport:
    """Prove that ``p`` computes the hyperbolic-octonion product for every
    input.

    :func:`compose_symbolic`, read off the lowered program that
    ``mul_fast`` runs and ``flatten`` emits, must equal the schoolbook
    matrix, and no other target can be given.  The eight rows are compared
    as tuples; in a row that differs, each differing entry is a
    :class:`Residual`, in row-major order.  Once the program is built no
    stage runs.  On success ``p.certified`` is set: it vouches for this one
    claim alone.
    """
    target = schoolbook_matrix()
    got = compose_symbolic(p)
    residuals = []
    for i, (want, row) in enumerate(zip(target.entries, got.entries)):
        if want != row:
            residuals += [Residual(i, j, e, g)
                          for j, (e, g) in enumerate(zip(want, row)) if e != g]
    report = ResidualReport(residuals)
    if report.ok:
        p.certified = True
    return report


class CorrectionSolve(_Record):
    """Solved entry forms; ``free`` lists under-determined names (set to 0)."""

    def __init__(self, assignment: dict, free: tuple):
        _set = object.__setattr__
        _set(self, "assignment", assignment)
        _set(self, "free", tuple(free))


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
    does not read, and a known with no entry form, raise ``ValueError``;
    a bare string for ``unknown`` raises ``TypeError``: it takes a list of
    names, ``["diffcorr_12"]`` for one.
    """
    cores = [st for st in p.stages if isinstance(st, QuasiDiagonal)]
    if len(cores) != 1:
        # mul k is read as cell k of the one core
        raise ValueError(
            f"expected exactly one quasi-diagonal stage, found {len(cores)}")
    cells = cores[0].cells
    read = {name for _, _, name in cells}

    if isinstance(unknown, str):
        raise TypeError(f"unknown takes a list of names: [{unknown!r}]")
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
        if name not in col:
            continue
        u, x = col[name], X[k]
        for i, row in enumerate(V):
            v = row[8 + k]
            if v:
                for j, c in enumerate(x):
                    coeffs[8 * i + j][u] += v * c

    # One equation per output entry: sum(coeff * unknown) = target - known.
    target = schoolbook_matrix()
    rhs = [e - g for want, row in zip(target.entries, known.entries)
           for e, g in zip(want, row)]
    assignment, free = _solve_linear(names, coeffs, rhs)
    return CorrectionSolve(assignment=assignment, free=free)


# "zero" is its operand times 0, on its operand's side
_OPS = {"add": add, "sub": sub, "neg": neg, "zero": partial(mul, 0)}


@lru_cache(maxsize=8)
def _inputs(n: int) -> tuple:
    """The ``n`` unit rows of width ``n``, and each input slot's value for
    :func:`_terms`, keyed by :data:`~octofast.program.INPUTS`: ``x_j``
    unit row ``j`` of width 8, ``b_i`` the form of ``b_i``.  Built once
    per width (the last 8 widths are kept); callers copy the dict and only
    read the rows."""
    unit = tuple((0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n))
    forms = tuple(map(LinForm.var, range(8)))
    return unit, dict(zip(INPUTS, tuple(u[:8] for u in unit[:8]) + forms))


def _terms(prog) -> tuple:
    """``(V, X, B)``: the lowered program ``prog``, read in one pass.

    A slot derived from ``b0..b7`` alone is a :class:`LinForm` of them; any
    other is a row of ints and ``Fraction`` over ``x0..x7, m0..m{K-1}``,
    ``m_k`` the ``k``-th ``mul``.  A row that reads no product is kept 8
    wide, over ``x0..x7`` alone, and padded with ``K`` zeros only where it
    meets a row that reads one, and as an output.  ``V`` holds the 8
    output rows, ``X[k]`` the 8 x-coefficients of ``mul`` ``k``'s left
    operand and ``B[k]`` the form of its right one, in the shape
    ``Program.validate`` checked.  The unit rows and the input slots'
    values come from a table built once per width ``8 + K``
    (:func:`_inputs`).
    """
    K = sum(1 for i in prog.instrs if i.op == "mul")
    unit, inputs = _inputs(8 + K)

    def wide(row):
        return row + (0,) * K if len(row) == 8 else row

    val = dict(inputs)
    X, B = [], []
    for ins in prog.instrs:
        a = val[ins.a]
        args = (a,) if ins.b is None else (a, val[ins.b])
        if ins.op == "mul":
            val[ins.dest] = unit[8 + len(X)]
            X.append(a)
            B.append(args[1])
            continue
        f = partial(mul, pow2(ins.k)) if ins.op == "shift" else _OPS[ins.op]
        if type(a) is LinForm:
            val[ins.dest] = f(*args)
            continue
        if len(args) == 2 and len(a) != len(args[1]):
            args = map(wide, args)
        val[ins.dest] = tuple(map(f, *args))
    V = list(map(wide, map(val.get, prog.outputs)))
    return V, X, B


# the unit rows of x0..x7 as forms, shared by every decode
_IDENTITY = tuple(tuple(_SMALL[int(i == j)] for j in range(8))
                  for i in range(8))
_ZERO_ROW = (_LF_ZERO,) * 8


def _decode(V, X, forms) -> SymMatrix:
    """``SymMatrix(V) @ W``, ``W`` the 8 unit rows of ``x0..x7`` and then
    ``forms[k] * X[k]`` for each ``mul`` ``k``.

    ``W`` is built as forms and taken as is.  Its first 8 rows are one
    shared identity block.  In row ``k`` a coefficient 0, 1 or -1 picks the
    shared zero, ``forms[k]`` or its negation (made once per row), any other
    ``c`` gives ``forms[k] * c``, and a zero form gives a row of zeros.
    ``V``, ints and ``Fraction`` from :func:`_terms`, is coerced once.
    """
    rows = list(_IDENTITY)
    for x, f in zip(X, forms):
        f = _entry(f)
        if f.is_zero:
            rows.append(_ZERO_ROW)
            continue
        pick = {0: _LF_ZERO, 1: f, -1: -f}
        rows.append(tuple([pick[c] if c in pick else f * c for c in x]))
    v = _matrix(tuple(tuple(map(_coerce, row)) for row in V))
    return v @ _matrix(tuple(rows))


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
