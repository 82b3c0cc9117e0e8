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

from functools import lru_cache, partial
from itertools import chain
from math import lcm
from operator import add, mul, neg, sub
from typing import Iterable, Optional

from .algebra import schoolbook_matrix
from .linform import (_LF_ZERO, _SMALL, LinForm, SymMatrix, _coerce, _entry,
                      _matrix, _reduced)
from .program import INPUTS
from .stages import QuasiDiagonal, _Record, _store, pow2


class Residual(_Record):
    """One differing entry ``(row, col)`` of the 8x8 product matrix: the
    schoolbook form ``expected`` and the composed form ``got``."""

    def __init__(self, row: int, col: int, expected: LinForm, got: LinForm):
        _store(self, row=row, col=col, expected=expected, got=got)


class ResidualReport(_Record):
    """Entrywise differences between a composed pipeline and the product."""

    def __init__(self, residuals: tuple):
        _store(self, residuals=tuple(residuals))

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


# the unit rows of x0..x7 as forms, shared by every composition
_IDENTITY = tuple(tuple(_SMALL[int(i == j)] for j in range(8))
                  for i in range(8))
# entry (i, j) of the schoolbook matrix, at 8*i + j, is +-b_k: its one
# nonzero numerator c, in field t = 1 + k, as (t, c)
_TARGET = tuple(next((t, c) for t, c in enumerate(e.numerators) if c)
                for row in schoolbook_matrix().entries for e in row)
_NINE_ZEROS = (0,) * 9


def compose_symbolic(p) -> SymMatrix:
    """The 8x8 matrix of forms in ``b`` that the lowered program of ``p``
    computes: ``SymMatrix(V) @ W``, with ``V``, ``X`` and ``B`` read off
    ``p._program`` by :func:`_terms` and ``W`` the 8 unit rows of
    ``x0..x7``, then ``B[k] * X[k]`` for each ``mul`` ``k``.

    ``W`` is built as forms and taken as is.  Its first 8 rows are one
    shared identity block.  In row ``k`` a coefficient 0, 1 or -1 picks the
    shared zero, ``B[k]`` or its negation (made once per row), and any
    other ``c`` gives ``B[k] * c``; a zero ``B[k]`` so gives a row of forms
    equal to zero.  ``V``, ints and ``Fraction`` from :func:`_terms`, is
    coerced once.
    """
    V, X, B = _terms(p._program)
    rows = list(_IDENTITY)
    for x, f in zip(X, B):
        pick = {0: _LF_ZERO, 1: f, -1: -f}
        rows.append(tuple([pick[c] if c in pick else f * c for c in x]))
    v = _matrix(tuple(tuple(map(_coerce, row)) for row in V))
    return v @ _matrix(tuple(rows))


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
        _store(self, assignment=assignment, free=tuple(free))


def solve_corrections(p, unknown: Optional[Iterable[str]] = None) -> CorrectionSolve:
    """Solve for quasi-diagonal entry forms from the lowered program.

    Entries named in ``unknown`` (default: every core entry with a
    correction recipe) are unknown linear forms.  The one core of the main
    chain makes one ``mul`` per cell, in ``cells`` order, so ``mul`` ``k``
    is cell ``k``; another ``mul`` count raises ``ValueError``.  With ``V``
    and ``X`` read off the program by :func:`_terms`, entry ``(i, j)`` of
    the product is ``V[i][j]`` plus the sum of ``V[i][8 + k] * X[k][j]``
    times cell ``k``'s form; matched against the schoolbook matrix, it is
    one linear equation in the unknowns.

    The equations are rows of Python ints.  ``V`` and ``X`` are multiplied
    through by the lcm of their denominators, ``s_V`` and ``s_X`` (other
    than 1 only after a ``2^-k`` scale), and the known forms put over the
    lcm ``D`` of theirs.  Row ``8*i + j`` is then ``S = s_V * s_X`` times
    equation ``(i, j)``: first each unknown's coefficient, summed over the
    cells that read it, then the nine numerators of target minus known part
    over ``D``.  The known part is most of the work, so each known form's
    nine numerators are packed into one int, ``w`` bits a field, and each
    entry's sum of them is one int, unpacked once with a bias of
    ``2^(w-1)`` per field.  ``w`` is one more than the bit length of a bound
    on every field: over the known cells ``k``, the sum of the largest
    magnitudes in ``V``'s column ``8 + k``, in ``X[k]`` and in ``k``'s
    numerators, multiplied, plus ``D * S`` for the target (its numerators
    are +-1) and ``D * s_X`` times the largest ``V[i][j]``.  So a field
    fits in ``w - 1`` bits and a sign, and biased it cannot carry into the
    next.

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
    V, sv = _int_rows(V)
    X, sx = _int_rows(X)
    vcols = list(zip(*V))
    # the nonzero (row 8*i, V[i][c]) of each column c of V
    vnz = [[(8 * i, v) for i, v in enumerate(c) if v] for c in vcols]
    col = {n: u for u, n in enumerate(names)}
    n = len(names)
    rows = [[0] * n for _ in range(64)]  # row 8*i + j: entry (i, j)
    known = []
    for k, (_, _, name) in enumerate(cells):
        x = X[k]
        if name not in col:
            known.append((k, x, _entry(p.entry_forms[name])))
            continue
        u = col[name]
        xs = [(j, c) for j, c in enumerate(x) if c]
        for base, v in vnz[8 + k]:
            for j, c in xs:
                rows[base + j][u] += v * c

    # target minus known part, times D * S, as one packed int per entry
    D = lcm(*(f.denominator for _, _, f in known))
    S = sv * sx
    F = [(k, x, [c * (D // f.denominator) for c in f.numerators])
         for k, x, f in known]
    bound = (D * S + D * sx * max((abs(v) for c in vnz[:8] for _, v in c),
                                  default=0)
             + sum(max(map(abs, vcols[8 + k])) * max(map(abs, x))
                   * max(map(abs, nums)) for k, x, nums in F))
    w = bound.bit_length() + 1
    acc = [(D * S * c) << (w * t) for t, c in _TARGET]
    for j in range(8):
        for base, v in vnz[j]:
            acc[base + j] -= D * sx * v
    for k, x, nums in F:
        packed = 0
        for c in reversed(nums):
            packed = (packed << w) + c
        xs = [(j, c * packed) for j, c in enumerate(x) if c]
        for base, v in vnz[8 + k]:
            for j, cp in xs:
                acc[base + j] -= v * cp
    half, mask, shifts = 1 << (w - 1), (1 << w) - 1, range(0, 9 * w, w)
    bias = sum(half << s for s in shifts)
    for row, e in zip(rows, acc):
        if e:
            e += bias
            row += [((e >> s) & mask) - half for s in shifts]
        else:
            row += _NINE_ZEROS
    assignment, free = _solve_linear(names, rows, D, S)
    return CorrectionSolve(assignment=assignment, free=free)


def _int_rows(rows) -> tuple:
    """``rows`` multiplied through by the lcm ``s`` of their entries'
    denominators, as int rows, and ``s``; ``rows`` as they are, and 1, if
    every entry is an int."""
    values = set(chain.from_iterable(rows))
    if all(type(v) is int for v in values):
        return rows, 1
    s = lcm(*(v.denominator for v in values))
    return [[int(v * s) for v in row] for row in rows], s


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


def _solve_linear(names, rows, D, S):
    """Gauss-Jordan on the int rows of :func:`solve_corrections`, free of
    division until the end.

    Row ``r`` is ``S`` times an equation: its first ``len(names)`` ints
    are the unknowns' coefficients, its last nine the numerators of the
    right-hand side over ``D``.  A pivot ``a`` clears its column from row
    ``r`` by ``r <- a*r - f*pivot`` (the integer-preserving step of Bareiss
    elimination, without Bareiss's division by the previous pivot, which
    the chain's small coefficients do not need); ``scale`` keeps what each
    row was multiplied by.  A solved unknown is its pivot row's last nine
    ints over ``D * a``, ``a`` its final pivot, and a residual, as plain
    subtraction of forms would leave it, its last nine over
    ``D * S * scale``: lowest-terms forms with a positive denominator.
    """
    n = len(names)
    scale = [1] * len(rows)
    pivot_of_col = {}
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        scale[rank], scale[piv] = scale[piv], scale[rank]
        prow = rows[rank]
        a = prow[col]
        for r in [r for r, row in enumerate(rows) if row[col] and r != rank]:
            row, f = rows[r], rows[r][col]
            if a == 1 and f in (1, -1):
                rows[r] = list(map(sub if f == 1 else add, row, prow))
            else:
                rows[r] = [a * u - f * v for u, v in zip(row, prow)]
                scale[r] *= a
        pivot_of_col[col] = rank
        rank += 1

    for row, s in zip(rows[rank:], scale[rank:]):
        if any(row[n:]):
            raise InconsistentSystemError(
                f"no entry assignment satisfies the fixed stages "
                f"(residual {_form_over(row[n:], D * S * s)} over zero "
                f"coefficients)")

    free = [names[c] for c in range(n) if c not in pivot_of_col]
    assignment = {}
    for col, name in enumerate(names):
        if col in pivot_of_col:
            prow = rows[pivot_of_col[col]]
            assignment[name] = _form_over(prow[n:], D * prow[col])
        else:
            assignment[name] = LinForm.zero()
    return assignment, free


def _form_over(nums, den) -> LinForm:
    """The form ``nums / den`` in lowest terms, for a nonzero int ``den``."""
    if den < 0:
        nums, den = [-v for v in nums], -den
    return _reduced(tuple(nums), den)
