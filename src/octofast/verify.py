"""Symbolic certification of pipelines against the schoolbook matrix.

The one claim a certificate makes is "this pipeline computes the product of
hyperbolic octonions", and it is discharged by algebra, not sampling, on the
lowered program ``p._program`` that ``mul_fast`` compiles, ``flatten`` emits
and ``count`` measures.  One walk over its instructions (:func:`_walk`)
reads it in the encode/multiply/decode form of a bilinear algorithm (the
lowering's ``Program.validate`` checks that shape), each slot's
coefficient row packed into one int (a Kronecker substitution): the output
rows ``V``, and for each ``mul`` the x-row ``X[k]`` and b-form ``B[k]`` it
multiplies (:func:`_terms`).  Their product (:func:`compose_symbolic`) is
compared entry by entry with the 8x8 left-multiplication matrix: a theorem
about all inputs at once, about the code that runs.

The entry forms take no part in the proof.  They are the targets of
:func:`solve_corrections`, which reads the same walk in reverse: chosen
core entries become unknowns of a linear system that reconstructs them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub
from sys import byteorder
from typing import Iterable, Optional

from .algebra import schoolbook_matrix
from .linform import (_LF_ZERO, _SMALL, LinForm, SymMatrix, _coerce, _entry,
                      _form, _matrix, _reduced)
from .program import INPUTS
from .stages import QuasiDiagonal, _Record, _store


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
# entry (i, j) of the schoolbook matrix is +-b_k: per row i, its one
# nonzero numerator c and the field 9*j + t, t = 1 + k, that it takes in
# the row's packed int, as (9*j + t, c)
_TARGET = tuple(tuple(next((9 * j + t, c) for t, c in enumerate(e.numerators)
                           if c) for j, e in enumerate(row))
                for row in schoolbook_matrix().entries)


def compose_symbolic(p) -> SymMatrix:
    """The 8x8 matrix of forms in ``b`` that the lowered program of ``p``
    computes: ``SymMatrix(V) @ W``, with ``V``, ``X`` and ``B`` read off
    ``p._program`` by :func:`_terms` and ``W`` the 8 unit rows of
    ``x0..x7``, then ``B[k] * X[k]`` for each ``mul`` ``k``.

    ``W`` is built as forms and taken as is.  Its first 8 rows are one
    shared identity block.  In row ``k`` a coefficient 0, 1 or -1 picks the
    shared zero, ``B[k]`` or its negation (made once per row), and any
    other ``c`` gives ``B[k] * c``; a zero ``B[k]`` so gives a row of forms
    equal to zero.  ``V``, ints and ``Fraction`` that :func:`_terms` reads
    off one packed walk, is coerced once, and the product is one
    ``SymMatrix @``.
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
    and ``X`` read off the program by :func:`_walk`, entry ``(i, j)`` of
    the product is ``V[i][j]`` plus the sum of ``V[i][8 + k] * X[k][j]``
    times cell ``k``'s form; matched against the schoolbook matrix, it is
    one linear equation in the unknowns.  ``B`` is not read: the forms
    are the cells'.

    The equations are rows of Python ints.  ``V`` and ``X`` are read off
    the walk as int rows, each matrix over one power of two, ``s_V`` and
    ``s_X`` (other than 1 only after a ``2^-k`` scale), and the known forms
    put over the lcm ``D`` of theirs.  Row ``8*i + j`` is then
    ``S = s_V * s_X`` times equation ``(i, j)``: first each unknown's
    coefficient, summed over the cells that read it, then the nine
    numerators of target minus known part over ``D``.  The known part is
    most of the work, so it is summed on packed ints, ``w`` bits a field:
    row ``i`` of the product is one int whose fields ``9*j`` to ``9*j + 8``
    are entry ``(i, j)``'s numerators.  Each known packs its nine
    numerators into one int, spreads that over ``j`` times its x-row and
    takes it from row ``i`` times its column of ``V``: known cell ``k``
    has ``X[k]`` and column ``8 + k``; the outputs' term ``V[i][j]`` in
    ``x_j`` is a known with the form 1, column ``j`` and ``s_X`` at ``j``
    for x-row.  The 8 ints are read back at once by :func:`_read`.  ``w``
    is the least multiple of 64 above the bit length of a bound on every
    field (:func:`_width`): ``D * S`` for the target (its numerators are
    +-1) plus, over the knowns, the largest magnitudes in the column, the
    x-row and the numerators, multiplied.

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

    V, X, _, bits = _walk(p._program)
    if len(X) != len(cells):
        raise ValueError(f"the program makes {len(X)} multiplications, "
                         f"the core has {len(cells)} cells")
    (V, ev), (X, ex) = (_int_matrix(V, 8 + len(X), bits),
                        _int_matrix(X, 8, bits))
    vcols = list(zip(*V))
    # the nonzero (i, V[i][c]) of each column c of V
    vnz = [[(i, v) for i, v in enumerate(c) if v] for c in vcols]
    col = {n: u for u, n in enumerate(names)}
    # row 8*i + j: entry (i, j)
    rows = [[0] * len(names) for _ in range(64)]
    known = []
    for k, ((_, _, name), x) in enumerate(zip(cells, X)):
        if name not in col:
            known.append((k, x, _entry(p.entry_forms[name])))
            continue
        u = col[name]
        xs = [(j, c) for j, c in enumerate(x) if c]
        for i, v in vnz[8 + k]:
            for j, c in xs:
                rows[8 * i + j][u] += v * c

    # target minus known part, times D * S, as one packed int per row i of
    # the product: entry (i, j) is its fields 9*j to 9*j + 8.  Each known
    # is (column c of V, x-row, numerators over D); an output's term in
    # x_j is a known with the x-row of x_j and the constant form 1
    D = lcm(*(f.denominator for _, _, f in known))
    S = 1 << ev + ex
    F = [(j, [int(t == j) << ex for t in range(8)], [D] + [0] * 8)
         for j in range(8) if vnz[j]]
    F += [(8 + k, x, [c * (D // f.denominator) for c in f.numerators])
          for k, x, f in known]
    w = _width(D * S + sum(max(map(abs, vcols[c])) * max(map(abs, x))
                           * max(map(abs, nums)) for c, x, nums in F))
    acc = [sum((D * S * c) << w * f for f, c in row) for row in _TARGET]
    for c, x, nums in F:
        packed = spread = 0
        for t in reversed(nums):
            packed = (packed << w) + t
        for t in reversed(x):
            spread = (spread << 9 * w) + t * packed
        for i, v in vnz[c]:
            acc[i] -= v * spread
    for row, fields in zip(rows, _read(acc, 9, w, 8)):
        row += fields
    assignment, free = _solve_linear(names, rows, D, S)
    return CorrectionSolve(assignment=assignment, free=free)


def _walk(prog, w: int = 64) -> tuple:
    """The lowered program ``prog``, read in one pass on packed ints.

    Each slot is a triple ``(N, e, A)``: ``N`` packs the slot's coefficient
    row, field ``j`` taking ``w`` bits at bit ``w*j``, so the slot's value
    is ``N / 2^e``; ``A`` bounds ``|field|`` for every field of ``N``.  On
    the x/m side the fields are ``x0..x7``, then ``m0..m{K-1}``, ``m_k``
    the ``k``-th ``mul``; on the b side ``b0..b7``.  ``add``/``sub``
    bring both operands to the larger ``e``, shifting the other's ``N``
    and ``A`` left; ``neg`` negates ``N``; a shift by ``k`` is ``e - k``;
    ``mul`` ``k`` records its operands and gives the marker of ``m_k`` with
    ``A = 1``; ``zero`` is ``(0, 0, 0)``.  Packing is Z-linear, so ``N`` is
    exact whatever its fields hold; ``A`` only decides how it is read.

    Returns ``(V, X, B, w)``: the 8 output slots, and for each ``mul`` the
    slots of its x and b operands.  A field of ``2^(w-1)`` or more in
    magnitude would not read back, so where any of their ``A`` reaches it
    ``prog`` is walked again with the wider ``w`` of :func:`_width`.
    """
    val = {name: (1 << w * (j % 8), 0, 1) for j, name in enumerate(INPUTS)}
    X, B = [], []
    for ins in prog.instrs:
        op = ins.op
        n, e, a = val[ins.a]
        if op == "add" or op == "sub":
            n2, e2, a2 = val[ins.b]
            if e < e2:
                n, a, e = n << e2 - e, a << e2 - e, e2
            elif e2 < e:
                n2, a2 = n2 << e - e2, a2 << e - e2
            val[ins.dest] = (n + n2 if op == "add" else n - n2, e, a + a2)
        elif op == "mul":
            val[ins.dest] = (1 << w * (8 + len(X)), 0, 1)
            X.append((n, e, a))
            B.append(val[ins.b])
        elif op == "neg":
            val[ins.dest] = (-n, e, a)
        elif op == "shift":
            val[ins.dest] = (n, e - ins.k, a)
        else:
            val[ins.dest] = (0, 0, 0)
    V = [val[o] for o in prog.outputs]
    wide = _width(max([a for _, _, a in V + X + B], default=0))
    return (V, X, B, w) if wide <= w else _walk(prog, wide)


def _width(bound: int) -> int:
    """The fewest bits, a multiple of 64, that hold every signed field of
    magnitude at most ``bound``: more than ``bound``'s bit length."""
    return (bound.bit_length() + 64) // 64 * 64


def _read(ns, width: int, w: int = 64, per: int = 1) -> list:
    """The signed ``w``-bit fields of the packed ints ``ns``, ``per``
    rows of ``width`` fields to an int, as one tuple of ints per row.
    ``w`` is a multiple of 64 and every field lies in
    ``[-2^(w-1), 2^(w-1))``.

    Biased by ``2^(w-1)`` per field, no field carries into the next, and
    xor with the same bias leaves each field in two's complement: the
    joined little-endian bytes of all of ``ns`` are one array of signed
    ``w``-bit ints, read with one ``memoryview.cast`` where ``w`` is 64 on
    a little-endian machine and field by field otherwise.
    """
    step, count = w // 8, width * per
    bias = int.from_bytes((bytes(step - 1) + b"\x80") * count, "little")
    buf = b"".join([((n + bias) ^ bias).to_bytes(step * count, "little")
                    for n in ns])
    if step == 8 and byteorder == "little":
        flat = memoryview(buf).cast("q").tolist()
    else:
        flat = [int.from_bytes(buf[i:i + step], "little", signed=True)
                for i in range(0, len(buf), step)]
    return list(zip(*[iter(flat)] * width))


def _int_matrix(slots, width: int, w: int) -> tuple:
    """The rows of ``slots``, slots of one :func:`_walk` with fields of
    ``w`` bits, ``width`` to a row, as int rows over one power of two
    ``2^E``, ``E`` their largest ``e`` and at least 0; and ``E``."""
    E = max([0] + [e for _, e, _ in slots])
    rows = _read([n for n, _, _ in slots], width, w)
    return [row if e == E else tuple([f << E - e for f in row])
            for row, (_, e, _) in zip(rows, slots)], E


def _over(rows, E: int) -> list:
    """Each int row of ``rows`` over ``2^E``, as a tuple of values: an
    ``int`` where it divides, else a ``Fraction``."""
    d = 1 << E
    return rows if not E else [
        tuple([Fraction(f, d) if f % d else f >> E for f in row])
        for row in rows]


def _terms(prog) -> tuple:
    """``(V, X, B)``: the lowered program ``prog`` as a bilinear algorithm,
    read off one :func:`_walk`.

    ``V`` holds the 8 output rows over ``x0..x7, m0..m{K-1}``, ``X[k]`` the
    8 x-coefficients of ``mul`` ``k``'s left operand and ``B[k]`` the
    :class:`LinForm` of its right one, in the shape ``Program.validate``
    checked.  The rows are tuples of ints and ``Fraction``: an integral
    value is an ``int``.
    """
    V, X, B, w = _walk(prog)
    (V, ev), (X, ex) = _int_matrix(V, 8 + len(X), w), _int_matrix(X, 8, w)
    B = [_reduced((0, *row), 1 << e) if e >= 0
         else _form((0, *[f << -e for f in row]), 1)
         for row, (_, e, _) in zip(_read([n for n, _, _ in B], 8, w), B)]
    return _over(V, ev), _over(X, ex), B


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
