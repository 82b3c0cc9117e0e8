"""Certification of pipelines against the product of hyperbolic octonions.

The one claim a certificate makes is "this pipeline computes the product of
hyperbolic octonions", and it is discharged by algebra, not sampling, on the
lowered program ``p._program`` that ``mul_fast`` compiles, ``flatten`` emits
and ``count`` measures.  The lowering's ``Program.validate`` checks that it
has the encode/multiply/decode shape of a bilinear algorithm: each output
is a sum of ``c * x_j * b_l`` and ``a * x_j``.  Such a map is fixed by one
exact run at the point ``x_j = 2^(9wj)``, ``b_l = 2^(w(l+1))`` (a Kronecker
substitution): each coefficient lands in a field of ``w`` bits of the
output's int, ``c`` at field ``9j + l + 1`` and ``a`` at field ``9j``, and
:func:`certify` compares the 8 ints with the schoolbook rows packed the
same way.  ``w`` grows until no compared field can reach ``2^(w-1)``, so
equal ints mean equal coefficient tensors: a theorem about all inputs at
once, about the code that runs.  The run is :func:`_slots` on ``(N, e,
A)`` slots, ``N / 2^e`` a slot's packed value and ``A`` a bound on its
fields; it holds only for programs that ``validate`` accepted, which every
pipeline's program is.

The point judges each output on its own: no compared field of an output
reaches ``2^(w-1)``, so an output whose int equals its target row is that
row of the product and holds no differing entry.  A refused pipeline is
explained by the symbolic product (:func:`compose_symbolic`) of the
outputs the point refused, and of no other: the same program read by
:func:`_walk` as the output rows ``V`` over the products, and for each
``mul`` the x-row ``X[k]`` and b-form ``B[k]`` it multiplies
(:func:`_terms`), multiplied out to one row of forms per output and
compared entry by entry with the left-multiplication matrix.

The entry forms take no part in the proof.  They are the targets of
:func:`solve_corrections`, which runs the same program in reverse, once,
at another point (:func:`_equations`): each product's b operand is its
cell's form, packed, or a marker for an unknown one, so the 8 output ints
hold the 64 equations of a linear system that reconstructs the unknowns.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import lcm
from operator import add, itemgetter, sub
from sys import byteorder
from types import SimpleNamespace
from typing import Iterable, Optional

from .algebra import schoolbook_matrix
from .linform import (_LF_ZERO, _SMALL, LinForm, SymMatrix, _coerce, _entry,
                      _form, _matrix, _reduced)
from .program import INPUTS, Program
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
# nonzero numerator c and its place t = 1 + k among entry j's nine, as
# (j, t, c)
_TARGET = tuple(tuple(next((j, t, c) for t, c in enumerate(e.numerators)
                           if c) for j, e in enumerate(row))
                for row in schoolbook_matrix().entries)


@lru_cache(maxsize=64)
def _target(w: int, stride: int = 9) -> tuple:
    """The 8 rows of :data:`_TARGET` packed ``w`` bits a field, one int a
    row, entry ``j``'s nine numerators from field ``stride*j`` on: with
    ``stride`` 9, the outputs of the product at :func:`_point`'s point."""
    return tuple(sum(c << w * (stride * j + t) for j, t, c in row)
                 for row in _TARGET)


def compose_symbolic(p) -> SymMatrix:
    """The matrix of forms in ``b`` that the lowered program of ``p``
    computes, one row per output over ``x0..x7``: 8x8 for a pipeline's
    program.  ``p._program`` must be a program that ``Program.validate``
    accepted; one that keeps such a program's instructions and a subset
    of its outputs is one too, and :func:`certify` composes only the
    outputs its point refuses that way.

    The matrix is ``SymMatrix(V) @ W``, with ``V``, ``X`` and ``B`` read
    off ``p._program`` by :func:`_terms` and ``W`` the 8 unit rows of
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

    The proof is one exact run of the lowered program ``p._program``, the
    one ``mul_fast`` compiles and ``flatten`` emits, at one point
    (:func:`_refused`): ``x_j = 2^(9wj)`` and ``b_l = 2^(w(l+1))``.  The
    lowering ran ``Program.validate``, so each output is a sum of
    ``c * x_j * b_l`` and ``a * x_j``, and at the point those terms land in
    72 fields of ``w`` bits: ``c`` at field ``9j + l + 1``, ``a`` at field
    ``9j``.  No field of the output or of the packed schoolbook row reaches
    ``2^(w-1)`` in magnitude (:func:`_point` widens ``w`` until none
    does), so the two ints are equal exactly when every field is: when the
    output's row of the coefficient tensor equals the product's.  If all 8
    are equal, no other target can be given, and ``p.certified`` is set:
    it vouches for this one claim alone.  A program without 8 outputs
    raises ``ValueError`` (``Program._check_outputs``).

    A refused pipeline is explained entry by entry, and only in the
    outputs the point refused: :func:`compose_symbolic`, on a program with
    ``p._program``'s instructions and those outputs, in order, gives their
    rows of forms, and each entry that differs from the schoolbook matrix
    is a :class:`Residual`, in row-major order.
    An output the point proved is the schoolbook row, so it holds no
    residual, and the report is the one the whole 8x8 product would give.
    The point's difference holds the same forms, but reading them back is
    left to the symbolic product, which the report's texts come from.
    """
    prog = p._program
    prog._check_outputs()
    refused = _refused(prog)
    if not refused:
        p.certified = True
        return ResidualReport(())
    got = compose_symbolic(SimpleNamespace(
        _program=Program(prog.instrs, [prog.outputs[i] for i in refused])))
    target = schoolbook_matrix().entries
    return ResidualReport([Residual(i, j, e, g)
                           for i, row in zip(refused, got.entries)
                           for j, (e, g) in enumerate(zip(target[i], row))
                           if e != g])


class CorrectionSolve(_Record):
    """Solved entry forms; ``free`` lists under-determined names (set to 0)."""

    def __init__(self, assignment: dict, free: tuple):
        _store(self, assignment=assignment, free=tuple(free))


def solve_corrections(p, unknown: Optional[Iterable[str]] = None) -> CorrectionSolve:
    """Solve for quasi-diagonal entry forms from the lowered program.

    Entries named in ``unknown`` (default: every core entry with a
    correction recipe) are unknown linear forms.  The one core of the main
    chain makes one ``mul`` per cell, in ``cells`` order, so ``mul`` ``k``
    is cell ``k``; another ``mul`` count raises ``ValueError``.  Entry
    ``(i, j)`` of the product is then output ``i``'s coefficient of
    ``x_j``, with each product's b operand taken as its cell's form: the
    known forms' sum plus each unknown times its summed coefficient.
    Matched against the schoolbook matrix, it is one linear equation in
    the unknowns.  The program's b side is not read: the forms are the
    cells'.

    All 64 equations are read off one run of ``p._program`` by
    :func:`_equations`, at a point where every equation is a row of
    ``w``-bit fields of Python ints, and solved by :func:`_solve_linear`.

    Inconsistency raises :class:`InconsistentSystemError`; under-determined
    unknowns resolve to the zero form (the fewest-nonzero-coefficients
    choice) and are reported in ``free``.  Unknowns are processed in
    sorted-name order, so the result is deterministic.  An unknown the core
    does not read, and a known with no entry form, raise ``ValueError``;
    ``unknown`` takes a list of names, ``["diffcorr_12"]`` for one, and a
    bare string or a name that is not a string raises ``TypeError``.
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
    unknown = ([name for name in read if name in p.recipes]
               if unknown is None else list(unknown))
    odd = [n for n in unknown if not isinstance(n, str)]
    if odd:
        raise TypeError(f"unknown takes a list of names, not {odd[0]!r}")
    names = sorted(set(unknown))
    stray = [n for n in names if n not in read]
    if stray:
        raise ValueError(f"unknowns the core does not read: {', '.join(stray)}")
    formless = sorted(n for n in read - set(names) if n not in p.entry_forms)
    if formless:
        raise ValueError(f"knowns with no entry form: {', '.join(formless)}")

    muls = sum(ins.op == "mul" for ins in p._program.instrs)
    if muls != len(cells):
        raise ValueError(f"the program makes {muls} multiplications, "
                         f"the core has {len(cells)} cells")
    col = {n: u for u, n in enumerate(names)}
    factors = [col[name] if name in col else _entry(p.entry_forms[name])
               for _, _, name in cells]
    D = lcm(*(f.denominator for f in factors if type(f) is not int))
    rows, E = _equations(p._program, factors, D, 9 + len(names))
    assignment, free = _solve_linear(names, rows, D, 1 << E)
    return CorrectionSolve(assignment=assignment, free=free)


def _equations(prog, factors, D: int, stride: int, w: int = 16) -> tuple:
    """``(rows, E)``: the 64 equations of :func:`solve_corrections`, read
    off one run of ``prog`` by :func:`_slots`.  Row ``8*i + j`` is ``S =
    2^E`` times equation ``(i, j)``: the nine numerators of its right-hand
    side over ``D``, then the unknowns' coefficients, as
    :func:`_solve_linear` reads them.

    ``factors[k]`` is cell ``k``'s factor, an unknown's index ``u`` or a
    known form, and ``D`` the lcm of the known forms' denominators.  The
    point puts ``x_j`` at ``D`` times ``2^(w*stride*j)``, ``w`` bits a
    field, and the b inputs at zero, so every x-side ``N`` is ``D`` times
    a packed int.  ``mul`` ``k`` multiplies its x slot by its factor: a
    known form as ``N // d * P``, ``P`` its nine numerators packed and
    ``d`` its denominator; unknown ``u`` as ``N // D * -2^(w*(9+u))``, a
    marker ``9 + u`` fields up.  So output ``i``, over ``2^e``, holds in
    the ``stride`` fields from ``stride*j`` on entry ``(i, j)``'s known
    part, its nine numerators over ``D``, then its unknowns'
    coefficients, negated.  Taken from the packed target row times
    ``D * 2^E``, ``E`` the largest ``e`` and at least 0, it leaves each
    row's right-hand side and then its coefficients: the rows of
    :func:`_read`, as they are read.

    No field of that difference exceeds ``D * 2^E`` plus the largest
    output's ``A`` times ``2^(E - e)``; where that bound reaches
    ``2^(w-1)``, ``prog`` is run again with the wider ``w`` of
    :func:`_width`.
    """
    packs = [(D, -(1 << w * (9 + f)), 1) if type(f) is int else
             (f.denominator, sum([c << w * t
                                  for t, c in enumerate(f.numerators)]),
              max(map(abs, f.numerators)))
             for f in factors]
    pack = iter(packs)

    def mul(x, b):
        d, P, a = next(pack)
        return (x[0] // d * P, x[1], x[2] // d * a)

    outs = _slots(prog, dict(zip(INPUTS, [(D << w * stride * j, 0, D)
                                          for j in range(8)]
                                 + [(0, 0, 0)] * 8)), mul)
    E = max([0] + [e for _, e, _ in outs])
    wide = _width((D << E) + max([a << E - e for _, e, a in outs]))
    if wide > w:
        return _equations(prog, factors, D, stride, wide)
    acc = [(D << E) * t - (n << E - e)
           for (n, e, _), t in zip(outs, _target(w, stride))]
    return _read(acc, stride, w, 8), E


def _slots(prog, val: dict, mul) -> list:
    """The output slots of ``prog`` run on ``(N, e, A)`` slots from the
    inputs' slots ``val``, which it fills in: ``N / 2^e`` is the slot's
    value, its fields packed side by side, and ``A`` bounds ``|field|`` for
    every field of ``N``.  ``add``/``sub`` bring both operands to the larger
    ``e``, shifting the other's ``N`` and ``A`` left; ``neg`` negates
    ``N``; a shift by ``k`` is ``e - k``; ``zero`` is ``(0, 0, 0)``; ``mul``
    gives ``mul(x, b)`` of its operands' slots.  Packing is Z-linear, so
    ``N`` is exact whatever its fields hold; ``A`` only decides how it is
    read.
    """
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
            val[ins.dest] = mul((n, e, a), val[ins.b])
        elif op == "neg":
            val[ins.dest] = (-n, e, a)
        elif op == "shift":
            val[ins.dest] = (n, e - ins.k, a)
        else:
            val[ins.dest] = (0, 0, 0)
    return [val[o] for o in prog.outputs]


def _walk(prog, w: int = 64) -> tuple:
    """The lowered program ``prog``, read in one pass of :func:`_slots` on
    packed ints.

    On the x/m side the fields are ``x0..x7``, then ``m0..m{K-1}``, ``m_k``
    the ``k``-th ``mul``; on the b side ``b0..b7``.  ``mul`` ``k`` records
    its operands and gives the marker of ``m_k`` with ``A = 1``.

    Returns ``(V, X, B, w)``: the output slots, and for each ``mul`` the
    slots of its x and b operands.  A field of ``2^(w-1)`` or more in
    magnitude would not read back, so where any of their ``A`` reaches it
    ``prog`` is walked again with the wider ``w`` of :func:`_width`; the
    first walk is 64 bits a field.  Only :func:`compose_symbolic` reads
    the walk, through :func:`_terms`.
    """
    X, B = [], []

    def mul(x, b):
        X.append(x)
        B.append(b)
        return (1 << w * (7 + len(X)), 0, 1)

    V = _slots(prog, {name: (1 << w * (j % 8), 0, 1)
                      for j, name in enumerate(INPUTS)}, mul)
    wide = _width(max([a for _, _, a in V + X + B], default=0))
    return (V, X, B, w) if wide <= w else _walk(prog, wide)


def _product(x, b) -> tuple:
    """The slot of ``x * b`` at the point: every field of the product is
    one field of ``x`` times one of ``b``."""
    return (x[0] * b[0], x[1] + b[1], x[2] * b[2])


@lru_cache(maxsize=64)
def _point_inputs(w: int) -> tuple:
    """The slots of :data:`INPUTS` at :func:`_point`'s point, ``w`` bits a
    field: ``x_j`` is ``2^(9wj)`` and ``b_l`` is ``2^(w(l+1))``."""
    return tuple((1 << w * (9 * j if j < 8 else j - 7), 0, 1)
                 for j in range(16))


def _point(prog, w: int = 16) -> tuple:
    """``(outs, w)``: the output slots of ``prog`` at the point of
    :func:`_point_inputs`, run by :func:`_slots` with ``w`` wide enough for
    :func:`_refused` to compare them.

    Output ``(N, e, A)`` is compared as ``N * 2^-e`` with its packed
    target row times ``2^e``, the negative one of the two exponents taken
    as 0.  A field of the one is at most ``A * 2^-e`` in magnitude (``A``
    for ``e >= 0``), and a field of the other ``2^e`` (1 for ``e < 0``).
    Signed fields below ``2^(w-1)`` in magnitude are the digits of one int
    in base ``2^w`` and of no other, so where the larger bound reaches
    ``2^(w-1)``, ``prog`` is run again with ``w`` one more than its bit
    length.
    """
    outs = _slots(prog, dict(zip(INPUTS, _point_inputs(w))), _product)
    reach = max([a << -e if e < 0 else max(a, 1 << e) for _, e, a in outs],
                default=0)
    return (outs, w) if reach.bit_length() < w else _point(
        prog, reach.bit_length() + 1)


def _refused(prog) -> list:
    """The indices, in order, of the 8 outputs of the program ``prog``,
    which ``Program.validate`` accepted, whose ints at :func:`_point`
    differ from their packed target rows: the outputs that do not compute
    their coefficient of the hyperbolic-octonion product for every
    input."""
    outs, w = _point(prog)
    return [i for i, ((n, e, _), t) in enumerate(zip(outs, _target(w)))
            if (n << -e != t if e < 0 else n != t << e)]


def _width(bound: int) -> int:
    """The fewest bits, 16 or a multiple of 64, that hold every signed
    field of magnitude at most ``bound``: more than ``bound``'s bit
    length."""
    n = bound.bit_length()
    return 16 if n < 16 else (n + 64) // 64 * 64


def _read(ns, width: int, w: int = 64, per: int = 1) -> list:
    """The signed ``w``-bit fields of the packed ints ``ns``, ``per``
    rows of ``width`` fields to an int, as one tuple of ints per row.
    ``w`` is 16 or a multiple of 64 and every field lies in
    ``[-2^(w-1), 2^(w-1))``.

    Biased by ``2^(w-1)`` per field, no field carries into the next, and
    xor with the same bias leaves each field in two's complement: the
    joined little-endian bytes of all of ``ns`` are one array of signed
    ``w``-bit ints, read with one ``memoryview.cast`` where ``w`` is 16 or
    64 on a little-endian machine and field by field otherwise.
    """
    step, count = w // 8, width * per
    bias = int.from_bytes((bytes(step - 1) + b"\x80") * count, "little")
    buf = b"".join([((n + bias) ^ bias).to_bytes(step * count, "little")
                    for n in ns])
    if step in (2, 8) and byteorder == "little":
        flat = memoryview(buf).cast("h" if step == 2 else "q").tolist()
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

    ``V`` holds one row per output over ``x0..x7, m0..m{K-1}``, ``X[k]`` the
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

    Row ``r`` is ``S`` times an equation: its first nine ints are the
    numerators of the right-hand side over ``D``, and unknown ``col``'s
    coefficient is at ``9 + col``.  A pivot ``a`` clears its column from
    row ``r`` by ``r <- a*r - f*pivot`` (the integer-preserving step of
    Bareiss elimination, without Bareiss's division by the previous pivot,
    which the chain's small coefficients do not need); ``scale`` keeps
    what each row was multiplied by.  A solved unknown is its pivot row's
    first nine ints over ``D * a``, ``a`` its final pivot, and a residual,
    as plain subtraction of forms would leave it, its first nine over
    ``D * S * scale``: lowest-terms forms with a positive denominator.
    """
    n = len(names)
    scale = [1] * len(rows)
    pivot_of_col = {}
    rank = 0
    for col in range(n):
        # the rows with a nonzero in col, in order, scanned in C; the
        # first at or below rank is the pivot and moves up to rank, whose
        # row, zero in col, takes its place
        hits = list(compress(count(), map(itemgetter(9 + col), rows)))
        i = bisect_left(hits, rank)
        if i == len(hits):
            continue
        piv = hits.pop(i)
        rows[rank], rows[piv] = rows[piv], rows[rank]
        scale[rank], scale[piv] = scale[piv], scale[rank]
        prow = rows[rank]
        a = prow[9 + col]
        for r in hits:
            row, f = rows[r], rows[r][9 + col]
            if a == 1 and f in (1, -1):
                rows[r] = list(map(sub if f == 1 else add, row, prow))
            else:
                rows[r] = [a * u - f * v for u, v in zip(row, prow)]
                scale[r] *= a
        pivot_of_col[col] = rank
        rank += 1

    for row, s in zip(rows[rank:], scale[rank:]):
        if any(row[:9]):
            raise InconsistentSystemError(
                f"no entry assignment satisfies the fixed stages "
                f"(residual {_form_over(row[:9], D * S * s)} over zero "
                f"coefficients)")

    free = [names[c] for c in range(n) if c not in pivot_of_col]
    assignment = {}
    for col, name in enumerate(names):
        if col in pivot_of_col:
            prow = rows[pivot_of_col[col]]
            assignment[name] = _form_over(prow[:9], D * prow[9 + col])
        else:
            assignment[name] = LinForm.zero()
    return assignment, free


def _form_over(nums, den) -> LinForm:
    """The form ``nums / den`` in lowest terms, for a nonzero int ``den``."""
    if den < 0:
        nums, den = [-v for v in nums], -den
    return _reduced(tuple(nums), den)
