"""Lowering a pipeline into a straight-line program, and compiling it.

The lowering does not walk the stages itself: it runs the pipeline's own
``precompute`` and ``apply`` on slot scalars whose arithmetic appends
instructions, so the program is exactly the walk the interpreter performs.
The program is three-address code over the sixteen input slots
``x0..x7``/``b0..b7``.  Ops are ``add``, ``sub``, ``neg``, ``shift``
(multiply by 2^k), ``mul`` and ``zero`` (a zero of its operand's scalar
kind, for a structurally empty lane); every slot is named ``t`` and
digits and assigned exactly once.
The lowering is refused unless :meth:`Program.validate` finds the shape of
a bilinear algorithm and every constant is ``+-2^k``
(:func:`~octofast.stages.pow2_exponent` gives the shift's ``k``).

A pipeline is lowered when it is built and keeps that program
(``Pipeline._program``); :func:`flatten` hands it out once the pipeline is
certified, the form that is emitted as text or CSV.  :func:`compile_program`
turns a program with 8 outputs into one Python function that evaluates the
program's operation tree and returns the product as an
:class:`~octofast.algebra.Octo`; each program compiles it once, on its first
product, and keeps it in ``Program._kernel``.  It has one body per kind of
scalar, chosen by the two operands' :attr:`~octofast.algebra.Octo.kind`:
operands of kind ``float`` run a body whose negations are folded into the
additions and products that read them, with the walk's bits; of kind
``int`` a twin in exact dyadic ints, folded the same way, that tests the
low bits of all its outputs at once; every other kind the walk op for op.
The folded bodies build the product's ``Octo`` with its kind, so the next
product reads it as well.  In each body, a slot that one operation reads,
and that is not an output, is written into that reader as a parenthesised
sub-expression, up to a fixed nesting depth; every other slot is assigned
to its name (see :func:`program_source`, :func:`_fold` and
:func:`_int_kernel_source`).  :func:`octofast.kernel.mul_fast` and
:func:`eval_program` return what that function returns, so execution,
counting, emission and proof share it.

Emission is deterministic: same pipeline, byte-identical text.  Free ops
(``neg``/``shift``/``zero``) are memoized so a value the walk negates or
shifts twice is computed once; countable ops are never merged, so the
program's instruction tallies match the instrumented interpreter's.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import isfinite
from sys import float_info
from typing import Optional

from .algebra import Octo, _new, _set_c, _set_kind
from .linform import DegreeError
from .stages import _Record, _store, pow2, pow2_exponent, zero_like

INPUTS = tuple(f"x{i}" for i in range(8)) + tuple(f"b{i}" for i in range(8))

# what a slot the program assigns may be named: the compiled kernel writes
# slot names into Python source, where they must not meet a keyword, a name
# of its own or a scaled copy such as ``b0_p4``
_SLOT_NAME = re.compile("t[0-9]+").fullmatch


class OpCount(_Record):
    """The counted operations of a kernel: multiplications and
    additions (subtractions included)."""

    def __init__(self, mults: int, adds: int):
        _store(self, mults=mults, adds=adds)

    def __str__(self):
        return f"mults={self.mults} adds={self.adds}"


class Instr(_Record):
    """``dest = op a [b]`` or ``dest = shift a k``; ``neg``, ``shift`` and
    ``zero`` (a zero of ``a``'s scalar kind) are free, the rest counted."""

    def __init__(self, dest: str, op: str, a: str, b: Optional[str] = None,
                 k: Optional[int] = None):
        # op: add | sub | neg | shift | mul | zero
        _store(self, dest=dest, op=op, a=a, b=b, k=k)

    def to_text(self) -> str:
        return f"{self.dest} = {self.op} {self.a} {self.second()}".rstrip()

    def second(self) -> str:
        if self.op == "shift":
            return str(self.k)
        return self.b if self.b is not None else ""


# per op: whether it reads a second slot ``b``, and the type of its ``k``
_OPERANDS = {"add": (True, type(None)), "sub": (True, type(None)),
             "mul": (True, type(None)), "neg": (False, type(None)),
             "zero": (False, type(None)), "shift": (False, int)}


class Program(_Record):
    """Straight-line code: ``instrs`` over :data:`INPUTS`, then ``outputs``.

    ``_kernel``, outside the fields, runs the program: it is
    :meth:`_first_product` until the first product, which puts
    :func:`compile_program`'s function in its place.
    """

    def __init__(self, instrs: tuple, outputs: tuple):
        _store(self, instrs=tuple(instrs), outputs=tuple(outputs),
               _kernel=self._first_product)

    def _first_product(self, x, b):
        """Compile this program, put the function in ``_kernel``'s place
        and run it on ``x`` and ``b``."""
        _store(self, _kernel=compile_program(self))
        return self._kernel(x, b)

    def opcount(self) -> OpCount:
        mults = sum(1 for i in self.instrs if i.op == "mul")
        adds = sum(1 for i in self.instrs if i.op in ("add", "sub"))
        return OpCount(mults, adds)

    def _check_outputs(self) -> None:
        """8 outputs, the coefficients of the product; ``ValueError``
        otherwise."""
        if len(self.outputs) != 8:
            raise ValueError(f"a program has 8 outputs, the coefficients of "
                             f"the product; this one has {len(self.outputs)}")

    def _check_form(self) -> None:
        """The form of straight-line code: every op known with its operands
        (see :data:`_OPERANDS`), every slot named ``t`` and digits, assigned
        once and read only after that, and every output defined;
        ``ValueError`` otherwise."""
        defined = set(INPUTS)
        for ins in self.instrs:
            if not _SLOT_NAME(ins.dest):
                raise ValueError(f"slot {ins.dest!r}: not t followed by digits")
            if _OPERANDS.get(ins.op) != (ins.b is not None, type(ins.k)):
                raise ValueError(f"{ins.dest}: not an instruction: op "
                                 f"{ins.op!r}, b {ins.b!r}, k {ins.k!r}")
            for src in (ins.a,) if ins.b is None else (ins.a, ins.b):
                if src not in defined:
                    raise ValueError(f"{ins.dest}: source {src} not yet defined")
            if ins.dest in defined:
                raise ValueError(f"slot {ins.dest} assigned twice")
            defined.add(ins.dest)
        for o in self.outputs:
            if o not in defined:
                raise ValueError(f"output {o} undefined")

    def validate(self) -> dict:
        """Two passes: the form, :meth:`_check_form`, then the shape of a
        bilinear algorithm.  Each slot is on a side: ``x`` (from ``x0..x7``
        alone), ``b`` (from ``b0..b7`` alone) or ``m`` (reads a product).  A
        ``mul`` not x-side times b-side, in that order, an ``add``/``sub``
        mixing the b side with another, and a b-side output raise
        :class:`~octofast.linform.DegreeError`; a form fault ``ValueError``.
        Returns the side of each slot, inputs included, as a ``dict``.
        """
        self._check_form()
        side = dict.fromkeys(INPUTS[:8], "x") | dict.fromkeys(INPUTS[8:], "b")
        for ins in self.instrs:
            sa, sb = side[ins.a], side.get(ins.b, side[ins.a])
            if ins.op == "mul":
                if (sa, sb) != ("x", "b"):
                    raise DegreeError(f"{ins.to_text()}: not an x-side value "
                                      f"times a b-side value")
                sa = "m"
            elif (sa == "b") is not (sb == "b"):
                raise DegreeError(f"{ins.to_text()}: mixes the x and b sides")
            side[ins.dest] = "m" if sb == "m" else sa
        if any(side[o] == "b" for o in self.outputs):
            raise DegreeError("an output derives from b0..b7 alone")
        return side


class _Emitter:
    def __init__(self):
        self.instrs = []
        self.memo = {}  # free ops only: merging countable ops would skew tallies

    def emit(self, op, a, b=None, k=None) -> str:
        key = (op, a, k)
        if key in self.memo:
            return self.memo[key]
        dest = f"t{len(self.instrs) + 1}"
        self.instrs.append(Instr(dest, op, a, b, k))
        if op in ("neg", "shift", "zero"):
            self.memo[key] = dest
        return dest


class _Slot:
    """A scalar whose arithmetic appends instructions instead of computing.

    Running the pipeline's own precompute and apply on slots records exactly
    the operations execution performs.  Stage scales and recipe factors must
    be constants ``+-2^k``: multiplying by one becomes a free ``shift`` by
    :func:`~octofast.stages.pow2_exponent` (none for ``k = 0``), negated if
    needed, and any other constant raises ``ValueError``.
    """

    __slots__ = ("name", "em")

    def __init__(self, name: str, em: _Emitter):
        self.name = name
        self.em = em

    def zero(self) -> "_Slot":
        return _Slot(self.em.emit("zero", self.name), self.em)

    def __add__(self, other):
        return _Slot(self.em.emit("add", self.name, other.name), self.em)

    def __sub__(self, other):
        return _Slot(self.em.emit("sub", self.name, other.name), self.em)

    def __neg__(self):
        return _Slot(self.em.emit("neg", self.name), self.em)

    def __mul__(self, other):
        if isinstance(other, _Slot):
            return _Slot(self.em.emit("mul", self.name, other.name), self.em)
        k = pow2_exponent(other)
        out = _Slot(self.em.emit("shift", self.name, k=k), self.em) if k else self
        return -out if other < 0 else out


def _lower(p) -> Program:
    """Unroll pipeline ``p`` (precompute and main chain) into a Program.

    No certification check: this is what ``p`` computes, proved or not,
    once :meth:`Program.validate` finds the shape of a bilinear algorithm.
    """
    em = _Emitter()
    slots = [_Slot(name, em) for name in INPUTS]
    outs = p.apply(slots[:8], p.precompute(slots[8:]))
    prog = Program(em.instrs, [s.name for s in outs])
    prog.validate()
    return prog


def flatten(p) -> Program:
    """The lowered program of a certified pipeline ``p``, kept on ``p``.

    Requires a certified pipeline, one proved to compute the product, so an
    emitted program always carries that claim; flattening an unproven
    factorization would launder an unverified claim into artifact form.
    """
    if not getattr(p, "certified", False):
        raise ValueError("pipeline is not certified; run verify.certify first")
    return p._program


_OPS = {"add": "{a} + {b}", "sub": "{a} - {b}", "mul": "{a} * {b}",
        "neg": "-{a}", "scale": "{a} * {b}", "zero": "_zero_like({a})"}

# the literals a folded body reads in place of a slot: the twin's zero, and
# the float body's zero and its negation
_LITERALS = ("0", "0.0", "-0.0")

# Deepest parenthesis nesting a slot's expression may reach before it is
# assigned to its name instead: CPython's parser refuses more than 200
# nested parentheses, so a long chain of single-use slots is cut into
# statements.  A statement nests at most one level deeper than this.
_MAX_NESTING = 64


def _sources(node: list) -> list:
    """The slots that ``node = [op, a, b]`` reads: a ``scale``'s ``b`` is
    the text of its constant factor, a ``neg``'s or ``zero``'s is ``None``."""
    return node[1:] if node[0] in ("add", "sub", "mul") else node[1:2]


def _render(node: dict, keep: set) -> tuple:
    """The statements that compute the slots of ``node``, in its order,
    and ``text``: what a reader writes for each slot.

    ``node[slot]`` is ``[op, a, b]`` over slots, :data:`INPUTS` and
    :data:`_LITERALS`, with ``op`` one of :data:`_OPS`; ``["scale", a, c]``
    is ``a`` times the constant whose source text is ``c``.  A slot read
    exactly once by the nodes, and not in ``keep``, is written into its one
    reader as a parenthesised sub-expression, unless its expression is
    already :data:`_MAX_NESTING` parentheses deep; every other slot is
    assigned to its name.
    """
    reads = Counter(src for n in node.values() for src in _sources(n))
    text = {name: name for name in INPUTS + _LITERALS}
    depth = dict.fromkeys(text, 0)
    lines = []
    for r, (op, a, b) in node.items():
        rhs = _OPS[op].format(a=text[a], b=text.get(b, b))
        d = max(depth[src] for src in _sources(node[r]))
        if op == "zero":
            d += 1  # the call's parentheses
        if reads[r] == 1 and r not in keep and d < _MAX_NESTING:
            text[r], depth[r] = f"({rhs})", d + 1
        else:
            lines.append(f"    {r} = {rhs}")
            text[r], depth[r] = r, 0
    return lines, text


def _scale(k: int) -> str:
    """The kernel's global that holds the exact factor ``pow2(k)``
    (``_Q1``, ``_QN3``: ``N`` marks a negative ``k``)."""
    return f"_Q{k}" if k >= 0 else f"_QN{-k}"


def _float_factor(k: int) -> str:
    """The float body's text for ``2**k``: its float literal (``0.125``,
    ``2.0``) when ``2**k`` is a finite float (``k < 1024``), else the
    global :func:`_scale`, so that a float times it raises the walk's
    ``OverflowError``."""
    return repr(float(pow2(k))) if k < float_info.max_exp else _scale(k)


def _fold(prog: Program, exact: bool) -> tuple:
    """``(node, outs)``: the nodes of a body of ``prog`` with its negations
    folded into their readers, as :func:`_render` takes them, and what each
    output reads, ``(slot, e)`` for the value ``slot / 2**e``.

    One forward walk gives each slot a triple ``(root, c, e)``: its value
    is ``c`` times ``root``'s over ``2**e``, with ``c = +-2**j``.  An input
    is ``(name, 1, 0)``.  A ``neg`` emits nothing and flips ``c``; a
    ``zero`` is the literal zero with ``c = 1``.  A reader reads ``c``'s
    magnitude as ``root``'s copy (below) and its sign by the form it takes:
    a ``mul`` multiplies the signs, and an ``add``/``sub`` (a ``sub``
    flipping its second operand's sign) writes ``a + b``, ``a - b`` or
    ``b - a`` with a plus sign.  Every ``add``, ``sub`` and ``mul`` makes a
    node ``[op, a, b]`` named by its slot, with the triple ``(dest, +-1,
    e)``, and an output whose ``c`` is negative keeps its one negation.

    ``exact`` gives the nodes of the int twin (:func:`_int_kernel_source`),
    which the kernel runs on two operands of kind ``int``, and whose slots
    hold int numerators, each over its ``2**e``, with ``e >= 0`` fixed at
    codegen.  Both operands carrying a minus fold into one tracked sign,
    ``a + b`` with ``c = -1``; written the float body's way, ``(-a) - b``,
    the shipped twin has 7 negations in place of 4, and its ``int-pairs``
    ``fast_us_p50`` was 1-7 % higher in 4 of 4 paired runs (CPython
    3.11).  The literal ``0``, which has no sign, takes its
    partner's, so that ``... + 0`` stays ``... + 0``; without that the
    twin writes ``t139 = 0 - (t118 + t122)``, a negation spelled as a
    subtraction that the flipped-addition test refuses.  A shift by ``k``
    gives ``(root, c, e - k)`` when ``e >= k``, else ``(root, c * 2**(k -
    e), 0)``; an ``add``/``sub`` reads both operands at the larger of
    their ``e``.  Every product sits at one exponent ``top``: a first walk
    puts each ``mul`` at its own ``e_x + e_b``, and ``top`` is the
    largest.  A ``mul`` reads its b operand times a further ``2**(top -
    e_x - e_b)`` (the value of ``<< d``, and an int product that CPython
    specialises), so sums of products need no alignment; with each
    product at its own exponent the shipped twin has 18 scalings in place
    of 13, and its ``int-pairs`` ``fast_us_p50`` was 2-5 % higher in 4 of
    4 paired runs.  A reader reads ``(r, c)`` as ``r`` when ``|c|`` is
    1 or ``r`` is ``0``, else as ``r``'s one copy, made just before its
    first reader and named by root, sign and ``j``: ``r_pj`` for
    ``2**j``, ``r_nj`` for ``-2**j`` (``b0_p4``, ``t1_n0``); it is ``-r``
    for ``c == -1``, else ``r`` times ``c`` written in hex.

    Otherwise, the nodes of the float body, which the kernel runs on two
    operands of kind ``float``: ``e`` stays 0 and ``c`` is +-1, a shift
    by ``k`` is a node ``["scale", root, _float_factor(k)]`` that keeps the
    sign, and the zero is the literal ``0.0`` (``-0.0`` negated).
    Negation is exact in IEEE 754 and round-to-nearest is symmetric, so a
    product's or a sum's rounding commutes with a sign; ``x - y`` is ``x +
    (-y)``; and a product's sign is its operands' product.  So each form
    computes the walk's bits, signed zeros included.  The one exception is
    both operands carrying a minus: ``-(a + b)`` is ``-0.0`` where ``a =
    -b`` and the walk's ``(-a) + (-b)`` is ``+0.0``, so that case is
    written ``(-a) - b``, through ``a``'s copy ``a_n0``, with a plus sign.
    """
    node = {}
    zero = "0" if exact else "0.0"

    def scaled(r, c):
        if c == 1 or r == "0":
            return r
        if r == "0.0":
            return "-0.0"  # a float's c is +-1
        name = f"{r}_{'n' if c < 0 else 'p'}{abs(c).bit_length() - 1}"
        node.setdefault(name, ["neg", r, None] if c == -1
                        else ["scale", r, hex(c)])
        return name

    def walk(top):
        """Each slot's triple, and ``node`` built anew; ``top=None`` puts
        each product at its own ``e_x + e_b``."""
        node.clear()
        val = {name: (name, 1, 0) for name in INPUTS}
        for ins in prog.instrs:
            r, c, e = val[ins.a]
            if ins.op == "zero":
                val[ins.dest] = (zero, 1, 0)
            elif ins.op == "neg":
                val[ins.dest] = (r, -c, e)
            elif ins.op == "shift" and exact:
                val[ins.dest] = ((r, c, e - ins.k) if e >= ins.k
                                 else (r, c << (ins.k - e), 0))
            elif ins.op == "shift":
                node[ins.dest] = ["scale", r, _float_factor(ins.k)]
                val[ins.dest] = (ins.dest, c, 0)
            elif ins.op == "mul":
                rb, cb, eb = val[ins.b]
                d = e + eb if top is None else top
                node[ins.dest] = ["mul", scaled(r, abs(c)),
                                  scaled(rb, abs(cb) << (d - e - eb))]
                val[ins.dest] = (ins.dest, -1 if (c < 0) != (cb < 0) else 1, d)
            else:
                rb, cb, eb = val[ins.b]
                d = max(e, eb)
                c = c << (d - e)
                cb = (cb if ins.op == "add" else -cb) << (d - eb)
                if rb == "0":
                    cb = c
                elif r == "0":
                    c = cb
                a, b, sign = scaled(r, abs(c)), scaled(rb, abs(cb)), 1
                if c > 0:
                    node[ins.dest] = ["add" if cb > 0 else "sub", a, b]
                elif cb > 0:
                    node[ins.dest] = ["sub", b, a]
                elif exact:
                    node[ins.dest], sign = ["add", a, b], -1
                else:
                    node[ins.dest] = ["sub", scaled(r, -1), b]
                val[ins.dest] = (ins.dest, sign, d)
        return val

    val = walk(None)
    val = walk(max((val[ins.dest][2] for ins in prog.instrs
                    if ins.op == "mul"), default=0))
    return node, [(scaled(r, c), e) for r, c, e in map(val.get, prog.outputs)]


def _exact_octo(outs: str, kind: str, indent: str) -> list:
    """Lines that return the ``Octo`` of the outputs ``outs`` with kind
    ``kind``, built without ``Octo``'s checks, which the outputs pass by
    construction."""
    return [f"{indent}y = _new(_Octo)",
            f"{indent}_set_c(y, ({outs},))",
            f"{indent}_set_kind(y, {kind})",
            f"{indent}return y"]


def _int_kernel_source(prog: Program, unpack: list) -> list:
    """Lines of ``_int_kernel(x, b)``, the twin in exact dyadic ints that
    :func:`program_source`'s ``kernel`` runs when both operands' kind is
    ``int`` (not ``bool``, no subclass).

    Its nodes are :func:`_fold`'s with ``exact``: each slot's numerator
    ``N`` is an int and its value ``N / 2**e``, with ``e >= 0`` fixed at
    codegen.  Int products are exact, so each numerator is the walk's value
    times ``2**e``, and an output is ``N >> e`` when its low ``e`` bits
    are zero, else ``Fraction(N, 2**e)``: each value equals the walk's, and
    an integral one is an ``int`` where the walk has a ``Fraction``.  One
    shared test of all outputs' low bits (``not (t1 & 0x7 | t2 & 0x7)``)
    comes first: when it holds, every output is its ``N >> e``, and the
    twin builds the ``Octo`` of those eight ints itself, with kind
    ``int``, so that a product of that product runs the twin again.
    Otherwise each output takes its own rule, ``N >> e if not N & (2**e -
    1) else Fraction(N, 2**e)``, and the checking ``Octo`` finds the kind
    of the mix.  Alone, the shared test did not pay for speed (over 6
    paired ``int-pairs`` runs, ``fast_us_p50`` medians 2.78 µs with it and
    2.81 µs without, CPython 3.11); it is here for the kind, which one
    rule per output could state only through the checking ``Octo``'s type
    tests.  Each output's bits are masked before the ``|``: an ``&`` with
    a small mask gives a small int, where an ``|`` of wide numerators
    builds a wide one (on 16,400-bit numerators the test took 1.7 µs this
    way and 8.2 µs as ``not (t1 | t2) & 0x7``; on small ints the two forms
    took the same time, in-process ``timeit``, CPython 3.11).  What an
    output reads is kept named, as the test and the rules read it several
    times.

    Every int literal of the twin, a copy's factor and an output's mask
    ``2**e - 1`` and denominator ``2**e``, is written in hex, which
    CPython's limit on the digits of an int does not cover, so no constant
    is too large to write; only the exponent of a ``>>`` and the literal
    ``0`` are decimal.
    """
    node, reads = _fold(prog, exact=True)
    lines, text = _render(node, {r for r, _ in reads})
    outs = [(text[r], e) for r, e in reads]
    whole = ", ".join(f"{t} >> {e}" if e else t for t, e in outs)
    low = " | ".join(f"{t} & {(1 << e) - 1:#x}" for t, e in outs if e)
    if not low:
        return (["def _int_kernel(x, b):"] + unpack + lines
                + _exact_octo(whole, "_int", "    "))
    each = ", ".join(f"{t} >> {e} if not {t} & {(1 << e) - 1:#x} "
                     f"else _Fraction({t}, {1 << e:#x})" if e else t
                     for t, e in outs)
    return (["def _int_kernel(x, b):"] + unpack + lines
            + [f"    if not ({low}):"] + _exact_octo(whole, "_int", "        ")
            + [f"    return _Octo(({each},))"])


def program_source(prog: Program) -> str:
    """Python source of ``kernel(x, b)``: the program's operation tree in
    three bodies, one per kind of scalar, with each slot that is read
    exactly once written into its reader.

    ``prog`` is a lowered program (inputs :data:`INPUTS`) with exactly 8
    outputs, else ``ValueError``; ``x`` and ``b`` are ``Octo``s, and the
    result is the ``Octo`` of the output slots, equal in value and type
    to what the walk it was lowered from, ``p.apply(x.c,
    p.precompute(b))``, computes, bit for bit on floats, with
    the one exception below.  A program whose form
    :meth:`Program._check_form` refuses raises ``ValueError`` before any
    source is made; a well-formed one need not be bilinear.  A slot read
    by exactly one operation and not an output is written into that reader
    as a parenthesised sub-expression (up to a fixed nesting depth, see
    :func:`_render`); every other slot is assigned to its name, so only
    the stores and loads of single-use temporaries are saved.

    ``kernel`` opens with two slot reads, ``x.kind`` and ``b.kind``, which
    ``Octo`` set when it checked the coefficients; an operand that has no
    ``kind`` (an 8-sequence of coefficients) is made an ``Octo`` first,
    through its checks, and the kernel runs on the two ``Octo``s.  Then:

    - When both kinds are ``float``, it runs its own body on ``x.c`` and
      ``b.c``:
      :func:`_fold`'s, whose negations are folded into the ``+``/``-``
      that read them and whose shifts multiply by float literals
      (``0.125``, ``2.0``; see :func:`_float_factor`), with ``0.0`` for a
      ``zero``.  Only a ``neg`` read by a sum whose other operand carries
      a minus too, and an output that ends negative, stay negations.  The
      body ends in one test, ``_isfinite`` of the outputs' sum, before the
      checking ``Octo``: a sum of floats with an infinite or NaN term is
      infinite or NaN, so a finite sum proves every output finite, and
      those outputs, all floats, make their ``Octo`` without its checks,
      with kind ``float`` (``_new(_Octo)``, then ``c``, then ``kind``).
      A sum that overflows, though its terms are finite, falls through to
      ``Octo``, which checks the outputs one by one, so nothing ``Octo``
      refuses (a non-finite output raises its ``ValueError``) gets
      through.
    - When both are ``int``, it returns ``_int_kernel(x.c, b.c)``, the
      twin in exact dyadic ints that :func:`_int_kernel_source`
      describes, folded the same way: ``N >> e`` when the low ``e`` bits
      of an output's numerator ``N`` are zero, else ``Fraction(N,
      2**e)``, and kind ``int`` when all are zero.  This is the exception
      to equal types: integral values are ``int``s where the walk has
      ``Fraction``s.
    - Every other kind (``Fraction``, mixed int and float, ``bool``,
      subclasses, instrumented scalars, linear forms) runs
      ``_generic_kernel(x.c, b.c)``: the walk op for op, each ``neg`` a
      negation, each ``zero`` ``zero_like`` of its operand, as in a
      quasi-diagonal stage, ending in the checking ``Octo``.  A folded
      body does not serve mixed operands: an int ``0`` has no sign, so
      ``0 + (-0.0)`` is ``0.0`` where ``-0.0 - 0`` is ``-0.0``.

    The two helper bodies take the operands' coefficients, two
    8-sequences, so either can be run on its own.  A shift by ``k`` in the
    generic body multiplies by the exact factor ``pow2(k)`` (an int for
    ``k >= 0``, a ``Fraction`` for ``k < 0``, as the walk's stages
    multiply by), which is never written into the source: it is the
    kernel's global ``_scale(k)`` (``_Q1``, ``_QN3``), which
    :func:`compile_program` binds, so no constant is too large to write.
    """
    prog._check_outputs()
    prog._check_form()
    unpack = ["    " + ", ".join(INPUTS[:8]) + ", = x",
              "    " + ", ".join(INPUTS[8:]) + ", = b"]
    # every instruction, dead ones included, as the walk runs them all
    node = {ins.dest: ["scale", ins.a, _scale(ins.k)] if ins.op == "shift"
            else [ins.op, ins.a, ins.b] for ins in prog.instrs}
    generic = (["def _generic_kernel(x, b):"] + unpack
               + _render(node, set(prog.outputs))[0]
               + [f"    return _Octo(({', '.join(prog.outputs)},))"])
    node, reads = _fold(prog, exact=False)
    lines, text = _render(node, {r for r, _ in reads})
    outs = [text[r] for r, _ in reads]
    head = ["def kernel(x, b):",
            "    try:",
            "        xk, bk = x.kind, b.kind",
            "    except AttributeError:",
            "        return kernel(_Octo(x), _Octo(b))",
            "    if xk is not _float or bk is not _float:",
            "        if xk is _int and bk is _int:",
            "            return _int_kernel(x.c, b.c)",
            "        return _generic_kernel(x.c, b.c)"] + [
                line + ".c" for line in unpack]
    tail = ([f"    if _isfinite({' + '.join(outs)}):"]
            + _exact_octo(", ".join(outs), "_float", "        ")
            + [f"    return _Octo(({', '.join(outs)},))"])
    return "\n".join(_int_kernel_source(prog, unpack) + ["", ""] + generic
                     + ["", ""] + head + lines + tail) + "\n"


def compile_program(prog: Program):
    """``prog`` as a Python function ``kernel(x, b) -> Octo``, compiled
    from :func:`program_source`: the program's operations, with single-use
    slots inlined, in the float body, the int twin and the generic body.
    Each shift's exact factor ``pow2(k)`` is bound in the function's
    globals as ``_scale(k)``, which the generic body reads instead of a
    literal.  A program without exactly 8 outputs raises ``ValueError``."""
    scope = {"_zero_like": zero_like, "_isfinite": isfinite,
             "_float": float, "_int": int, "_Fraction": Fraction,
             "_Octo": Octo, "_new": _new, "_set_c": _set_c,
             "_set_kind": _set_kind}
    scope.update({_scale(ins.k): pow2(ins.k)
                  for ins in prog.instrs if ins.op == "shift"})
    exec(compile(program_source(prog), "<octofast kernel>", "exec"), scope)
    return scope["kernel"]


def eval_program(prog: Program, x: Octo, b: Octo) -> Octo:
    """Run ``prog`` on the ``Octo``s ``x`` and ``b`` through
    ``prog._kernel``, the function :func:`compile_program` made of it on
    its first product, which picks its body by their kinds, and return
    the ``Octo`` it builds: for ``flatten(p)``, the very function
    that :func:`octofast.kernel.mul_fast` runs for ``p``, and so the same
    values and types.

    Kept because the frozen benchmark (``perfbench/layers.py``) imports it.
    """
    kernel = prog._kernel
    return kernel(x, b)


def emit_text(prog: Program) -> str:
    """Deterministic text form; same program, byte-identical output."""
    oc = prog.opcount()
    lines = ["# straight-line hyperbolic-octonion product: y = x * b",
             "# inputs: " + " ".join(INPUTS)]
    lines.extend(ins.to_text() for ins in prog.instrs)
    lines.append("# outputs: " + " ".join(prog.outputs))
    lines.append(f"# {oc}")
    return "\n".join(lines) + "\n"


def emit_csv(prog: Program) -> str:
    """One instruction per row (``dest,op,src1,src2``), no header."""
    return "".join(f"{i.dest},{i.op},{i.a},{i.second()}\n"
                   for i in prog.instrs)
