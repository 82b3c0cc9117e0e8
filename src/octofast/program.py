"""Flattening a certified pipeline into a straight-line program.

:func:`flatten` does not walk the stages itself: it runs the pipeline's own
``precompute`` and ``apply`` on slot scalars whose arithmetic appends
instructions, so the program is the walk that execution and operation
counting run.  The program is three-address code over the sixteen
input slots ``x0..x7``/``b0..b7`` (plus a constant ``zero`` slot for
structurally empty lanes).  Ops are ``add``, ``sub``, ``neg``, ``shift``
(multiply by 2^k) and ``mul``; every slot is assigned exactly once.

Emission is deterministic: same pipeline, byte-identical text.  Free ops
(``neg``/``shift``) are memoized so a value the walk negates or shifts twice
is computed once; countable ops are never merged, so the program's
instruction tallies match the instrumented interpreter's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Octo
from .opcount import OpCount

INPUTS = tuple(f"x{i}" for i in range(8)) + tuple(f"b{i}" for i in range(8)) \
    + ("zero",)


@dataclass(frozen=True)
class Instr:
    dest: str
    op: str            # add | sub | neg | shift | mul
    a: str
    b: Optional[str] = None
    k: Optional[int] = None

    def to_text(self) -> str:
        if self.op == "shift":
            return f"{self.dest} = shift {self.a} {self.k}"
        if self.b is None:
            return f"{self.dest} = {self.op} {self.a}"
        return f"{self.dest} = {self.op} {self.a} {self.b}"

    def second(self) -> str:
        if self.op == "shift":
            return str(self.k)
        return self.b if self.b is not None else ""


@dataclass(frozen=True)
class Program:
    inputs: tuple
    instrs: tuple
    outputs: tuple

    def opcount(self) -> OpCount:
        mults = sum(1 for i in self.instrs if i.op == "mul")
        adds = sum(1 for i in self.instrs if i.op in ("add", "sub"))
        return OpCount(mults, adds)

    def validate(self) -> None:
        """Single forward pass: every use after its one definition."""
        defined = set(self.inputs)
        for ins in self.instrs:
            if ins.a not in defined:
                raise ValueError(f"{ins.dest}: source {ins.a} not yet defined")
            if ins.b is not None and ins.b not in defined:
                raise ValueError(f"{ins.dest}: source {ins.b} not yet defined")
            if ins.dest in defined:
                raise ValueError(f"slot {ins.dest} assigned twice")
            defined.add(ins.dest)
        for o in self.outputs:
            if o not in defined:
                raise ValueError(f"output {o} undefined")


class _Emitter:
    def __init__(self):
        self.instrs = []
        self.n = 0
        self.memo = {}  # free ops only: merging countable ops would skew tallies

    def _new(self, op, a, b=None, k=None) -> str:
        self.n += 1
        dest = f"t{self.n}"
        self.instrs.append(Instr(dest, op, a, b, k))
        return dest

    def add(self, a, b):
        return self._new("add", a, b)

    def sub(self, a, b):
        return self._new("sub", a, b)

    def mul(self, a, b):
        return self._new("mul", a, b)

    def neg(self, a):
        key = ("neg", a)
        if key not in self.memo:
            self.memo[key] = self._new("neg", a)
        return self.memo[key]

    def shift(self, a, k):
        key = ("shift", a, k)
        if key not in self.memo:
            self.memo[key] = self._new("shift", a, k=k)
        return self.memo[key]


class _Slot:
    """A scalar whose arithmetic appends instructions instead of computing.

    Running the pipeline's own precompute and apply on slots records exactly
    the operations execution performs.  Stage scales and recipe factors are
    constants ``+-2^k``; multiplying by one becomes a free ``shift``, negated
    if needed.
    """

    __slots__ = ("name", "em")

    def __init__(self, name: str, em: _Emitter):
        self.name = name
        self.em = em

    def zero(self) -> "_Slot":
        return _Slot("zero", self.em)

    def __add__(self, other):
        return _Slot(self.em.add(self.name, other.name), self.em)

    def __sub__(self, other):
        return _Slot(self.em.sub(self.name, other.name), self.em)

    def __neg__(self):
        return _Slot(self.em.neg(self.name), self.em)

    def __mul__(self, other):
        if isinstance(other, _Slot):
            return _Slot(self.em.mul(self.name, other.name), self.em)
        f = Fraction(other)
        n, d = abs(f.numerator), f.denominator
        k = n.bit_length() - 1 if n > 1 else -(d.bit_length() - 1)
        out = _Slot(self.em.shift(self.name, k), self.em)
        return -out if f < 0 else out


def flatten(p) -> Program:
    """Unroll pipeline ``p`` (precompute and main chain) into a Program.

    Requires a certified pipeline — flattening an unproven factorization
    would launder an unverified claim into artifact form.
    """
    if not getattr(p, "certified", False):
        raise ValueError("pipeline is not certified; run verify.certify first")
    em = _Emitter()
    b = [_Slot(f"b{i}", em) for i in range(8)]
    x = [_Slot(f"x{i}", em) for i in range(8)]
    outputs = [slot.name for slot in p.apply(x, p.precompute(b))]
    instrs = _eliminate_dead(em.instrs, outputs)
    prog = Program(inputs=INPUTS, instrs=tuple(instrs), outputs=tuple(outputs))
    prog.validate()
    return prog


def _eliminate_dead(instrs, outputs):
    used = set(outputs)
    keep = []
    for ins in reversed(instrs):
        if ins.dest in used:
            keep.append(ins)
            used.add(ins.a)
            if ins.b is not None:
                used.add(ins.b)
    keep.reverse()
    return keep


def eval_program(prog: Program, x: Octo, b: Octo) -> Octo:
    """Execute the program on concrete operands."""
    env = {"zero": 0}
    for i in range(8):
        env[f"x{i}"] = x.c[i]
        env[f"b{i}"] = b.c[i]
    for ins in prog.instrs:
        if ins.op == "add":
            env[ins.dest] = env[ins.a] + env[ins.b]
        elif ins.op == "sub":
            env[ins.dest] = env[ins.a] - env[ins.b]
        elif ins.op == "neg":
            env[ins.dest] = -env[ins.a]
        elif ins.op == "mul":
            env[ins.dest] = env[ins.a] * env[ins.b]
        elif ins.op == "shift":
            k = ins.k
            env[ins.dest] = env[ins.a] * (2 ** k if k >= 0
                                          else Fraction(1, 2 ** -k))
        else:
            raise ValueError(f"unknown op {ins.op!r}")
    return Octo(tuple(env[o] for o in prog.outputs))


def emit_text(prog: Program) -> str:
    """Deterministic text form; same program, byte-identical output."""
    oc = prog.opcount()
    lines = ["# straight-line hyperbolic-octonion product: y = x * b",
             "# inputs: " + " ".join(prog.inputs)]
    lines.extend(ins.to_text() for ins in prog.instrs)
    lines.append("# outputs: " + " ".join(prog.outputs))
    lines.append(f"# {oc}")
    return "\n".join(lines) + "\n"


def emit_csv(prog: Program) -> str:
    """One instruction per row (``dest,op,src1,src2``), no header."""
    return "".join(f"{i.dest},{i.op},{i.a},{i.second()}\n"
                   for i in prog.instrs)
