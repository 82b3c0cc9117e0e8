import importlib.util
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from operator import add, mul, neg, sub
from pathlib import Path

from octofast.algebra import schoolbook_matrix
from octofast.kernel import Pipeline
from octofast.linform import LinForm, SymMatrix
from octofast.program import INPUTS, Instr, Program, emit_text
from octofast.stages import FanOut, QuasiDiagonal, SignScale, Sum, pow2
from octofast.verify import CorrectionSolve, InconsistentSystemError


def load_tool(name):
    """The script ``tools/<name>.py``, loaded by path as a module."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def clone_pipeline(p, stages=None, forms=None, pre_stages=None, recipes=None):
    return Pipeline(stages if stages is not None else p.stages,
                    pre_stages if pre_stages is not None else p.pre_stages,
                    recipes if recipes is not None else p.recipes,
                    forms if forms is not None else p.entry_forms,
                    p.tap_index)


def float_outcome(product, x, b):
    """``float.hex`` of each coefficient that ``product(x, b)`` gives, an
    ``Octo`` or a sequence, or the type and text of what it raises."""
    try:
        got = product(x, b)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return [v.hex() for v in getattr(got, "c", got)]


class IntSubclass(int):
    """An int subclass: its values are ints, its type is not ``int``."""


class FloatSubclass(float):
    """A float subclass: its values are floats, its type is not ``float``."""


def identity(n=8):
    """The reindexing stage that leaves ``n`` lanes where they are."""
    return FanOut(src=tuple(range(n)), in_dim=n)


def _swap(stages, i, st):
    out = list(stages)
    out[i] = st
    return tuple(out)


def _live_lanes(stages, forms):
    """live[si] = lanes of stage si's input that depend on the chain input."""
    acc = SymMatrix.identity(stages[0].in_dim)
    live = []
    for st in stages:
        live.append({i for i in range(acc.rows)
                     if any(not acc.entry(i, j).is_zero for j in range(acc.cols))})
        acc = st.matrix(forms) @ acc
    return live


def _sign_flips(stages, forms):
    """(site, stage index, flipped stage) for each live SignScale/Sum sign."""
    live = _live_lanes(stages, forms)
    for si, st in enumerate(stages):
        if isinstance(st, SignScale):
            for lane, f in enumerate(st.factors):
                if lane in live[si]:
                    facs = list(st.factors)
                    facs[lane] = -f
                    yield (f"{st.label}[{lane}]", si,
                           replace(st, factors=tuple(facs)))
        elif isinstance(st, Sum):
            for ri, row in enumerate(st.rows):
                for ti, (lane, sign) in enumerate(row):
                    if lane in live[si]:
                        rows = [list(r) for r in st.rows]
                        rows[ri][ti] = (lane, -sign)
                        yield (f"{st.label}[{ri}.{ti}]", si,
                               replace(st, rows=tuple(tuple(r) for r in rows)))


def sign_mutation_sites(p):
    """All (description, pipeline) pairs with one sign of running code flipped.

    The sites are every live sign of a main-chain or precompute stage (a
    ``SignScale`` factor or a ``Sum`` term) and every recipe factor.  Signs
    on lanes that are structurally zero are excluded up front: flipping them
    cannot change what the pipeline computes, so they are not part of the
    bilinear algorithm in any meaningful sense.
    """
    pre = p.precompute([LinForm.var(i) for i in range(8)])
    sites = [(f"main:{site}",
              clone_pipeline(p, stages=_swap(p.stages, si, st)))
             for site, si, st in _sign_flips(p.stages, pre)]
    sites += [(f"pre:{site}",
               clone_pipeline(p, pre_stages=_swap(p.pre_stages, si, st)))
              for site, si, st in _sign_flips(p.pre_stages, None)]
    for name, (src, lane, factor) in p.recipes.items():
        recipes = dict(p.recipes)
        recipes[name] = (src, lane, -factor)
        sites.append((f"recipe:{name}", clone_pipeline(p, recipes=recipes)))
    return sites


def reference_compose(p):
    """What ``verify.compose_symbolic`` computes, built the slow way: every
    main-chain stage's matrix read off its ``apply`` on unit vectors, with
    the symbolic precompute in the core, multiplied in one at a time."""
    pre = p.precompute([LinForm.var(i) for i in range(8)])
    acc = SymMatrix.identity(8)
    for st in p.stages:
        acc = st.matrix(pre) @ acc
    return acc


def reference_solve(p, unknown=None):
    """What ``verify.solve_corrections`` computes, built the slow way.

    The whole main chain is walked through ``Pipeline.apply`` on unit
    vectors once with the known entry forms in the core, once with every
    value 0 (what the outputs read of x directly) and once per unknown set
    to 1 alone, less that direct part.  The system is eliminated by
    Gauss-Jordan over ``Fraction``s, normalizing each pivot row as it is
    chosen.
    Validation of ``unknown`` is left to the solver under test.
    """
    core, = (st for st in p.stages if isinstance(st, QuasiDiagonal))
    read = {name for _, _, name in core.cells}
    if unknown is None:
        unknown = [name for name in read if name in p.recipes]
    names = sorted(set(unknown))

    def walk(values):
        cols = [p.apply([int(i == j) for i in range(8)], values)
                for j in range(8)]
        return SymMatrix(list(zip(*cols)))

    known = walk({n: 0 if n in names else p.entry_forms[n] for n in read})
    # an output that reads x directly adds the same term to every walk:
    # the walk with all values 0 is taken off each unknown's coefficient
    direct = walk(dict.fromkeys(read, 0))
    coeffs = [walk({n: int(n == u) for n in read}) for u in names]
    target = schoolbook_matrix()
    rows = [([(c.entry(i, j) - direct.entry(i, j)).const for c in coeffs],
             target.entry(i, j) - known.entry(i, j))
            for i in range(8) for j in range(8)]

    pivot_of_col, rank = {}, 0
    for col in range(len(names)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][0][col] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pc, prhs = rows[rank]
        inv = Fraction(1) / pc[col]
        pc, prhs = [v * inv for v in pc], prhs * inv
        rows[rank] = (pc, prhs)
        for r in range(len(rows)):
            f = rows[r][0][col]
            if r != rank and f != 0:
                rc, rrhs = rows[r]
                # a zero of the pivot row leaves its entry as it is
                rows[r] = ([a - f * b if b else a for a, b in zip(rc, pc)],
                           rrhs - f * prhs)
        pivot_of_col[col] = rank
        rank += 1
    for _, rhs in rows[rank:]:
        if not rhs.is_zero:
            raise InconsistentSystemError(
                f"no entry assignment satisfies the fixed stages "
                f"(residual {rhs} over zero coefficients)")
    free = tuple(n for c, n in enumerate(names) if c not in pivot_of_col)
    assignment = {n: rows[pivot_of_col[c]][1] if c in pivot_of_col
                  else LinForm.zero() for c, n in enumerate(names)}
    return CorrectionSolve(assignment=assignment, free=free)


# "zero" is its operand times 0, on its operand's side
_OPS = {"add": add, "sub": sub, "neg": neg, "zero": partial(mul, 0)}


@lru_cache(maxsize=8)
def _inputs(n: int) -> tuple:
    """The ``n`` unit rows of width ``n``, and each input slot's value for
    :func:`reference_terms`, keyed by :data:`~octofast.program.INPUTS`:
    ``x_j`` unit row ``j`` of width 8, ``b_i`` the form of ``b_i``.  Built
    once per width (the last 8 widths are kept); callers copy the dict and
    only read the rows."""
    unit = tuple((0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n))
    forms = tuple(map(LinForm.var, range(8)))
    return unit, dict(zip(INPUTS, tuple(u[:8] for u in unit[:8]) + forms))


def reference_terms(prog) -> tuple:
    """What ``verify._terms`` computes, read the slow way: one tuple of
    ints and ``Fraction`` per slot, and a :class:`LinForm` per b-side slot.

    ``(V, X, B)``: the lowered program ``prog``, read in one pass.
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


_ARITY = {"add": 2, "sub": 2, "mul": 2, "neg": 1, "zero": 1, "shift": 2}


def read_program(text):
    """The :class:`Program` that ``emit_text`` wrote as ``text``.

    Strict, so that what the tests compile is the emitted artifact and
    nothing else: the inputs must be the sixteen operand slots, every op
    known with its operand count, every slot a Python identifier assigned
    once and used after it, and ``text`` byte-identical to ``emit_text`` of
    the result (so the header and the ``# mults=.. adds=..`` line agree with
    the instructions).  A program not in the shape of a bilinear algorithm
    raises :class:`~octofast.linform.DegreeError` (from
    ``Program.validate``), anything else ``ValueError``.
    """
    _, inputs, *body, outputs, _ = text.splitlines()
    if inputs.split()[2:] != list(INPUTS):
        raise ValueError(f"inputs are not {' '.join(INPUTS)}: {inputs!r}")
    instrs = []
    for line in body:
        dest, eq, op, *args = line.split()
        if eq != "=" or _ARITY.get(op) != len(args) or not dest.isidentifier():
            raise ValueError(f"not an instruction: {line!r}")
        instrs.append(Instr(dest, op, args[0], k=int(args[1])) if op == "shift"
                      else Instr(dest, op, *args))
    prog = Program(tuple(instrs), tuple(outputs.split()[2:]))
    prog.validate()
    if emit_text(prog) != text:
        raise ValueError("text differs from the emission of what it encodes")
    return prog
