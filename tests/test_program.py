import ast
import hashlib
import itertools
import random
import re
import struct
from fractions import Fraction
from math import isfinite
from types import FunctionType

import pytest
from conftest import (FloatSubclass, IntSubclass, clone_pipeline,
                      float_outcome, identity, load_tool, read_program,
                      sign_mutation_sites)

from octofast import kernel, program
from octofast.algebra import Octo, basis_mul, mul_naive
from octofast.kernel import Pipeline, build_pipeline, default_pipeline, mul_fast
from octofast.linform import DegreeError, LinForm, SymMatrix
from octofast.opcount import OpCount, Tally, count_algorithm
from octofast.program import (INPUTS, Instr, Program, compile_program,
                              emit_csv, emit_text, eval_program, flatten,
                              program_source)
from octofast.stages import Butterfly, FanOut, QuasiDiagonal, SignScale, Sum
from octofast.verify import certify, compose_symbolic

kernel_ops = load_tool("kernel_ops")  # how tools/kernel_ops.py reads a body


def rnd_octo(rng, r=100):
    return Octo(tuple(rng.randint(-r, r) for _ in range(8)))


def test_flatten_requires_certification():
    with pytest.raises(ValueError):
        flatten(build_pipeline())


def test_each_pipeline_is_lowered_and_compiled_once(monkeypatch):
    calls = {"lower": 0, "compile": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    lower = counted("lower", program._lower)
    monkeypatch.setattr(program, "_lower", lower)
    monkeypatch.setattr(kernel, "_lower", lower)
    monkeypatch.setattr(program, "compile_program",
                        counted("compile", program.compile_program))
    p = build_pipeline()
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert certify(p).ok and certify(p).ok
    assert flatten(p) is flatten(p)
    assert mul_fast(x, b, p) == mul_fast(x, b, p) == mul_naive(x, b)
    assert eval_program(flatten(p), x, b) == mul_naive(x, b)
    assert calls == {"lower": 1, "compile": 1}


def test_mul_fast_runs_the_flattened_programs_function(monkeypatch):
    # the program's _kernel compiles it on the first product and is that
    # function from then on, for mul_fast and eval_program alike
    p = build_pipeline()
    assert certify(p).ok
    prog = flatten(p)
    seen, compiled = [], compile_program(prog)

    def spy(x, b):
        seen.append((x, b))
        return compiled(x, b)

    monkeypatch.setattr(program, "compile_program", lambda _: spy)
    assert prog._kernel == prog._first_product
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert mul_fast(x, b, p) == mul_naive(x, b)
    assert p._program._kernel is spy
    assert mul_fast(b, x, p) == mul_naive(b, x)
    assert eval_program(flatten(p), x, b) == mul_naive(x, b)
    assert seen == [(x, b), (b, x), (x, b)]


@pytest.mark.parametrize("n", [7, 9])
def test_a_program_without_8_outputs_is_refused_before_it_runs(n):
    # the kernels build the product's Octo, so the 8 outputs are checked
    # when the source is generated, not after the kernel has run
    prog = Program(instrs=(Instr("t1", "add", "x0", "x1"),),
                   outputs=("t1",) + INPUTS[1:n])
    assert len(prog.outputs) == n
    p = Pipeline(stages=[identity()])
    object.__setattr__(p, "_program", prog)  # where the lowering is kept
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    for make in (program_source, compile_program,
                 lambda prog: eval_program(prog, x, b),
                 lambda prog: mul_fast(x, b, p)):
        with pytest.raises(ValueError, match=f"this one has {n}"):
            make(prog)


# x / 2**1022 and b of pairs whose walk is non-finite in lane k alone, for
# k = 1..7: the float branch's finiteness test must see every output
_ONE_LANE_OVERFLOWS = (
    ((0, 1, 0, 0, -1, 1, -1, -1), (-1, 0, 1, -1, 0, 0, -1, 2)),
    ((0, 0, -1, 0, -1, 0, 0, -1), (2, 1, -1, 1, -1, -1, 0, 0)),
    ((0, 1, 0, 1, -1, 0, 1, 1), (0, 1, 0, 0, 1, 2, -1, 1)),
    ((1, 0, 1, 1, -1, 0, 0, 1), (0, 0, 0, 2, -1, 0, -1, 0)),
    ((0, 0, 0, -1, 0, -1, -1, 0), (-1, -1, -1, 2, 0, 1, -1, 1)),
    ((1, 0, 0, -1, -1, 1, 0, -1), (0, 0, -1, -1, 2, 0, 2, 0)),
    ((0, 0, 1, -1, 0, 0, -1, 0), (0, 1, 0, -1, 2, -1, 0, -1)),
)


def test_an_overflowing_float_product_is_refused_by_every_entry_point():
    p = default_pipeline()
    big = Octo((1e308, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    pairs = [(big, big)] + [(Octo(tuple(2.0 ** 1022 * v for v in xs)),
                             Octo(tuple(float(v) for v in bs)))
                            for xs, bs in _ONE_LANE_OVERFLOWS]
    for k, (x, b) in enumerate(pairs):
        want = p.apply(x.c, p.precompute(b))
        bad = [v for v in want if not isfinite(v)]
        assert k == 0 or len(bad) == 1 and not isfinite(want[k])
        for product in (mul_fast, lambda x, b: eval_program(flatten(p), x, b)):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"non-finite coefficient: {bad[0]!r}") + "$"):
                product(x, b)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        mul_naive(big, big)


def test_finite_outputs_whose_sum_overflows_are_the_walks():
    # the float branch tests one sum of the outputs for finiteness; when
    # that sum overflows, the product takes Octo's own checks, which these
    # finite outputs pass
    p = default_pipeline()
    x = Octo(tuple(2.0 ** 1021 * v for v in (0, 1, 2, -1, 1, 2, 1, 0)))
    b = Octo((0.0, -1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    want = p.apply(x.c, p.precompute(b))
    assert all(isfinite(v) for v in want) and sum(want) == float("inf")
    for got in (mul_fast(x, b), eval_program(flatten(p), x, b)):
        assert [type(v) for v in got.c] == [float] * 8
        assert [v.hex() for v in got.c] == [v.hex() for v in want]


_WIDE = 2 ** 20000


@pytest.mark.parametrize("head,tail", [
    ((), (2 ** 1024, Fraction(1, 2 ** 1024))),
    ((), (_WIDE, Fraction(1, _WIDE))),
    ((_WIDE,), (Fraction(1, _WIDE),)),
], ids=["k1024", "k20000", "lone-negative-shift"])
def test_a_shift_past_the_float_range_runs_on_ints_and_fractions(head, tail):
    # the shipped chain between shifts by 2**k and its inverse: 2**1024 is
    # no float, so the float branch multiplies by the exact int and float
    # operands raise the walk's OverflowError, while the others run; 2**20000
    # has more decimal digits than CPython writes or reads, so its constants
    # come from the kernel's globals and the twin's are hex.  The last case
    # ends the chain with one shift by 2**-20000, its inverse opening the
    # chain on x, so the twin's mask and denominator are 2**20003 - 1 and
    # 2**20003.  The program read back from its emitted text compiles too.
    p0 = default_pipeline()
    p = clone_pipeline(p0, stages=tuple(SignScale((f,) * 8) for f in head)
                       + p0.stages + tuple(SignScale((f,) * 8) for f in tail))
    assert certify(p).ok
    read = read_program(emit_text(flatten(p)))
    rng = random.Random(29)
    for _ in range(20):
        x, b = rnd_octo(rng, 1000), rnd_octo(rng, 1000)
        xq, bq = (Octo(tuple(Fraction(v, 3) for v in o.c)) for o in (x, b))
        xf, bf = (Octo(tuple(float(v) for v in o.c)) for o in (x, b))
        for u, v in ((x, b), (xq, bq)):
            assert mul_fast(u, v, p) == eval_program(read, u, v) \
                == mul_naive(u, v)
        with pytest.raises(OverflowError) as walk:
            p.apply(xf.c, p.precompute(bf.c))
        for product in (lambda: mul_fast(xf, bf, p),
                        lambda: eval_program(read, xf, bf)):
            with pytest.raises(OverflowError,
                               match=re.escape(str(walk.value))):
                product()


def test_program_counts_match_instrumented_counts():
    prog = flatten(default_pipeline())
    assert prog.opcount() == OpCount(26, 92)
    assert prog.opcount() == count_algorithm("fast")


def test_program_is_ssa():
    flatten(default_pipeline()).validate()


def test_program_matches_kernels():
    p = default_pipeline()
    prog = flatten(p)
    rng = random.Random(67)
    for _ in range(150):
        x, b = rnd_octo(rng, 1000), rnd_octo(rng, 1000)
        y = eval_program(prog, x, b)
        assert y == mul_naive(x, b)
        assert y == mul_fast(x, b, p)
    for i in range(8):
        for j in range(8):
            xi, bj = Octo.unit(i), Octo.unit(j)
            assert eval_program(prog, xi, bj) == mul_naive(xi, bj)


def test_program_on_floats():
    p = default_pipeline()
    prog = flatten(p)
    rng = random.Random(71)
    for _ in range(40):
        x = Octo(tuple(rng.uniform(-1, 1) for _ in range(8)))
        b = Octo(tuple(rng.uniform(-1, 1) for _ in range(8)))
        got = eval_program(prog, x, b)
        ref = mul_naive(x, b)
        for g, r in zip(got.c, ref.c):
            assert abs(g - r) <= 1e-12 * (1 + abs(r))


def test_emission_is_deterministic():
    a = emit_text(flatten(default_pipeline()))
    b = emit_text(flatten(default_pipeline()))
    assert a == b
    fresh = build_pipeline()
    certify(fresh)
    assert emit_text(flatten(fresh)) == a


def test_emission_is_pinned():
    # digests of the program emitted by the stage-by-stage emitter this one
    # replaced; a change here changes the shipped artifact
    prog = flatten(default_pipeline())
    assert hashlib.sha256(emit_text(prog).encode()).hexdigest() \
        == "2679ba3cf996055467215013a4637b155c0724a818c7929f0fbd5706d3159a57"
    assert hashlib.sha256(emit_csv(prog).encode()).hexdigest() \
        == "0ce63bd34e696d911093935db3cd749c4163c1415785e66427e81208a835b273"


def test_kernel_source_is_pinned():
    # the Python source that every fast product runs; a change here changes
    # what execution, counting and the proof's artifact share
    source = program_source(flatten(default_pipeline()))
    assert hashlib.sha256(source.encode()).hexdigest() \
        == "0b4d0b5f1e83d0467e2f3f7847d2e3975f57e8d00f292ee2fa9d33332d128415"


def test_kernel_source_of_every_sign_mutant_is_pinned():
    # the shipped pipeline's source, then each sign mutant's, in
    # sign_mutation_sites order: a codegen refactor that moves any line of
    # any of these 125 sources changes this digest
    p = default_pipeline()
    pipelines = [p] + [q for _, q in sign_mutation_sites(p)]
    assert len(pipelines) == 125
    source = "".join(program_source(q._program) for q in pipelines)
    assert hashlib.sha256(source.encode()).hexdigest() \
        == "6c10f44547001ab422c33a698cb82eb1e04fc686cd5e53ec76f77bc9955f83d9"


def test_program_source_refuses_an_unknown_op():
    prog = Program((Instr("t1", "pow", "x0", "b0"),), ("t1",) + INPUTS[1:8])
    with pytest.raises(ValueError,
                       match=re.escape("t1: not an instruction: op 'pow'")):
        program_source(prog)


# a compiler that checks only the ops runs the first (lane 0 = 105, not
# the 15 its instructions give) and raises KeyError on the other two
@pytest.mark.parametrize("instrs, head, why", [
    ((("t1", "add", "x0", "x1"), ("t2", "mul", "t1", "b0"),
      ("t1", "mul", "x2", "b2")), ("t2", "t1"), "slot t1 assigned twice"),
    ((("t1", "mul", "x0", "t2"), ("t2", "add", "b0", "b1")), ("t1", "x1"),
     "t1: source t2 not yet defined"),
    ((("t1", "mul", "x0", "b0"),), ("t1", "t9"), "output t9 undefined"),
], ids=["assigned-twice", "used-before-defined", "undefined-output"])
def test_the_compiler_refuses_what_validate_refuses(instrs, head, why):
    prog = Program(tuple(Instr(*ins) for ins in instrs),
                   head + INPUTS[len(head):8])
    x, b = Octo(tuple(range(1, 9))), Octo(tuple(range(5, 13)))
    for make in (Program.validate, program_source, compile_program,
                 lambda prog: eval_program(prog, x, b)):
        with pytest.raises(ValueError, match="^" + re.escape(why) + "$"):
            make(prog)


# unchecked, the int twin reads slot x1_2 as x1's copy (lane 0 = -5, where
# the value is 12.5), and a slot named if is a SyntaxError
@pytest.mark.parametrize("dest", ["x1_2", "if"])
def test_every_entry_point_refuses_a_slot_not_named_t_and_digits(dest):
    prog = Program((Instr(dest, "neg", "x2"), Instr("t1", "shift", "x0", k=-1),
                    Instr("t2", "add", "t1", "x1"),
                    Instr("t3", "mul", "t2", "b0")), ("t3", dest) + INPUTS[2:8])
    x, b = Octo(tuple(range(1, 9))), Octo(tuple(range(5, 13)))
    why = f"slot {dest!r}: not t followed by digits"
    for make in (Program.validate, program_source, compile_program,
                 lambda prog: eval_program(prog, x, b)):
        with pytest.raises(ValueError, match="^" + re.escape(why) + "$"):
            make(prog)


def test_the_compiler_runs_a_well_formed_program_that_is_not_bilinear():
    # x0 * x0 is no x-side value times a b-side one, but straight-line code
    prog = Program((Instr("t1", "mul", "x0", "x0"),), ("t1",) + INPUTS[1:8])
    with pytest.raises(DegreeError):
        prog.validate()
    x, b = Octo(tuple(range(3, 11))), Octo(tuple(range(5, 13)))
    want = Octo((9,) + x.c[1:])
    assert eval_program(prog, x, b) == compile_program(prog)(x, b) == want


def test_text_layout():
    text = emit_text(flatten(default_pipeline()))
    lines = text.splitlines()
    assert lines[1].startswith("# inputs: x0 ")
    assert lines[-2].startswith("# outputs: ")
    assert lines[-1] == "# mults=26 adds=92"
    assert text.endswith("\n")
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(body) == len(flatten(default_pipeline()).instrs)


def test_csv_matches_instruction_list():
    prog = flatten(default_pipeline())
    rows = emit_csv(prog).splitlines()
    assert len(rows) == len(prog.instrs)
    assert all(len(r.split(",")) == 4 for r in rows)
    assert sum(1 for r in rows if r.split(",")[1] == "mul") == 26


def test_zero_slot_feeds_exactly_two_additions():
    prog = flatten(default_pipeline())
    [zero] = [i.dest for i in prog.instrs if i.op == "zero"]
    uses = [i for i in prog.instrs if zero in (i.a, i.b)]
    assert [i.op for i in uses] == ["add", "add"]


def test_identity_pipeline_flattens_to_no_arithmetic():
    # not the product, so never certified: read the lowering mul_fast runs
    p = Pipeline(stages=[FanOut(src=(4, 1, 2, 3, 0, 5, 6, 7), in_dim=8)])
    prog = p._program
    assert prog.instrs == ()
    assert prog.outputs == ("x4", "x1", "x2", "x3", "x0", "x5", "x6", "x7")
    assert emit_text(prog).endswith("# mults=0 adds=0\n")


def test_compiled_zero_takes_the_kind_of_its_lane():
    # the core is the first stage, so its empty rows are zero_like(x0)
    p = Pipeline(stages=[QuasiDiagonal(dim=8, cells=((0, 0, "a"),))],
                 pre_stages=[identity()],
                 recipes={"a": ("input", 0, 1)})
    b = Octo((2,) * 8)
    for x0 in (3, 3.0, Fraction(3)):
        x = Octo((x0,) + (1,) * 7)
        got = mul_fast(x, b, p)
        assert got == Octo(p.apply(x.c, p.precompute(b)))
        assert [type(v) for v in got.c] == [type(x0)] * 8


def test_eval_program_gives_the_walks_types():
    # the core is the first stage, so its empty rows are zeros of x0's kind
    p = Pipeline(stages=[QuasiDiagonal(dim=8, cells=((0, 0, "a"),))],
                 pre_stages=[identity()],
                 recipes={"a": ("input", 0, 1)})
    assert compose_symbolic(p) == p.stages[0].matrix({"a": LinForm.var(0)})
    x, b = Octo((3.0,) + (1.0,) * 7), Octo((2.0,) * 8)
    want = p.apply(x.c, p.precompute(b))
    for got in (eval_program(p._program, x, b), mul_fast(x, b, p)):
        assert got == Octo(want)
        assert [type(v) for v in got.c] == [float] * 8


def test_second_cell_less_core_lowers():
    # the second core's rows are all empty: zeros of a product's kind
    p = Pipeline(stages=[QuasiDiagonal(dim=8, cells=((0, 0, "a"),)),
                         QuasiDiagonal(dim=8, cells=())],
                 pre_stages=[identity()],
                 recipes={"a": ("input", 0, 1)})
    b = Octo((2,) * 8)
    for x0 in (3, 3.0, Fraction(3)):
        x = Octo((x0,) + (1,) * 7)
        want = p.apply(x.c, p.precompute(b))
        got = mul_fast(x, b, p)
        assert got == Octo(want)
        assert [type(v) for v in got.c] == [type(v) for v in want]


def test_validate_rejects_double_assignment():
    prog = Program(instrs=(Instr("t1", "neg", "x0"), Instr("t1", "neg", "x0")),
                   outputs=("t1",))
    with pytest.raises(ValueError):
        prog.validate()


def test_validate_rejects_use_before_definition():
    prog = Program(instrs=(Instr("t1", "add", "x0", "t2"),
                           Instr("t2", "neg", "x0")),
                   outputs=("t2",))
    with pytest.raises(ValueError):
        prog.validate()


_NOT_X_TIMES_B = "not an x-side value times a b-side value"
_NOT_AN_INSTRUCTION = "t1: not an instruction"
_NO_FIRST_SOURCE = "t1: source None not yet defined"


@pytest.mark.parametrize("instrs, outputs, refusal", [
    ((("add", "x0"),), ("t1",) + INPUTS[1:8], _NOT_AN_INSTRUCTION),
    ((("sub", "x0", None, 1),), ("t1",), _NOT_AN_INSTRUCTION),
    ((("mul", "x0", "b0", 0),), ("t1",), _NOT_AN_INSTRUCTION),
    ((("neg", "x0", "x1"),), ("t1",), _NOT_AN_INSTRUCTION),
    ((("zero", "x0", None, 0),), ("t1",), _NOT_AN_INSTRUCTION),
    ((("shift", "x0"),), ("t1",), _NOT_AN_INSTRUCTION),
    ((("shift", "x0", "x1", 1),), ("t1",), _NOT_AN_INSTRUCTION),
    ((("shift", "x0", None, 1.0),), ("t1",), _NOT_AN_INSTRUCTION),
    ((("pow", "x0", "x1"),), ("t1",), _NOT_AN_INSTRUCTION),
    ((("neg", None),), ("t1",) + INPUTS[1:8], _NO_FIRST_SOURCE),
    ((("add", None, "x0"),), ("t1",) + INPUTS[1:8], _NO_FIRST_SOURCE),
    ((("shift", None, None, 1),), ("t1",) + INPUTS[1:8], _NO_FIRST_SOURCE),
    ((("zero", None),), ("t1",) + INPUTS[1:8], _NO_FIRST_SOURCE),
    ((("mul", "b0", "x0"),), ("t1",), _NOT_X_TIMES_B),
    ((("mul", "x0", "x1"),), ("t1",), _NOT_X_TIMES_B),
    ((("mul", "x0", "b0"), ("mul", "t1", "b0")), ("t2",), _NOT_X_TIMES_B),
    ((("mul", "x0", "b0"), ("add", "x1", "t1"), ("mul", "t2", "b0")),
     ("t3",), _NOT_X_TIMES_B),
    ((("add", "x0", "b0"),), ("t1",), "mixes the x and b sides"),
    ((("neg", "b0"), ("add", "x0", "x1")), ("t2", "t1"),
     "an output derives from b0..b7 alone"),
    ((("add", "x0", "x1"),), ("t1", "x2"), None),
    ((("mul", "x0", "b0"), ("add", "t1", "x1")), ("t2",), None),
], ids=["add-without-b", "sub-with-k", "mul-with-k", "neg-with-b",
        "zero-with-k", "shift-without-k", "shift-with-b", "shift-by-float",
        "unknown-op", "neg-of-none", "add-of-none", "shift-of-none",
        "zero-of-none", "b-times-x", "x-times-x", "product-times-b",
        "x-plus-product-times-b", "x-plus-b",
        "b-only-output", "x-only-output", "product-plus-x"])
def test_validate_checks_the_shape_of_a_bilinear_algorithm(instrs, outputs,
                                                           refusal):
    # each op with its operands; x-side values, b-side values and products,
    # each in its place
    prog = Program(tuple(Instr(f"t{n}", *ins)
                         for n, ins in enumerate(instrs, 1)), outputs)
    if refusal is None:
        prog.validate()
        return
    error = (ValueError if refusal in (_NOT_AN_INSTRUCTION, _NO_FIRST_SOURCE)
             else DegreeError)
    with pytest.raises(error, match=re.escape(refusal)):
        prog.validate()


def test_reader_refuses_a_product_written_b_side_first():
    text = emit_text(flatten(default_pipeline()))
    assert "\nt71 = mul t63 t26\n" in text
    with pytest.raises(DegreeError,
                       match=re.escape(f"t71 = mul t26 t63: {_NOT_X_TIMES_B}")):
        read_program(text.replace("t71 = mul t63 t26", "t71 = mul t26 t63"))


def test_dead_lane_counts_agree():
    # the butterfly's a-b half feeds nothing, but it runs: every count view
    # reports the walk that executes, dead lane included
    p = Pipeline(stages=[FanOut(src=tuple(range(8)) * 2, in_dim=8),
                         Butterfly(half=8, starts=(0,), dim=16),
                         Sum(rows=tuple(((k, 1),) for k in range(8)),
                             in_dim=16)])
    twice = SymMatrix([[2 * (i == j) for j in range(8)] for i in range(8)])
    assert compose_symbolic(p) == twice
    tally = Tally()
    p.apply(tally.wrap_octo(Octo.unit(0)).c,
            p.precompute(tally.wrap_octo(Octo.unit(0))))
    assert tally.snapshot() == OpCount(0, 16)
    assert p._program.opcount() == tally.snapshot()
    assert count_algorithm("fast", p) == tally.snapshot()


def test_shift_evaluation():
    prog = Program(instrs=(Instr("t1", "shift", "b0", k=-3),
                           Instr("t2", "shift", "t1", k=1)),
                   outputs=("t2",) * 8)
    y = eval_program(prog, Octo.zero(), Octo((6,) + (0,) * 7))
    assert y.c[0] == 6 * 2 / 8


def test_eval_program_keeps_ints_exact():
    # it runs the compiled kernel, so all-int operands take the int twin
    prog = flatten(default_pipeline())
    rng = random.Random(73)
    for _ in range(50):
        x, b = rnd_octo(rng, 1000), rnd_octo(rng, 1000)
        y = eval_program(prog, x, b)
        assert y == mul_naive(x, b)
        assert [type(v) for v in y.c] == [int] * 8


def _schoolbook_pipeline():
    # each x_i b_j on a lane of its own, signed by its recipe, then summed
    # into the lane of e_i e_j: the product with 64 multiplications and no
    # shift
    terms = [(i, j, basis_mul(i, j)) for i in range(8) for j in range(8)]
    rows = tuple(tuple((t, 1) for t, (_, _, u) in enumerate(terms)
                       if u.index == k) for k in range(8))
    return Pipeline(
        stages=[FanOut(src=tuple(i for i, _, _ in terms), in_dim=8),
                QuasiDiagonal(dim=64, cells=tuple((t, t, f"m{t}")
                                                  for t in range(64))),
                Sum(rows=rows, in_dim=64)],
        pre_stages=[identity()],
        recipes={f"m{t}": ("input", j, u.sign)
                 for t, (_, j, u) in enumerate(terms)})


def test_a_program_without_a_negative_shift_gets_the_one_kernel_shape():
    p = _schoolbook_pipeline()
    assert certify(p).ok
    prog = flatten(p)
    assert not any(i.op == "shift" and i.k < 0 for i in prog.instrs)
    fn = compile_program(prog)
    twin, seen = fn.__globals__["_int_kernel"], []
    fn.__globals__["_int_kernel"] = lambda x, b: seen.append(x) or twin(x, b)
    rng = random.Random(79)
    for _ in range(20):
        x, b = rnd_octo(rng, 1000), rnd_octo(rng, 1000)
        y = fn(x, b)
        assert seen.pop() == x.c
        assert y == mul_naive(x, b)
        assert [type(v) for v in y.c] == [int] * 8
        x = Octo(tuple(rng.uniform(-1, 1) for _ in range(8)))
        b = Octo(tuple(rng.uniform(-1, 1) for _ in range(8)))
        want = p.apply(x.c, p.precompute(b))
        assert [v.hex() for v in fn(x, b).c] == [v.hex() for v in want]
        assert not seen
    big = Octo((1e308, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="non-finite coefficient"):
        fn(big, big)


def _spies(monkeypatch, fn, names):
    """Replace each helper body ``names`` of the compiled kernel ``fn`` by
    one that records its operand ``x`` under its name, then runs it."""
    seen = {name: [] for name in names}
    for name in names:
        body = fn.__globals__[name]
        monkeypatch.setitem(
            fn.__globals__, name,
            lambda x, b, body=body, log=seen[name]: log.append(x)
            or body(x, b))
    return seen


def test_the_folded_bodies_hand_back_their_kind():
    # the float body and the twin build the product's Octo themselves; its
    # kind is the one the checking Octo would find, so the next product
    # picks the same body
    p = default_pipeline()
    rng = random.Random(113)
    for _ in range(20):
        x, b = (Octo(tuple(rng.uniform(-1, 1) for _ in range(8)))
                for _ in range(2))
        y = mul_fast(x, b, p)
        assert y.kind is float is Octo(y.c).kind
        x, b = rnd_octo(rng, 1000), rnd_octo(rng, 1000)
        y = mul_fast(x, b, p)
        assert y.kind is int is Octo(y.c).kind
        assert y == mul_naive(x, b)
    # finite outputs whose sum overflows fall through to the checking Octo
    y = mul_fast(Octo((1e308,) + (0.0,) * 7), Octo((1.0, 1.0) + (0.0,) * 6))
    assert y.c[:2] == (1e308, 1e308) and y.kind is float


def test_chained_int_products_run_the_twin_each_time(monkeypatch):
    x, b = Octo((2, -3, 5, -7, 11, -13, 17, -19)), Octo(tuple(range(1, 9)))
    mul_fast(x, b)  # compiles the default pipeline's kernel
    fn = default_pipeline()._program._kernel
    seen = _spies(monkeypatch, fn, ("_int_kernel", "_generic_kernel"))
    y = mul_fast(x, b)
    z = mul_fast(y, b)
    assert seen == {"_int_kernel": [x.c, y.c], "_generic_kernel": []}
    assert z == mul_naive(mul_naive(x, b), b) and z.kind is int


def test_a_sign_mutants_fraction_outputs_leave_the_int_kind():
    # a mutant's twin gives a Fraction where an output's low bits are not
    # zero: the checking Octo finds a kind other than int, and the next
    # product runs the generic body, the walk op for op
    p = default_pipeline()
    x = Octo((-5, 9, -7, -1, -6, 6, 5, 6))
    b = Octo((3, -3, -6, 6, -9, 3, 4, -9))
    mutants = 0
    for site, q in sign_mutation_sites(p):
        y = mul_fast(x, b, q)
        if all(type(v) is int for v in y.c):
            continue
        mutants += 1
        assert y.kind is not int and y.kind is Octo(y.c).kind, site
        walk = q.apply(y.c, q.precompute(b))
        z = mul_fast(y, b, q)
        assert z.c == tuple(walk), site
        assert [type(v) for v in z.c] == [type(v) for v in walk], site
    assert mutants > 0


def test_operands_of_no_folded_kind_reach_the_generic_body(monkeypatch):
    # mixed types, Fractions, bools, subclasses, counted scalars and
    # linear forms: none is of kind float or int on both sides
    p = default_pipeline()
    mul_fast(Octo((1,) * 8), Octo((1,) * 8), p)
    fn = p._program._kernel
    ints = Octo((2, -3, 5, -7, 11, -13, 17, -19))
    tally = Tally()
    others = [Octo((1.5,) + ints.c[1:]), Octo(map(Fraction, ints.c)),
              Octo((True, False) * 4), Octo(map(IntSubclass, ints.c)),
              Octo(map(FloatSubclass, ints.c)), tally.wrap_octo(ints),
              Octo(LinForm.var(i) for i in range(8))]
    for x in others:
        seen = _spies(monkeypatch, fn, ("_int_kernel", "_generic_kernel"))
        y = mul_fast(x, ints, p)
        assert seen == {"_int_kernel": [], "_generic_kernel": [x.c]}, x
        walk = p.apply(x.c, p.precompute(ints))
        assert y.kind is Octo(walk).kind
        # a Counted has no ==: its value is compared
        assert [getattr(v, "v", v) for v in y.c] \
            == [getattr(v, "v", v) for v in walk]
    # a kernel handed coefficients makes Octos of them first
    seen = _spies(monkeypatch, fn, ("_int_kernel", "_generic_kernel"))
    assert fn(ints.c, ints.c) == fn(ints, ints)
    assert seen == {"_int_kernel": [ints.c, ints.c], "_generic_kernel": []}


def _functions(prog):
    """The generated functions of ``prog``'s source, by name."""
    tree = ast.parse(program_source(prog))
    return {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}


def _binops(fn, *ops):
    return [n for n in ast.walk(fn)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ops)]


def _additions(fn):
    """``fn``'s additions and subtractions, less the sum of the outputs
    that its finiteness test ``_isfinite(...)`` reads."""
    test = kernel_ops.finiteness(fn)
    return [n for n in _binops(fn, ast.Add, ast.Sub) if id(n) not in test]


def _reads_a_product(node, value):
    """Whether ``node`` computes with a product of two non-constants,
    directly or through a name assigned in ``value``."""
    for n in ast.walk(node):
        if (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                and not kernel_ops.constant(n.left)
                and not kernel_ops.constant(n.right)):
            return True
        if isinstance(n, ast.Name) and n.id in value \
                and _reads_a_product(value[n.id], value):
            return True
    return False


def test_generated_bodies_keep_every_operation():
    # inlining and sign folding move operations into their readers; none
    # may be dropped or written twice
    prog = flatten(default_pipeline())
    fns = _functions(prog)
    for name in ("kernel", "_generic_kernel", "_int_kernel"):
        fn = fns[name]
        assert len(_additions(fn)) == 92
        assert len(_binops(fn, ast.Add, ast.Sub)) \
            == 92 + (7 if name == "kernel" else 0)
        products = _binops(fn, ast.Mult)
        assert sum(not kernel_ops.constant(n.left)
                   and not kernel_ops.constant(n.right)
                   for n in products) == 26
        assigns = [n for n in ast.walk(fn) if isinstance(n, ast.Assign)
                   and isinstance(n.targets[0], ast.Name)
                   and n.targets[0].id.startswith("t")]
        assert len(assigns) < len(prog.instrs)
    # the eight 1/8 scalings and the four doublings of b0, b5, b6, b7
    for name in ("kernel", "_generic_kernel"):
        assert sum(kernel_ops.constant(n.right)
                   for n in _binops(fns[name], ast.Mult)) == 12
    # the int twin aligns a product by scaling its b operand, never the
    # product itself
    twin = fns["_int_kernel"]
    value = {n.targets[0].id: n.value for n in ast.walk(twin)
             if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name)}
    scaled = [n.left for n in _binops(twin, ast.Mult)
              if kernel_ops.constant(n.right)]
    assert scaled and not any(_reads_a_product(n, value) for n in scaled)
    # one shared test of the eight outputs' low bits, each masked, then
    # two returns: the eight >> 3 with kind int, or one rule each
    assert sum(isinstance(n, ast.Return) for n in ast.walk(twin)) == 2
    assert len(_binops(twin, ast.BitOr)) == 7


def _structural_zero(node, zero):
    """The generic body's zero slot, or a folded body's literal 0 or
    0.0."""
    return (isinstance(node, ast.Name) and node.id == zero
            or isinstance(node, ast.Constant) and node.value == 0)


def test_every_flipped_addition_in_the_generated_bodies_is_caught():
    # flip each + or - of one body in turn: the mutant kernel, compiled into
    # the scope the real one runs in, must miss the product somewhere.  Only
    # adding or subtracting the core's structural zero goes unseen.
    prog = flatten(default_pipeline())
    [zero] = [i.dest for i in prog.instrs if i.op == "zero"]
    scope = compile_program(prog).__globals__
    tree = ast.parse(program_source(prog))
    fns = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    rng = random.Random(29)
    floats = [(tuple(rng.uniform(-1, 1) for _ in range(8)),
               tuple(rng.uniform(-1, 1) for _ in range(8))) for _ in range(4)]
    ints = [(rnd_octo(rng, 1000).c, rnd_octo(rng, 1000).c) for _ in range(4)]
    # floats run kernel's own body, Fractions _generic_kernel
    fractions = [tuple(tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 20))
                             for _ in range(8)) for _ in range(2))
                 for _ in range(4)]

    def float_ok(got, want):
        return all(abs(g - w) <= 1e-12 * (1 + abs(w)) for g, w in zip(got, want))

    def exact_ok(got, want):
        return got == want

    def survives(checks):
        mutant = dict(scope)
        exec(compile(tree, "<mutant kernel>", "exec"), mutant)
        return all(ok(mutant["kernel"](x, b).c, mul_naive(Octo(x), Octo(b)).c)
                   for ok, pairs in checks for x, b in pairs)

    for name, checks in (("kernel", ((float_ok, floats),)),
                         ("_generic_kernel", ((exact_ok, fractions),)),
                         ("_int_kernel", ((exact_ok, ints),))):
        assert survives(checks)  # the unmutated source passes
        flips = _additions(fns[name])
        assert len(flips) == 92
        survivors = []
        for node in flips:
            op = node.op
            node.op = ast.Sub() if isinstance(op, ast.Add) else ast.Add()
            if survives(checks):
                survivors.append(node)
            node.op = op
        assert len(survivors) == 2, name
        assert all(_structural_zero(n.right, zero) for n in survivors), [
            ast.unparse(n) for n in survivors]


def test_the_float_body_keeps_the_sign_of_every_zero():
    # the float body folds negations into the + and - that read them; with
    # every coefficient +0.0 or -0.0 each sum is an exact zero, whose sign
    # a fold can get wrong: -(a + b) is -0.0 where the walk's (-a) + (-b)
    # is +0.0.  All 256 x 256 pairs, against the generic body, the walk op
    # for op.  A float times the Fraction 1/8 or the int 2 is that float
    # times 0.125 or 2.0, so the generic body runs here with those float
    # factors in its globals: the same operations, several times faster.
    fn = compile_program(flatten(default_pipeline()))
    generic = fn.__globals__["_generic_kernel"]
    walk = FunctionType(generic.__code__,
                        generic.__globals__ | {"_QN3": 0.125, "_Q1": 2.0})
    signs = list(itertools.product((0.0, -0.0), repeat=8))
    for x, b in zip(signs[::17], signs[::-23]):
        assert float_outcome(walk, x, b) == float_outcome(generic, x, b)
    pack = struct.Struct("8d").pack  # the bits of eight floats
    got = [pack(*fn(x, b).c) for x in signs for b in signs]
    want = [pack(*walk(x, b).c) for x in signs for b in signs]
    assert len(got) == 65536 and got == want
    assert len(set(got)) > 1


def test_products_of_signed_zeros_are_the_walks_on_sign_mutants():
    # one operand all zeros, the other drawn from signed zeros and small
    # values: every output is a zero, and its sign is the walk's, on the
    # shipped pipeline and on every tenth sign mutant, whose folds differ
    p = default_pipeline()
    pipelines = [p] + [q for _, q in sign_mutation_sites(p)[::10]]
    rng = random.Random(107)
    values = (0.0, -0.0, 1.0, -1.0, 3.0)
    pairs = []
    for _ in range(2000):
        zeros = tuple(rng.choice((0.0, -0.0)) for _ in range(8))
        other = tuple(rng.choice(values) for _ in range(8))
        pairs.append((zeros, other) if rng.random() < 0.5 else (other, zeros))
    signs = set()
    for k, (x, b) in enumerate(pairs):
        q = pipelines[k % len(pipelines)]
        want = float_outcome(lambda x, b: q.apply(x, q.precompute(b)), x, b)
        got = float_outcome(lambda x, b: mul_fast(Octo(x), Octo(b), q), x, b)
        assert got == want, (x, b)
        signs.update(v[0] == "-" for v in want)
    assert signs == {True, False}


def test_mixed_int_and_float_zeros_are_the_walks():
    # an int 0 has no sign: 0 + (-0.0) is 0.0 where -0.0 - 0 is -0.0, so
    # mixed operands run the generic body, never a folded one; one operand
    # is all floats in half the pairs
    p = default_pipeline()
    rng = random.Random(109)
    for k in range(400):
        x, b = (tuple(rng.choice((0, 0.0, -0.0, -1.0)) for _ in range(8))
                for _ in range(2))
        if k % 2:
            x, b = (tuple(map(float, x)), b) if k % 4 == 1 \
                else (x, tuple(map(float, b)))
        want = p.apply(x, p.precompute(b))
        got = mul_fast(Octo(x), Octo(b), p).c
        assert [(type(v), float(v).hex()) for v in got] \
            == [(type(v), float(v).hex()) for v in want], (x, b)


def test_int_twin_counts_an_aliases_readers_toward_its_source():
    # t2 only raises t1's exponent, so the int twin reads t1's numerator
    # wherever t2 is read: t1, read once, must not be inlined twice
    prog = Program(instrs=(Instr("t1", "add", "x0", "x1"),
                           Instr("t2", "shift", "t1", k=-1),
                           Instr("t3", "add", "t2", "x2"),
                           Instr("t4", "sub", "t2", "x3")),
                   outputs=("t3", "t4") + INPUTS[2:8])
    assert len(_binops(_functions(prog)["_int_kernel"], ast.Add, ast.Sub)) \
        == 3
    x, b = Octo((3, 4, 5, 6, 7, 8, 9, 10)), Octo((1,) * 8)
    y = eval_program(prog, x, b)
    assert y.c[:2] == (Fraction(17, 2), Fraction(-5, 2))
    assert y.c[2:] == x.c[2:]


def _toy_program():
    # shifts by +2, -3 and +1 (the recipe's 2), and six empty core rows
    p = Pipeline(stages=[SignScale((4, Fraction(1, 8)) + (1,) * 6),
                         QuasiDiagonal(dim=8, cells=((0, 0, "a"), (1, 1, "a")))],
                 pre_stages=[identity()],
                 recipes={"a": ("input", 0, 2)})
    return p._program


@pytest.mark.parametrize("make", [lambda: flatten(default_pipeline()),
                                  _toy_program], ids=["shipped", "toy"])
def test_reader_round_trips_the_emission(make):
    prog = make()
    assert read_program(emit_text(prog)) == prog


def test_toy_program_has_zero_and_shifts_both_ways():
    ops = {(i.op, i.k) for i in _toy_program().instrs}
    assert {("zero", None), ("shift", 2), ("shift", -3), ("shift", 1)} <= ops


@pytest.mark.parametrize("old,new,why", [
    ("= neg ", "= pow ", "not an instruction"),
    ("= mul t63 ", "= mul __import__ ", "__import__ not yet defined"),
    ("t2 = ", "t1 = ", "t1 assigned twice"),
    ("# mults=26 adds=92", "# mults=25 adds=92", "text differs"),
    ("\nt1 = ", "\nt1=print(1);t0 = ", "not an instruction"),
    ("# inputs: x0", "# inputs: x9", "inputs are not"),
])
def test_reader_refuses_what_emit_text_would_not_write(old, new, why):
    text = emit_text(flatten(default_pipeline()))
    assert old in text
    with pytest.raises(ValueError, match=re.escape(why)):
        read_program(text.replace(old, new, 1))
