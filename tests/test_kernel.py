import ast
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (clone_pipeline, float_outcome, identity,
                      sign_mutation_sites)

from octofast.algebra import Octo, basis_mul, mul_naive
from octofast.kernel import (CORRECTION_FORMS, ENTRY_FORMS, LANES, Pipeline,
                             PrecomputeSet, build_pipeline, default_pipeline, mul_fast)
from octofast.linform import LinForm
from octofast.program import (INPUTS, Instr, Program, compile_program,
                              emit_text, eval_program, flatten,
                              program_source)
from octofast.stages import (FanOut, QuasiDiagonal, SignScale, Sum,
                             apply_stage)
from octofast.verify import certify, solve_corrections

HALF = Fraction(1, 2)
EIGHTH = Fraction(1, 8)


def rnd_octo(rng, r=100):
    return Octo(tuple(rng.randint(-r, r) for _ in range(8)))


def lanes(pre):
    """The eight precompute lanes ``s0..s7`` of ``pre``, read by name."""
    return tuple(pre[name] for name in LANES)


def corrections(pre):
    """The values of ``pre`` that are not precompute lanes, in its order."""
    return {name: v for name, v in pre.items() if name not in LANES}


def test_scaled_sums_spot_values():
    p = default_pipeline()
    assert lanes(p.precompute(Octo((1,) * 8))) == (HALF, -HALF, -HALF, -HALF,
                                                   0, 0, 0, 0)
    assert lanes(p.precompute(Octo.unit(0))) == (-EIGHTH,) * 8
    assert lanes(p.precompute(Octo.zero())) == (0,) * 8


def test_scaled_sums_match_their_forms():
    rng = random.Random(31)
    p = default_pipeline()
    for _ in range(20):
        b = rnd_octo(rng)
        s = lanes(p.precompute(b))
        for k in range(8):
            assert s[k] == ENTRY_FORMS[f"s{k}"].evaluate(b.c)


def test_scaled_sums_are_linear():
    rng = random.Random(37)
    p = default_pipeline()
    for _ in range(10):
        a, b = rnd_octo(rng), rnd_octo(rng)
        sa, sb = lanes(p.precompute(a)), lanes(p.precompute(b))
        s_sum = lanes(p.precompute(a + b))
        s_scaled = lanes(p.precompute(a.scale(5)))
        assert s_sum == tuple(x + y for x, y in zip(sa, sb))
        assert s_scaled == tuple(5 * x for x in sa)


def test_corrections_at_all_ones():
    m = corrections(default_pipeline().precompute(Octo((1,) * 8)))
    assert len(m) == 18
    assert [m[f"sumcorr_{k}"] for k in ("01", "02", "03", "13", "21", "32")] \
        == [-1, -1, -1, -2, -2, -2]
    assert m["diffcorr_12"] == 0   # b3 - b7 vanishes on all-ones
    assert m["swapcorr_11"] == 2


def test_corrections_match_their_forms():
    rng = random.Random(41)
    p = default_pipeline()
    for _ in range(20):
        b = rnd_octo(rng)
        m = corrections(p.precompute(b))
        for name, value in m.items():
            assert value == CORRECTION_FORMS[name].evaluate(b.c), name


def test_precompute_set_lookup():
    b = Octo((2, -3, 5, -7, 11, -13, 17, -19))
    p = build_pipeline()
    pre = p.precompute(b)
    assert pre["s0"] == ENTRY_FORMS["s0"].evaluate(b.c)
    assert pre["sumcorr_01"] == 13


def test_precompute_of_the_variables_is_the_entry_forms_in_order():
    pre = build_pipeline().precompute([LinForm.var(i) for i in range(8)])
    assert type(pre) is dict and pre == ENTRY_FORMS
    assert list(pre) == list(ENTRY_FORMS)


def test_the_benchmark_replay_builds_what_precompute_returns():
    # as perfbench/layers.py::replay_fast builds its values: one apply_stage
    # per pre-stage, the recipes read off the input and the tap, and the
    # lanes and recipe values handed to PrecomputeSet by keyword
    rng = random.Random(43)
    p = build_pipeline()
    for _ in range(20):
        b = rnd_octo(rng)
        vec = tap = list(b.c)
        for idx, st in enumerate(p.pre_stages):
            vec = apply_stage(st, vec, None)
            if idx == p.tap_index:
                tap = vec
        m = {}
        for name, (src, lane, factor) in p.recipes.items():
            base = b.c[lane] if src == "input" else tap[lane]
            m[name] = (base if factor == 1 else -base if factor == -1
                       else base * factor)
        pre = PrecomputeSet(s=tuple(vec), m=m)
        assert pre == p.precompute(b) and list(pre) == list(p.precompute(b))


def test_fast_equals_naive_on_basis_pairs():
    p = default_pipeline()
    for i in range(8):
        for j in range(8):
            got = mul_fast(Octo.unit(i), Octo.unit(j), p)
            sign, index = basis_mul(i, j)
            want = Octo.unit(index) if sign > 0 else -Octo.unit(index)
            assert got == want, (i, j)


def test_fast_equals_naive_on_random_exact():
    rng = random.Random(43)
    p = default_pipeline()
    for _ in range(300):
        x, b = rnd_octo(rng, 1000), rnd_octo(rng, 1000)
        assert mul_fast(x, b, p) == mul_naive(x, b)


def test_fast_equals_naive_on_rationals():
    rng = random.Random(47)
    for _ in range(30):
        x = Octo(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                       for _ in range(8)))
        b = Octo(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                       for _ in range(8)))
        assert mul_fast(x, b) == mul_naive(x, b)


def test_fast_handles_floats():
    rng = random.Random(53)
    for _ in range(50):
        x = Octo(tuple(rng.uniform(-1, 1) for _ in range(8)))
        b = Octo(tuple(rng.uniform(-1, 1) for _ in range(8)))
        ref = mul_naive(x, b)
        got = mul_fast(x, b)
        for g, r in zip(got.c, ref.c):
            assert abs(g - r) <= 1e-12 * (1 + abs(r))


def _walk(p, x, b):
    """The interpreter: the pipeline's own precompute then apply."""
    return Octo(p.apply(x.c, p.precompute(b)))


def _exactly(y):
    """Every coefficient with its type; floats bit for bit."""
    return tuple((type(v), v.hex() if type(v) is float else v) for v in y.c)


def _int_rule(y):
    """``y`` as all-int operands give it: each value an ``int`` where it is
    integral, else a (reduced) ``Fraction``."""
    return Octo(int(v) if Fraction(v).denominator == 1 else Fraction(v)
                for v in y.c)


_DRAW = {
    "float": lambda rng: rng.uniform(-1000, 1000),
    "int": lambda rng: rng.randint(-1000, 1000),
    "wide": lambda rng: rng.getrandbits(300) * rng.choice((1, -1)),
    "fraction": lambda rng: Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
    "mixed": lambda rng: rng.choice((rng.randint(-1000, 1000),
                                     rng.uniform(-1, 1))),
}


@pytest.mark.parametrize("x_kind,b_kind", [
    ("float", "float"), ("int", "int"), ("wide", "wide"),
    ("fraction", "fraction"), ("int", "float"), ("float", "int"),
    ("mixed", "mixed")])
def test_mul_fast_equals_the_interpreter_walk(x_kind, b_kind):
    rng = random.Random(59)
    p = default_pipeline()
    for _ in range(200):
        x = Octo(tuple(_DRAW[x_kind](rng) for _ in range(8)))
        b = Octo(tuple(_DRAW[b_kind](rng) for _ in range(8)))
        want = _walk(p, x, b)
        if {x_kind, b_kind} <= {"int", "wide"}:   # int in gives int out
            want = _int_rule(want)
        assert _exactly(mul_fast(x, b, p)) == _exactly(want)

    # b/8 in one core cell: the float branch opens on float b, and the seven
    # empty rows are outputs, zeros of x0's kind (0.0 only when x is float)
    zeros = Pipeline(stages=[QuasiDiagonal(dim=8, cells=((0, 0, "s0"),))],
                     pre_stages=[SignScale((EIGHTH,) * 8)])
    for _ in range(20):
        x = Octo(tuple(_DRAW[x_kind](rng) for _ in range(8)))
        b = Octo(tuple(_DRAW[b_kind](rng) for _ in range(8)))
        want = _walk(zeros, x, b)
        if {x_kind, b_kind} <= {"int", "wide"}:
            want = _int_rule(want)
        assert _exactly(mul_fast(x, b, zeros)) == _exactly(want)


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_signscale_walk_and_mul_fast_agree_in_type(kind):
    # integral factors keep int lanes int in the walk, as in compiled code
    p = Pipeline(stages=[SignScale((2, -4, HALF, 1, -1, 2, -EIGHTH, 8))])
    rng = random.Random(61)
    for _ in range(50):
        x = Octo(tuple(_DRAW[kind](rng) for _ in range(8)))
        b = Octo(tuple(_DRAW[kind](rng) for _ in range(8)))
        got = mul_fast(x, b, p)
        want = _walk(p, x, b)
        if kind == "int":   # int in gives int out
            want = _int_rule(want)
        assert _exactly(got) == _exactly(want)
        if kind == "int":
            assert [type(v) for i, v in enumerate(got.c)
                    if i not in (2, 6)] == [int] * 6


_ADD_LANE_1 = Sum(rows=(((0, 1), (1, 1)),)
                  + tuple(((k, 1),) for k in range(1, 8)), in_dim=8)
_DEEP_CHAINS = {
    # each lane is one chain of 250 single-use values, longer than the
    # parser's limit of 200 nested parentheses if it were written inline
    "doublings": lambda: Pipeline(stages=[SignScale((2,) * 8)] * 250),
    "sums": lambda: Pipeline(stages=[_ADD_LANE_1] * 250),
    # a shift by -1 first, so all-int operands take the int twin
    "halved-sums": lambda: Pipeline(
        stages=[SignScale((HALF,) + (1,) * 7)] + [_ADD_LANE_1] * 250),
}


@pytest.mark.parametrize("chain", sorted(_DEEP_CHAINS))
def test_deep_chain_compiles_and_equals_the_walk(chain):
    p = _DEEP_CHAINS[chain]()
    rng = random.Random(83)
    if chain == "sums":
        assert mul_fast(Octo((1.0,) * 8), Octo((1.0,) * 8), p).c[0] == 251.0
    for kind, one in (("float", 1.0), ("int", 1)):
        for x in [Octo((one,) * 8)] + [
                Octo(tuple(_DRAW[kind](rng) for _ in range(8)))
                for _ in range(20)]:
            want = _walk(p, x, x)
            if kind == "int":
                want = _int_rule(want)
            assert _exactly(mul_fast(x, x, p)) == _exactly(want)


def test_int_twin_equals_every_sign_mutant_walk():
    # most mutants give non-integral values on int operands, so this covers
    # the Fraction outputs of the exact-int twin on many program shapes
    rng = random.Random(67)
    pairs = [(rnd_octo(rng, 1000), rnd_octo(rng, 1000)) for _ in range(2)]
    fractions = 0
    for site, m in sign_mutation_sites(default_pipeline()):
        for x, b in pairs:
            got = mul_fast(x, b, m)
            assert _exactly(got) == _exactly(_int_rule(_walk(m, x, b))), site
            fractions += sum(type(v) is Fraction for v in got.c)
    assert fractions > 0


def test_int_twin_builds_the_octo_the_checking_constructor_would():
    # the twin's outputs skip Octo's checks: they are 8 ints or Fractions
    rng = random.Random(89)
    pairs = [(rnd_octo(rng, 1000), rnd_octo(rng, 1000)) for _ in range(2)]
    p = default_pipeline()
    for site, m in [("shipped", p)] + sign_mutation_sites(p):
        for x, b in pairs:
            got = mul_fast(x, b, m)
            checked = Octo(tuple(got.c))
            assert type(got) is Octo and type(got.c) is tuple, site
            assert got == checked and got.c == checked.c, site
            assert {type(v) for v in got.c} <= {int, Fraction}, site


def test_int_twin_adds_exponents_across_a_mul():
    # an eighth on the x side too: both factors of every mul carry one
    p = default_pipeline()
    scaled = clone_pipeline(p, stages=(SignScale((EIGHTH,) * 8),) + p.stages)
    rng = random.Random(73)
    for _ in range(50):
        x, b = rnd_octo(rng, 1000), rnd_octo(rng, 1000)
        want = _int_rule(mul_naive(x, b).scale(EIGHTH))
        assert _exactly(mul_fast(x, b, scaled)) == _exactly(want)


_APPLY = {"add": lambda a, b, k: a + b, "sub": lambda a, b, k: a - b,
          "mul": lambda a, b, k: a * b, "neg": lambda a, b, k: -a,
          "zero": lambda a, b, k: 0 * a,
          "shift": lambda a, b, k: a * Fraction(2) ** k}


def _interpret(prog, x, b):
    """``prog`` run one instruction at a time on ``Fraction``s."""
    value = dict(zip(INPUTS, map(Fraction, x.c + b.c)))
    for ins in prog.instrs:
        value[ins.dest] = _APPLY[ins.op](value[ins.a], value.get(ins.b), ins.k)
    return Octo(tuple(value[o] for o in prog.outputs))


def _random_program(rng, step=1):
    """A validated bilinear program: x-side and b-side values, one b-side
    shift by k < 0 (so all-int operands run the twin), products, and values
    read from the products and the x side; every side has adds, subs, negs,
    zeros and shifts by ``step`` times +-1..3."""
    instrs = []

    def emit(op, a, b=None, k=None):
        instrs.append(Instr(f"t{len(instrs) + 1}", op, a, b, k))
        return instrs[-1].dest

    def grow(pool, n, more):
        # n values read from pool; a sum's second operand also from more
        for _ in range(n):
            op, a = rng.choice(("add", "sub", "neg", "shift", "shift",
                                "zero")), rng.choice(pool)
            if op in ("add", "sub"):
                pool.append(emit(op, a, rng.choice(pool + more)))
            elif op == "shift":
                k = step * rng.choice((-3, -2, -1, 1, 2, 3))
                pool.append(emit(op, a, k=k))
            else:
                pool.append(emit(op, a))

    xs, bs = list(INPUTS[:8]), list(INPUTS[8:])
    grow(xs, rng.randint(0, 6), [])
    grow(bs, rng.randint(0, 6), [])
    bs.append(emit("shift", rng.choice(bs), k=-step * rng.randint(1, 3)))
    products = [emit("mul", rng.choice(xs), rng.choice(bs))
                for _ in range(rng.randint(1, 6))]
    grow(products, rng.randint(2, 12), xs)
    prog = Program(tuple(instrs),
                   tuple(rng.choice(products + xs) for _ in range(8)))
    prog.validate()
    return prog


def test_int_twin_equals_an_exact_interpreter_on_random_programs():
    rng = random.Random(97)
    types, met = set(), 0
    for _ in range(200):
        prog = _random_program(rng)
        for _ in range(3):
            x, b = rnd_octo(rng, 1000), rnd_octo(rng, 1000)
            got = eval_program(prog, x, b)
            assert _exactly(got) == _exactly(_int_rule(_interpret(prog, x, b))), \
                emit_text(prog)
            types.update(map(type, got.c))
        # a product-side shift by k < 0 that meets a sum
        side, halved = prog.validate(), set()
        for ins in prog.instrs:
            if ins.op == "shift" and ins.k < 0 and side[ins.a] == "m":
                halved.add(ins.dest)
            met += ins.op in ("add", "sub") and bool({ins.a, ins.b} & halved)
    assert types == {int, Fraction} and met > 20
    # shifts by 2**k with |k| up to 15,000, whose constants have more decimal
    # digits than CPython writes or reads: int operands check the twin,
    # Fractions the generic body, which reads each 2**k from its globals
    rng = random.Random(101)
    for _ in range(20):
        prog = _random_program(rng, step=5000)
        x, b = rnd_octo(rng, 1000), rnd_octo(rng, 1000)
        xq, bq = (Octo(tuple(Fraction(v, 3) for v in o.c)) for o in (x, b))
        assert _exactly(eval_program(prog, x, b)) \
            == _exactly(_int_rule(_interpret(prog, x, b))), emit_text(prog)
        assert _exactly(eval_program(prog, xq, bq)) \
            == _exactly(_interpret(prog, xq, bq)), emit_text(prog)


def test_float_body_equals_the_generic_body_on_random_programs():
    # the float body folds each neg into the operations that read it; on
    # random programs, whose negs meet sums, products, shifts, zeros and
    # outputs in every order, it gives the generic body's bits, signed
    # zeros included, and its exceptions; shifts by up to 2**+-1500 reach
    # infinities, subnormals and the exact factors past the float range
    rng = random.Random(103)
    values = (0.0, -0.0, 1.0, -1.0, 0.75, 3.0, 5e-324, 2.0 ** 1000)
    outcomes = set()
    for step in (1,) * 200 + (500,) * 30:
        prog = _random_program(rng, step)
        fn = compile_program(prog)
        for _ in range(4):
            x, b = (tuple(rng.choice(values) * rng.choice((1, -1))
                          for _ in range(8)) for _ in range(2))
            got = float_outcome(fn, x, b)
            assert got == float_outcome(fn.__globals__["_generic_kernel"],
                                        x, b), emit_text(prog)
            outcomes.add(got[0] if isinstance(got, tuple) else
                         "-0.0" if "-0x0.0p+0" in got else "finite")
    assert outcomes == {OverflowError, ValueError, "-0.0", "finite"}


def _factor_operand(node):
    """What ``node`` multiplies by a constant factor, a nonzero literal
    (``* 8``, ``* -8``) or a unary minus; ``None`` when it is no factor."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return node.operand
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        right = node.right
        if isinstance(right, ast.UnaryOp) and isinstance(right.op, ast.USub):
            right = right.operand
        if isinstance(right, ast.Constant) and right.value != 0:
            return node.left
    return None


def test_int_twin_applies_no_factor_to_a_factors_result():
    # negations and shifts are free: the factors a slot's value carries
    # become one constant where it is read, not a chain of scalings
    rng = random.Random(97)
    for _ in range(200):
        prog = _random_program(rng)
        [twin] = [f for f in ast.parse(program_source(prog)).body
                  if isinstance(f, ast.FunctionDef) and f.name == "_int_kernel"]
        value = {n.targets[0].id: n.value for n in ast.walk(twin)
                 if isinstance(n, ast.Assign)
                 and isinstance(n.targets[0], ast.Name)}
        for n in ast.walk(twin):
            operand = _factor_operand(n)
            if isinstance(operand, ast.Name):
                operand = value.get(operand.id)
            assert _factor_operand(operand) is None, emit_text(prog)


class _Int(int):
    pass


@pytest.mark.parametrize("odd", [True, _Int(3)], ids=["bool", "int-subclass"])
def test_operands_not_all_of_type_int_run_the_generic_code(odd):
    p = default_pipeline()
    rng = random.Random(71)
    for lane in range(16):
        c = [rng.randint(-1000, 1000) for _ in range(16)]
        c[lane] = odd
        x, b = Octo(c[:8]), Octo(c[8:])
        assert _exactly(mul_fast(x, b, p)) == _exactly(_walk(p, x, b))


def test_mul_fast_runs_the_pipeline_it_is_given():
    p = default_pipeline()
    flip = p.pre_stages[0]
    assert flip.label == "flip-scalar"
    facs = (-flip.factors[0],) + flip.factors[1:]
    bad = clone_pipeline(p, pre_stages=(replace(flip, factors=facs),)
                         + p.pre_stages[1:])
    x = Octo((2, -3, 5, -7, 11, -13, 17, -19))
    b = Octo((23, 29, -31, 37, -41, 43, 47, -53))
    assert mul_fast(x, b, p) == mul_naive(x, b)
    assert mul_fast(x, b, bad) != mul_naive(x, b)
    assert mul_fast(x, b, bad) == _walk(bad, x, b)
    assert mul_fast(x, b, p) == mul_naive(x, b)


def test_default_pipeline_is_certified_and_cached():
    p = default_pipeline()
    assert p.certified
    assert default_pipeline() is p


def test_pipeline_rejects_broken_chains():
    with pytest.raises(ValueError):
        Pipeline(stages=[identity(3)])  # 3 lanes, needs 8
    with pytest.raises(ValueError):
        Pipeline(stages=[identity()], pre_stages=[identity(2)])
    with pytest.raises(ValueError,
                       match="^main chain ends at 16 lanes, wanted 8$"):
        Pipeline(stages=[FanOut(src=tuple(range(8)) * 2, in_dim=8)])


def _with_recipe(recipe, tap_index=0):
    return Pipeline(stages=[identity()], pre_stages=[identity()],
                    recipes={"a": recipe}, tap_index=tap_index)


def test_pipeline_rejects_a_recipe_source_other_than_input_or_tap():
    with pytest.raises(ValueError, match="inptu"):
        _with_recipe(("inptu", 0, 1))


@pytest.mark.parametrize("src,lane", [("input", 8), ("input", -1),
                                      ("tap", 8), ("tap", -1)])
def test_pipeline_rejects_a_recipe_lane_outside_its_source(src, lane):
    with pytest.raises(ValueError, match="lane"):
        _with_recipe((src, lane, 1))


@pytest.mark.parametrize("tap_index", [1, 7, -1])
def test_pipeline_rejects_a_tap_recipe_without_its_pre_stage(tap_index):
    with pytest.raises(ValueError, match="tap_index"):
        _with_recipe(("tap", 0, 1), tap_index)
    _with_recipe(("input", 0, 1), tap_index)  # no tap read, nothing to check


@pytest.mark.parametrize("tap_index", [0, 4])
def test_a_tap_recipe_reads_the_output_of_pre_stage_tap_index(tap_index):
    # the first and the last of the shipped pre-stages; each stage changes
    # the vector, so reading one stage early or late gives other values
    pre_stages = build_pipeline().pre_stages
    assert tap_index in (0, len(pre_stages) - 1)
    recipes = ({f"t{k}": ("tap", k, 1) for k in range(8)}
               | {f"i{k}": ("input", k, 1) for k in range(8)})
    p = Pipeline(stages=[identity()], pre_stages=pre_stages, recipes=recipes,
                 tap_index=tap_index)
    b = Octo((1, 2, 3, 5, 7, 11, 13, 17))
    outs = [list(b.c)]
    for st in pre_stages:
        outs.append(st.apply(outs[-1]))
    assert all(u != v for u, v in zip(outs, outs[1:]))
    pre = p.precompute(b)
    assert [pre[f"t{k}"] for k in range(8)] == outs[tap_index + 1]
    assert tuple(pre[f"i{k}"] for k in range(8)) == b.c
    assert list(lanes(pre)) == outs[-1]


@pytest.mark.parametrize("make", [build_pipeline, lambda: Pipeline(stages=[])],
                         ids=["shipped", "no-stages"])
@pytest.mark.parametrize("n", [7, 9])
def test_operands_of_other_than_eight_lanes_are_refused(make, n):
    p = make()
    with pytest.raises(ValueError, match="b: expected 8 lanes, got"):
        p.precompute([1] * n)
    with pytest.raises(ValueError, match="x: expected 8 lanes, got"):
        p.apply([1] * n, p.precompute([1] * 8))


@pytest.mark.parametrize("factor", [2.0, Fraction(2)])
def test_recipe_factor_is_stored_canonical(factor):
    core = QuasiDiagonal(dim=8, cells=((0, 0, "a"),))
    p = Pipeline(stages=[core], recipes={"a": ("input", 0, factor)})
    assert p.recipes["a"] == ("input", 0, 2) and type(p.recipes["a"][2]) is int
    x, b = Octo((3,) + (1,) * 7), Octo((5,) + (0,) * 7)
    walk = p.apply(x.c, p.precompute(b))
    fast = mul_fast(x, b, p).c
    assert [(type(v), v) for v in fast] == [(type(v), v) for v in walk]
    assert fast[0] == 30 and type(fast[0]) is int


def test_pipeline_rejects_a_recipe_a_lane_shadows():
    # the core would read lane s0 (10) where the recipe means b5 (60)
    core = QuasiDiagonal(dim=8, cells=((0, 0, "s0"),))
    with pytest.raises(ValueError, match="recipe s0: the name of a precompute"):
        Pipeline(stages=[core], recipes={"s0": ("input", 5, 1)})


def test_only_the_eight_lane_names_are_reserved():
    # s8 names no precompute lane, so a recipe may take it; s7 does
    assert LANES == tuple(f"s{k}" for k in range(8))
    assert "s8" not in LANES and "s7" in LANES
    core = QuasiDiagonal(dim=8, cells=((0, 0, "s8"),))
    p = Pipeline(stages=[core], recipes={"s8": ("input", 5, 1)})
    x, b = Octo((3,) + (0,) * 7), Octo((0,) * 5 + (7, 0, 0))
    assert mul_fast(x, b, p).c[0] == 21 == p.apply(x.c, p.precompute(b))[0]
    with pytest.raises(ValueError, match="recipe s7: the name of a precompute"):
        Pipeline(stages=[core], recipes={"s8": ("input", 5, 1),
                                         "s7": ("input", 5, 1)})


@pytest.mark.parametrize("name", ["s9", "nope"])
def test_pipeline_rejects_a_core_cell_that_names_nothing(name):
    core = QuasiDiagonal(dim=8, cells=((0, 0, "s1"), (3, 2, name)))
    with pytest.raises(ValueError, match=rf"cell \(3,2\): '{name}' is neither"):
        Pipeline(stages=[core], recipes={"a": ("input", 0, 1)})


@pytest.mark.parametrize("field", ["stages", "pre_stages", "recipes",
                                   "entry_forms", "tap_index", "_program"])
def test_pipeline_structure_is_fixed_once_built(field):
    p = build_pipeline()
    assert certify(p).ok
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert mul_fast(x, b, p) == mul_naive(x, b)
    with pytest.raises(AttributeError, match=field):
        setattr(p, field, getattr(p, field))
    # the compiled function is the program's, and as fixed as its fields
    with pytest.raises(AttributeError, match="_kernel"):
        p._program._kernel = p._program._kernel
    assert p.tap_index == 1 and emit_text(flatten(p)) == emit_text(
        flatten(default_pipeline()))
    p.certified = False  # the verdict stays writable
    assert mul_fast(x, b, p) == mul_naive(x, b)


@pytest.mark.parametrize("name", ["precompute", "apply", "stages", "zz"])
def test_only_certified_may_be_assigned_on_a_pipeline(name):
    # a replaced method would change the lowered program while the stages
    # still describe the old one
    p, replacement = build_pipeline(), (lambda *args: None)
    with pytest.raises(AttributeError, match=f"Pipeline.{name} cannot be"):
        setattr(p, name, replacement)
    assert getattr(p, name, None) is not replacement
    for attr in ("stages", "certified"):
        with pytest.raises(AttributeError, match=f"Pipeline.{attr} cannot be"):
            delattr(p, attr)
    assert certify(p).ok and p.certified
    p.certified = False
    assert not p.certified and emit_text(p._program) == emit_text(
        flatten(default_pipeline()))


def test_entry_forms_are_read_only():
    # the shared pipeline's forms are the solver's targets: a write there
    # would make every later solve in the process inconsistent
    shared = default_pipeline()
    with pytest.raises(TypeError):
        shared.entry_forms["s0"] = LinForm.var(0) * 3
    with pytest.raises(TypeError):
        del shared.entry_forms["s0"]
    assert not hasattr(shared.entry_forms, "update")
    # a pipeline keeps a copy of the forms it is given
    given = dict(ENTRY_FORMS)
    p = clone_pipeline(shared, forms=given)
    given["s0"] = LinForm.var(0) * 3
    assert p.entry_forms == ENTRY_FORMS == shared.entry_forms
    sol = solve_corrections(shared)
    assert sol.free == () and sol.assignment == CORRECTION_FORMS


def test_frozen_correction_forms_shape():
    # 18 slots across the three blocks; each form touches at most two b's
    assert len(CORRECTION_FORMS) == 18
    for name, form in CORRECTION_FORMS.items():
        assert 1 <= sum(1 for c in form.numerators if c) <= 2, name
    assert CORRECTION_FORMS["diffcorr_23"] == LinForm.combo([(1, 1), (5, -1)])


def test_the_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_two_built_pipelines_are_equal_and_emit_the_same_program():
    a, b = build_pipeline(), build_pipeline()
    assert a is not b
    assert a.stages == b.stages and a.pre_stages == b.pre_stages
    assert dict(a.recipes) == dict(b.recipes)
    assert dict(a.entry_forms) == dict(b.entry_forms)
    assert certify(a).ok and certify(b).ok
    assert emit_text(flatten(a)).encode() == emit_text(flatten(b)).encode()
