import hashlib
import random

import pytest

from octofast.algebra import Octo, mul_naive
from octofast.kernel import Pipeline, build_pipeline, default_pipeline, mul_fast
from octofast.linform import SymMatrix
from octofast.opcount import OpCount, count_algorithm
from octofast.program import (Instr, Program, _eliminate_dead, emit_csv,
                              emit_text, eval_program, flatten)
from octofast.stages import Permute
from octofast.verify import certify


def rnd_octo(rng, r=100):
    return Octo(tuple(rng.randint(-r, r) for _ in range(8)))


def test_flatten_requires_certification():
    with pytest.raises(ValueError):
        flatten(build_pipeline())


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
        == "ec58b250f1d60b7b4529ede6135e72388503f7b117f64cff6be2bacd448196e3"
    assert hashlib.sha256(emit_csv(prog).encode()).hexdigest() \
        == "c45baf53f2bf23a1a007ff8901490961d3667571e8d2e1c30aefb32229787114"


def test_text_layout():
    text = emit_text(flatten(default_pipeline()))
    lines = text.splitlines()
    assert lines[1].startswith("# inputs: x0 ")
    assert lines[1].endswith(" zero")
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
    zero_adds = [i for i in prog.instrs
                 if i.op == "add" and (i.a == "zero" or i.b == "zero")]
    assert len(zero_adds) == 2
    assert "zero" in prog.inputs


def test_identity_pipeline_flattens_to_no_arithmetic():
    p = Pipeline(stages=[Permute((4, 1, 2, 3, 0, 5, 6, 7))])
    certify(p, target=p.stages[0].matrix())
    prog = flatten(p)
    assert prog.instrs == ()
    assert prog.outputs == ("x4", "x1", "x2", "x3", "x0", "x5", "x6", "x7")
    assert emit_text(prog).endswith("# mults=0 adds=0\n")


def test_validate_rejects_double_assignment():
    prog = Program(inputs=("x0",),
                   instrs=(Instr("t1", "neg", "x0"), Instr("t1", "neg", "x0")),
                   outputs=("t1",))
    with pytest.raises(ValueError):
        prog.validate()


def test_validate_rejects_use_before_definition():
    prog = Program(inputs=("x0",),
                   instrs=(Instr("t1", "add", "x0", "t2"),
                           Instr("t2", "neg", "x0")),
                   outputs=("t2",))
    with pytest.raises(ValueError):
        prog.validate()


def test_dead_code_elimination():
    live = Instr("t1", "add", "x0", "x1")
    dead = Instr("t2", "mul", "x0", "x2")
    assert _eliminate_dead([live, dead], ["t1"]) == [live]


def test_shift_evaluation():
    prog = Program(inputs=("x0", "b0"),
                   instrs=(Instr("t1", "shift", "b0", k=-3),
                           Instr("t2", "shift", "t1", k=1)),
                   outputs=("t2",) * 8)
    y = eval_program(prog, Octo.zero(), Octo((6,) + (0,) * 7))
    assert y.c[0] == 6 * 2 / 8
