import ast
import importlib
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import repeat
from operator import add, lshift, mul, neg, rshift, sub
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from conftest import (clone_pipeline, identity, reference_compose,
                      reference_solve, reference_terms, sign_mutation_sites)

from octofast.algebra import Octo, mul_naive, schoolbook_matrix
from octofast.kernel import (CORRECTION_FORMS, LANES, Pipeline,
                             PrecomputeSet, build_pipeline, default_pipeline,
                             mul_fast)
from octofast.linform import DegreeError, LinForm, SymMatrix
from octofast.stages import (Butterfly, FanOut, QuasiDiagonal, SignScale, Sum,
                             apply_stage, run, zero_like)
from octofast import verify
from octofast.program import (INPUTS, Instr, Program, _Slot,
                              compile_program, eval_program, flatten)
from octofast.verify import (InconsistentSystemError, certify,
                             compose_symbolic, solve_corrections)


def test_pipeline_certifies():
    p = build_pipeline()
    assert not p.certified
    report = certify(p)
    assert report.ok
    assert p.certified
    assert "none" in report.to_text()


def test_composition_entries():
    m = compose_symbolic(build_pipeline())
    target = schoolbook_matrix()
    assert m.entry(0, 0) == LinForm.var(0)
    assert m.entry(0, 1) == LinForm.var(1, -1)
    assert m == target


def test_identity_pipeline_composes_to_identity():
    p = Pipeline(stages=[identity()])
    assert compose_symbolic(p) == SymMatrix.identity(8)
    # the identity is not the product: every entry differs from it
    report = certify(p)
    assert not report.ok and not p.certified
    assert len(report.residuals) == 64


def test_flipping_final_scale_confines_residuals_to_one_row():
    p = build_pipeline()
    stages = list(p.stages)
    last = stages[-1]
    assert isinstance(last, SignScale)
    facs = list(last.factors)
    facs[5] = -facs[5]
    stages[-1] = SignScale(tuple(facs), label=last.label)
    report = certify(clone_pipeline(p, stages=tuple(stages)))
    assert not report.ok
    assert {r.row for r in report.residuals} == {5}


def test_zeroed_entry_form_runs_and_certifies_unchanged():
    # entry forms document the precompute; the proof runs the precompute
    p = build_pipeline()
    forms = dict(p.entry_forms)
    forms["sumcorr_13"] = LinForm.zero()
    edited = clone_pipeline(p, forms=forms)
    assert certify(edited).ok
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert mul_fast(x, b, edited) == mul_naive(x, b)


def test_every_sign_mutation_site_breaks_certification():
    p = build_pipeline()
    sites = sign_mutation_sites(p)
    assert len(sites) >= 80
    # exhaustive checking is the acceptance suite's job; spot-check a spread
    for desc, bad in sites[::9]:
        assert not certify(bad).ok, desc


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("site, golden", [
    ("main:flip-tail[5]", "certify_main_flip-tail_5.txt"),
    ("pre:scale-eighth[3]", "certify_pre_scale-eighth_3.txt"),
])
def test_failure_report_text_is_unchanged(site, golden):
    # the report octofast verify prints, down to how each form is written;
    # the precompute flip's residuals carry fractional coefficients
    bad = dict(sign_mutation_sites(build_pipeline()))[site]
    report = certify(bad)
    text = (GOLDEN / golden).read_text()
    assert report.to_text() == text
    rows = text.splitlines()[2:]
    assert len(rows) == len(report.residuals)
    for line, r in zip(rows, report.residuals):
        expected, got = line[9:].split(" | ")  # after " row col "
        assert (str(r.expected), str(r.got)) == (expected, got)
        assert repr(r.got) == f"LinForm({got})"

def _rejected_and_wrong(bad):
    """certify rejects ``bad``, whose products are in fact wrong."""
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert mul_fast(x, b, bad) != mul_naive(x, b)
    report = certify(bad)
    assert not report.ok and not bad.certified
    return report


def test_flipped_precompute_sign_breaks_certification():
    p = build_pipeline()
    flip = p.pre_stages[0]
    assert flip.label == "flip-scalar"
    facs = list(flip.factors)
    facs[0] = -facs[0]
    pre = (replace(flip, factors=tuple(facs)),) + p.pre_stages[1:]
    report = _rejected_and_wrong(clone_pipeline(p, pre_stages=pre))
    # every scaled sum reads b0 through the flipped lane; together they
    # reach the product only on the diagonal, where they carry b0
    assert {(r.row, r.col) for r in report.residuals} == {
        (i, i) for i in range(8)}
    for r in report.residuals:
        diff = r.got - r.expected
        assert diff.const == 0 and diff.q[0] != 0 and not any(diff.q[1:])


def test_negated_recipe_factor_breaks_certification():
    p = build_pipeline()
    recipes = dict(p.recipes)
    src, lane, factor = recipes["diffcorr_23"]
    recipes["diffcorr_23"] = (src, lane, -factor)
    report = _rejected_and_wrong(clone_pipeline(p, recipes=recipes))
    assert {(r.row, r.col) for r in report.residuals} == {
        (2, 3), (2, 7), (6, 3), (6, 7)}
    twice = 2 * CORRECTION_FORMS["diffcorr_23"]
    for r in report.residuals:
        assert r.got - r.expected in (twice, -twice)


class _SwappedButterfly(Butterfly):
    """Declares a Butterfly, but its apply emits (a-b, a+b), not (a+b, a-b)."""

    def apply(self, vec, pre=None):
        out = list(vec)
        for s in self.starts:
            for i in range(self.half):
                a, b = vec[s + i], vec[s + self.half + i]
                out[s + i], out[s + self.half + i] = a - b, a + b
        return out


def test_stage_that_departs_from_its_class_breaks_certification():
    # certify reads the matrix off the apply that runs, not off the class
    p = build_pipeline()
    si = next(i for i, st in enumerate(p.stages) if st.label == "mix-head")
    st = p.stages[si]
    swapped = _SwappedButterfly(st.half, st.starts, st.dim, st.label)
    stages = p.stages[:si] + (swapped,) + p.stages[si + 1:]
    _rejected_and_wrong(clone_pipeline(p, stages=stages))


class _SquaringFanOut(FanOut):
    """Declares a FanOut, but its apply squares each lane it moves."""

    def apply(self, vec, pre=None):
        return [vec[j] * vec[j] for j in self.src]


def test_nonlinear_stage_breaks_certification():
    # unit vectors square to themselves, so the matrix read off apply is
    # the FanOut's; the lowering sees the x-by-x multiplications, so the
    # pipeline cannot be built
    p = build_pipeline()
    si = next(i for i, st in enumerate(p.stages) if st.label == "swap04")
    squaring = _SquaringFanOut(p.stages[si].src, 8, "swap04")
    stages = p.stages[:si] + (squaring,) + p.stages[si + 1:]
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert Octo(run(stages, x.c, p.precompute(b))) != mul_naive(x, b)
    with pytest.raises(DegreeError, match="mul x4 x4"):
        clone_pipeline(p, stages=stages)


class _BSideFirstCore(QuasiDiagonal):
    """The product core with each product written b-side first: b * x."""

    def apply(self, vec, pre):
        rows = [None] * self.dim
        for r, c, name in self.cells:
            term = pre[name] * vec[c]
            rows[r] = term if rows[r] is None else rows[r] + term
        return [zero_like(vec[0]) if v is None else v for v in rows]


def test_core_product_with_b_side_first_is_refused():
    # on commuting scalars b * x is right, so only the lowering can tell;
    # on matrix coefficients it is wrong (tests/test_properties.py)
    p = build_pipeline()
    si = next(i for i, st in enumerate(p.stages) if isinstance(st, QuasiDiagonal))
    core = p.stages[si]
    swapped = _BSideFirstCore(core.dim, core.cells, core.label)
    stages = p.stages[:si] + (swapped,) + p.stages[si + 1:]
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert Octo(run(stages, x.c, p.precompute(b))) == mul_naive(x, b)
    with pytest.raises(DegreeError,
                       match=r"^t\d+ = mul t\d+ t\d+: not an x-side value"):
        clone_pipeline(p, stages=stages)
    # the smallest case names the inputs themselves
    with pytest.raises(DegreeError, match=r"^t1 = mul b0 x0: "):
        Pipeline(stages=[_BSideFirstCore(dim=8, cells=((0, 0, "a"),))],
                 pre_stages=[identity()], recipes={"a": ("input", 0, 1)})


class _TriplingFanOut(FanOut):
    """The identity reindexing that also multiplies lane 0 by 3."""

    def apply(self, vec, pre=None):
        return [vec[0] * 3] + list(vec[1:])


def test_constant_that_is_not_a_power_of_two_is_refused():
    core = QuasiDiagonal(dim=8, cells=tuple((i, i, "a") for i in range(8)))
    with pytest.raises(ValueError, match="power of two"):
        Pipeline(stages=[core], pre_stages=[identity()],
                 recipes={"a": ("input", 0, 3)})
    # the walk multiplies b0 by 3 in a stage; a walk alone would prove
    # 3*b0*I, so only the lowering refuses it
    tripling = _TriplingFanOut(tuple(range(8)), 8)
    with pytest.raises(ValueError, match="power of two"):
        Pipeline(stages=[core], pre_stages=[tripling],
                 recipes={"a": ("tap", 0, 1)},
                 entry_forms={"a": LinForm.var(0, 3)})
    tripled = SymMatrix([[LinForm.var(0, 3) if i == j else 0
                          for j in range(8)] for i in range(8)])
    tap = tripling.apply([LinForm.var(i) for i in range(8)])
    assert core.matrix({"a": tap[0]}) == tripled


class _NegatedWhenLowered(SignScale):
    """A SignScale whose apply also negates lane 0, but only on the slots
    of the lowering: every other walk sees the plain stage."""

    def apply(self, vec, pre=None):
        out = super().apply(vec, pre)
        if isinstance(out[0], _Slot):
            out[0] = -out[0]
        return out


def test_stage_that_lowers_otherwise_than_it_walks_breaks_certification():
    # mul_fast runs the lowered program, so the proof must read that program
    p = build_pipeline()
    si = next(i for i, st in enumerate(p.stages) if st.label == "flip-tail")
    st = p.stages[si]
    bad = clone_pipeline(p, stages=p.stages[:si] + (
        _NegatedWhenLowered(st.factors, st.label),) + p.stages[si + 1:])
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert Octo(bad.apply(x.c, bad.precompute(b))) == mul_naive(x, b)
    assert reference_compose(bad) == schoolbook_matrix()
    report = _rejected_and_wrong(bad)
    assert {r.row for r in report.residuals} == {0}


def test_certify_and_the_solver_read_only_the_lowered_program(monkeypatch):
    p = build_pipeline()

    def refuse(*args, **kwargs):
        raise AssertionError("a stage ran after the lowering")

    monkeypatch.setattr("octofast.stages.run", refuse)
    monkeypatch.setattr("octofast.kernel.run", refuse)
    for cls in (SignScale, Butterfly, FanOut, Sum, QuasiDiagonal):
        monkeypatch.setattr(cls, "apply", refuse)
    assert certify(p).ok
    sol = solve_corrections(p)
    assert sol.free == () and sol.assignment == CORRECTION_FORMS


class _AddingS0(SignScale):
    """A SignScale that also adds the core value ``s0`` to lane 0."""

    def apply(self, vec, pre=None):
        out = super().apply(vec, pre)
        return [out[0] + pre["s0"]] + out[1:]


class _PuttingS0(SignScale):
    """A SignScale that puts the core value ``s0`` in place of lane 0."""

    def apply(self, vec, pre=None):
        return [pre["s0"]] + super().apply(vec, pre)[1:]


@pytest.mark.parametrize("leak, message", [
    (_AddingS0, r"^t\d+ = add t\d+ t\d+: mixes the x and b sides"),
    (_PuttingS0, "an output derives from b0..b7 alone"),
])
def test_a_b_side_value_in_the_output_is_not_bilinear(leak, message):
    # no mul reads it, yet the lowering refuses it: the pipeline cannot be
    # built, so nothing runs, counts or proves it
    p = build_pipeline()
    last = p.stages[-1]
    with pytest.raises(DegreeError, match=message):
        clone_pipeline(p, stages=p.stages[:-1] + (
            leak(last.factors, last.label),))


class _HalvedCore(QuasiDiagonal):
    """The product core with each cell's product made twice, as two halves
    that add up to it: two ``mul`` per cell."""

    def apply(self, vec, pre):
        rows = [None] * self.dim
        for r, c, name in self.cells:
            term = (vec[c] * pre[name] * Fraction(1, 2)
                    + vec[c] * pre[name] * Fraction(1, 2))
            rows[r] = term if rows[r] is None else rows[r] + term
        return [zero_like(vec[0]) if v is None else v for v in rows]


def test_solver_refuses_a_core_with_other_than_one_mul_per_cell():
    # mul k is read as cell k only when the core makes one mul per cell
    p = build_pipeline()
    si = next(i for i, st in enumerate(p.stages)
              if isinstance(st, QuasiDiagonal))
    core = p.stages[si]
    halved = clone_pipeline(p, stages=p.stages[:si] + (
        _HalvedCore(core.dim, core.cells, core.label),) + p.stages[si + 1:])
    assert halved._program.opcount().mults == 2 * len(core.cells) == 52
    assert certify(halved).ok
    with pytest.raises(ValueError, match="52 multiplications.* 26 cells"):
        solve_corrections(halved)


def test_two_quasidiagonal_stages_is_structural_violation():
    qd = QuasiDiagonal(dim=8, cells=((0, 0, "a"),))
    with pytest.raises(DegreeError, match="^t3 = mul t1 b0: not an x-side"):
        Pipeline(stages=[qd, qd], recipes={"a": ("input", 0, 1)},
                 entry_forms={"a": LinForm.var(0)})


def test_each_mul_multiplies_by_its_core_cells_entry_form():
    # the solver's premise: mul k of the lowered program has, as its b
    # operand, the value of core cell k, so a lowering that moves a sign or
    # a scale out of a b operand must fail here, not only in the solver
    p = build_pipeline()
    [core] = [st for st in p.stages if isinstance(st, QuasiDiagonal)]
    _, _, B = verify._terms(p._program)
    assert len(B) == len(core.cells) == 26
    for k, (_, _, name) in enumerate(core.cells):
        assert B[k] == p.entry_forms[name], (k, name)


def test_solver_recovers_all_frozen_corrections():
    p = build_pipeline()
    sol = solve_corrections(p)
    assert sol.free == ()
    assert sol.assignment == CORRECTION_FORMS


@pytest.mark.parametrize("block", ["sumcorr", "diffcorr", "swapcorr"])
def test_solver_recovers_a_chosen_block(block):
    p = build_pipeline()
    names = [n for n in CORRECTION_FORMS if n.startswith(block)]
    sol = solve_corrections(p, unknown=names)
    assert sol.free == ()
    assert sol.assignment == {n: CORRECTION_FORMS[n] for n in names}


def test_solver_with_nothing_unknown_is_trivially_consistent():
    sol = solve_corrections(build_pipeline(), unknown=[])
    assert sol.assignment == {} and sol.free == ()


def test_solver_reports_inconsistency():
    # corrupt a *known* entry; no assignment to the single unknown can fix it
    p = build_pipeline()
    forms = dict(p.entry_forms)
    forms["sumcorr_01"] = -forms["sumcorr_01"]
    bad = clone_pipeline(p, forms=forms)
    with pytest.raises(InconsistentSystemError):
        solve_corrections(bad, unknown=["diffcorr_12"])


def test_solver_needs_exactly_one_core():
    with pytest.raises(ValueError):
        solve_corrections(Pipeline(stages=[identity()]))


def test_solver_recovers_each_correction_alone():
    p = build_pipeline()
    for name, form in CORRECTION_FORMS.items():
        sol = solve_corrections(p, unknown=[name])
        assert sol.free == () and sol.assignment == {name: form}, name


def test_solver_recovers_an_unknown_with_no_entry_form():
    p = build_pipeline()
    forms = dict(p.entry_forms)
    del forms["diffcorr_12"]
    sol = solve_corrections(clone_pipeline(p, forms=forms),
                            unknown=["diffcorr_12"])
    assert sol.free == ()
    assert sol.assignment == {"diffcorr_12": CORRECTION_FORMS["diffcorr_12"]}


def test_solver_rejects_an_unknown_the_core_does_not_read():
    with pytest.raises(ValueError, match="sumcorr_O1"):
        solve_corrections(build_pipeline(), unknown=["sumcorr_O1"])


def test_solver_rejects_a_known_with_no_entry_form():
    p = build_pipeline()
    forms = dict(p.entry_forms)
    del forms["sumcorr_01"]
    with pytest.raises(ValueError, match="sumcorr_01"):
        solve_corrections(clone_pipeline(p, forms=forms),
                          unknown=["diffcorr_12"])


def test_solver_rejects_two_cores():
    # two cores that multiply core values cannot be built; two that are
    # bilinear, the second reading a lane the first left zero, the solver
    # refuses, as it reads mul k as cell k of the one core
    qd = QuasiDiagonal(dim=8, cells=((0, 0, "a"),))
    with pytest.raises(DegreeError, match="^t3 = mul t1 b0: not an x-side"):
        Pipeline(stages=[qd, qd], recipes={"a": ("input", 0, 1)},
                 entry_forms={"a": LinForm.var(0)})
    p = Pipeline(stages=[qd, QuasiDiagonal(dim=8, cells=((1, 1, "a"),))],
                 recipes={"a": ("input", 0, 1)},
                 entry_forms={"a": LinForm.var(0)})
    with pytest.raises(ValueError, match="exactly one.* found 2"):
        solve_corrections(p)


def _solve_outcome(solve, p, unknown):
    try:
        sol = solve(p, unknown)
    except InconsistentSystemError as e:
        return "inconsistent", str(e)
    return sol.assignment, sol.free


@pytest.mark.parametrize("unknowns", ["default", "all"])
def test_solver_agrees_with_the_walk_per_unknown(unknowns):
    # the shipped pipeline and every main-chain sign mutant, solved from
    # verify._terms' read of p._program and by walking the whole chain per
    # unknown
    p = build_pipeline()
    core, = (st for st in p.stages if isinstance(st, QuasiDiagonal))
    every = sorted({name for _, _, name in core.cells})
    unknown = None if unknowns == "default" else every
    cases = [("shipped", p)] + [(site, m) for site, m in sign_mutation_sites(p)
                                if site.startswith("main:")]
    outcomes = set()
    for site, q in cases:
        got = _solve_outcome(solve_corrections, q, unknown)
        assert got == _solve_outcome(reference_solve, q, unknown), site
        outcomes.add(got[0] == "inconsistent")
    assert outcomes == {True, False}  # both kinds of outcome are compared


class _ReadsX3(QuasiDiagonal):
    """A core whose output 1 also reads its input lane 3 directly."""

    def apply(self, vec, pre):
        out = super().apply(vec, pre)
        out[1] = out[1] + vec[3]
        return out


class _ReadsX3Twice(QuasiDiagonal):
    """A core whose output 1 adds its input lane 3 and takes it off."""

    def apply(self, vec, pre):
        out = super().apply(vec, pre)
        out[1] = out[1] + vec[3] - vec[3]
        return out


@pytest.mark.parametrize("unknown", [None, ["s0", "s1"], ["sumcorr_01"], []],
                         ids=["default", "s0-s1", "sumcorr_01", "none"])
@pytest.mark.parametrize("core", [_ReadsX3, _ReadsX3Twice])
def test_solver_agrees_with_the_walk_on_outputs_that_read_x(core, unknown):
    # the program's outputs read x0..x7 directly as well as the products
    # (validate allows x plus m), which the solver moves to the target side
    p = build_pipeline()
    q = clone_pipeline(p, stages=tuple(
        core(st.dim, st.cells, st.label) if isinstance(st, QuasiDiagonal)
        else st for st in p.stages))
    V, _, _ = verify._terms(q._program)
    assert any(any(row[:8]) for row in V) is (core is _ReadsX3)
    got = _solve_outcome(solve_corrections, q, unknown)
    assert got == _solve_outcome(reference_solve, q, unknown)
    # a constant in an entry no b-form can cancel; a term taken off again
    # leaves the shipped system
    assert (got[0] == "inconsistent") is (core is _ReadsX3)


def test_composition_keeps_a_zero_b_form():
    # the precompute makes lane 0 b0 - b0, so the core's first mul
    # multiplies x0 by a zero form of b
    zero_first = Sum(rows=(((0, 1), (0, -1)),)
                     + tuple(((i, 1),) for i in range(1, 8)), in_dim=8)
    p = Pipeline(stages=[QuasiDiagonal(
                     dim=8, cells=tuple((i, i, f"s{i}") for i in range(8)))],
                 pre_stages=[zero_first])
    _, _, B = verify._terms(p._program)
    assert B[0].is_zero
    assert compose_symbolic(p) == reference_compose(p)
    assert len(certify(p).residuals) == 64


def _toy_chain(name64, row64):
    """A chain through a 65-lane core.  Lane 8i + j carries x_j times
    schoolbook entry (i, j), read off a recipe e{i}{j}, and row i of a Sum
    adds up lanes 8i..8i+7: that alone computes the product.  Lane 64
    carries x_0 times the value ``name64`` (a recipe for b_0 if it is not
    an e{i}{j}), and row ``row64`` of the Sum adds it too (None: none)."""
    target = schoolbook_matrix()
    recipes, forms, cells = {}, {}, []
    for i in range(8):
        for j in range(8):
            e = target.entry(i, j)
            k = next(k for k, q in enumerate(e.numerators[1:]) if q)
            recipes[f"e{i}{j}"] = ("input", k, e.numerators[1 + k])
            forms[f"e{i}{j}"] = e
            cells.append((8 * i + j, 8 * i + j, f"e{i}{j}"))
    recipes.setdefault(name64, ("input", 0, 1))
    forms.setdefault(name64, LinForm.var(0))
    cells.append((64, 64, name64))
    rows = [[(8 * i + j, 1) for j in range(8)] for i in range(8)]
    if row64 is not None:
        rows[row64].append((64, 1))
    stages = [FanOut(src=tuple(range(8)) * 8 + (0,), in_dim=8),
              QuasiDiagonal(dim=65, cells=tuple(cells)),
              Sum(rows=tuple(map(tuple, rows)), in_dim=65)]
    return Pipeline(stages=stages, recipes=recipes, entry_forms=forms)


def test_solver_frees_an_unknown_on_a_dropped_core_row():
    p = _toy_chain("spare", None)
    assert certify(p).ok
    sol = solve_corrections(p)
    assert sol.free == ("spare",)
    assert sol.assignment.pop("spare") is LinForm.zero()
    assert sol.assignment == {n: f for n, f in p.entry_forms.items()
                              if n != "spare"}
    assert _solve_outcome(solve_corrections, p, None) == \
        _solve_outcome(reference_solve, p, None)


def test_solver_adds_up_the_cells_that_read_one_name():
    # e00 is read on lanes 0 and 64, both summed into output 0: its
    # coefficient in entry (0, 0) is 2, so it must be b_0 / 2
    p = _toy_chain("e00", 0)
    sol = solve_corrections(p, unknown=["e00"])
    assert sol.free == ()
    assert sol.assignment == {"e00": LinForm.var(0, Fraction(1, 2))}
    assert _solve_outcome(solve_corrections, p, ["e00"]) == \
        _solve_outcome(reference_solve, p, ["e00"])


def test_solver_reads_fraction_halves():
    # 2^k before the core on some lanes and 2^-k after it on the same lanes
    # leave the product alone, but put Fractions into both constant halves
    q = _fraction_halves()
    assert certify(q).ok
    # the x-rows the products read, and the output rows over the products
    V, X, _ = verify._terms(q._program)
    for half in (X, V):
        assert any(type(v) is Fraction for row in half for v in row)
    sol = solve_corrections(q)
    assert sol.free == () and sol.assignment == CORRECTION_FORMS


def _scaled_core(before):
    """The shipped pipeline with the core's input lanes scaled by
    ``before`` and its output lanes by the inverses: the same product."""
    p = build_pipeline()
    at = next(k for k, st in enumerate(p.stages)
              if isinstance(st, QuasiDiagonal))
    after = tuple(1 / Fraction(f) for f in before)
    return clone_pipeline(p, stages=(
        p.stages[:at] + (SignScale(tuple(before), label="pre-scale"),
                         p.stages[at],
                         SignScale(after, label="post-scale"))
        + p.stages[at + 1:]))


def test_decode_reads_coefficients_other_than_zero_and_one():
    # x2 and x1/2 on alternate blocks of 4 core lanes (a core cell stays in
    # its block): the products' x-rows hold 2 and 1/2, which the decode
    # multiplies in, and each unknown's row, whose form the solver sets to
    # zero, holds them too
    q = _scaled_core(((2,) * 4 + (Fraction(1, 2),) * 4) * 3)
    _, X, _ = verify._terms(q._program)
    coefficients = {c for row in X for c in row}
    assert {2, Fraction(1, 2)} <= coefficients
    core, = (st for st in q.stages if isinstance(st, QuasiDiagonal))
    unknown_rows = [X[k] for k, (_, _, name) in enumerate(core.cells)
                    if name in q.recipes]
    assert unknown_rows and all(set(row) - {0, 1, -1} for row in unknown_rows)
    assert compose_symbolic(q) == reference_compose(q)
    assert certify(q).ok
    assert solve_corrections(q) == reference_solve(q)
    assert solve_corrections(q).assignment == CORRECTION_FORMS


def test_composition_agrees_with_the_stage_by_stage_product():
    # verify._terms' read of p._program against every stage's matrix,
    # read off the walk and multiplied in, on the shipped pipeline and every
    # sign mutant
    p = build_pipeline()
    cases = [("shipped", p)] + sign_mutation_sites(p)
    assert {site.split(":")[0] for site, _ in cases} >= {"main", "pre"}
    for site, q in cases:
        assert compose_symbolic(q) == reference_compose(q), site


def _core_first():
    p = build_pipeline()
    core = QuasiDiagonal(dim=8, cells=tuple((i, i, f"s{i}") for i in range(8))
                         + ((0, 3, "sumcorr_01"), (5, 2, "diffcorr_12")))
    return clone_pipeline(p, stages=(
        core, Butterfly(half=4, starts=(0,), dim=8),
        SignScale((1, -1) * 4), FanOut(src=(7, 6, 5, 4, 3, 2, 1, 0), in_dim=8)))


def _core_last():
    p = build_pipeline()
    core = QuasiDiagonal(dim=16, cells=tuple((i, i, f"s{i % 8}")
                                             for i in range(0, 16, 3))
                         + ((1, 9, "swapcorr_11"), (15, 2, "sumcorr_02")))
    return clone_pipeline(p, stages=(
        FanOut(src=(4, 1, 2, 3, 0, 5, 6, 7), in_dim=8),
        FanOut(src=tuple(range(8)) * 2, in_dim=8),
        Butterfly(half=4, starts=(0, 8), dim=16), core,
        Sum(rows=tuple(((j, 1), (j + 8, -1)) for j in range(8)), in_dim=16)))


def _fraction_halves():
    # 2^-1 and 2^2 before the core, their inverses after it
    return _scaled_core([Fraction(1, 2)] * 4 + [1] * 4 + [4] * 4 + [1] * 12)


def _post_scaled(p, e):
    """``p`` with every core output lane scaled by ``2^-e`` right after
    the core: each cell's form times ``2^e`` gives the same product."""
    at, core = next((k, st) for k, st in enumerate(p.stages)
                    if isinstance(st, QuasiDiagonal))
    return clone_pipeline(p, stages=(
        p.stages[:at + 1]
        + (SignScale((Fraction(1, 2**e),) * core.dim, label="post-shift"),)
        + p.stages[at + 1:]))


_WIDE = [("shipped", build_pipeline),
         ("fraction-halves", _fraction_halves),
         ("scaled-core",
          lambda: _scaled_core(((2,) * 4 + (Fraction(1, 2),) * 4) * 3))]


@pytest.mark.parametrize("make", [m for _, m in _WIDE],
                         ids=[i for i, _ in _WIDE])
def test_solver_packs_wide_known_forms_without_overflow(make, monkeypatch):
    # the equations are read as packed ints, ``w`` bits a field: one known
    # cell with numerators of 2^70 and more dominates the bound on a
    # field, so a field one bit narrower than ``w`` overflows
    q = make()
    core, = (st for st in q.stages if isinstance(st, QuasiDiagonal))
    every = sorted({name for _, _, name in core.cells})
    for known in ("s0", "sumcorr_01"):
        unknown = [n for n in every if n != known]
        form = q.entry_forms[known]
        for factor in (2**70 + 1, -(2**127 - 1)):
            bad = clone_pipeline(q, forms={**q.entry_forms,
                                           known: form * factor})
            got = _solve_outcome(solve_corrections, bad, unknown)
            assert got[0] == "inconsistent", (known, factor)
            assert got == _solve_outcome(reference_solve, bad, unknown)
        # the same product with the core's outputs shifted down by 2^70
        # and the known form shifted up: every unknown comes out 2^70 times
        # its form
        wide = _post_scaled(clone_pipeline(
            q, forms={**q.entry_forms, known: form * 2**70}), 70)
        got = _solve_outcome(solve_corrections, wide, unknown)
        assert got == _solve_outcome(reference_solve, wide, unknown)
        assert got == ({n: q.entry_forms[n] * 2**70 for n in unknown}, ())
    # every known form wide at once
    forms = {n: f * (2**70 + 1) for n, f in q.entry_forms.items()}
    for unknown in (None, []):
        bad = clone_pipeline(q, forms=forms)
        got = _solve_outcome(solve_corrections, bad, unknown)
        assert got[0] == "inconsistent"
        assert got == _solve_outcome(reference_solve, bad, unknown)
    # the known sumcorr_01 times F * 2^e, after a core scaled by 2^-e,
    # puts the largest compared field at D * S * (1 - F) = T (twice that
    # on the scaled core, whose x-rows hold 2), D the denominator of F and
    # S = 2^e: the fields 2^15 - 1 and 2^15 sit either side of 16 bits,
    # and at 2^15 the target's D * S and the bound on the outputs are each
    # below 2^15, so only their sum widens the fields
    fields = []
    real = verify._solve_linear

    def solve_linear(names, rows, D, S):
        fields.append((max(f for row in rows for f in row), S))
        return real(names, rows, D, S)

    monkeypatch.setattr(verify, "_solve_linear", solve_linear)
    unknown = [n for n in every if n != "sumcorr_01"]
    form = q.entry_forms["sumcorr_01"]
    for T, F, e in ((2**14 - 1, Fraction(-16376, 7), 0),
                    (2**14, Fraction(-1, 3), 12),
                    (2**15 - 1, Fraction(-32764, 3), 0),
                    (2**15, Fraction(-1, 3), 13)):
        bad = _post_scaled(clone_pipeline(
            q, forms={**q.entry_forms, "sumcorr_01": form * F * 2**e}), e)
        got = _solve_outcome(solve_corrections, bad, unknown)
        assert got[0] == "inconsistent", T
        assert got == _solve_outcome(reference_solve, bad, unknown), T
        field, S = fields.pop()
        assert field == T * (S >> e), T


_CORE_NAMES = sorted({name for st in build_pipeline().stages
                      if isinstance(st, QuasiDiagonal)
                      for _, _, name in st.cells})


@lru_cache(maxsize=1)
def _a_few_sign_mutants():
    sites = sign_mutation_sites(build_pipeline())
    return tuple(m for _, m in sites[::30])


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(unknown=hst.sets(hst.sampled_from(_CORE_NAMES)),
       which=hst.integers(min_value=-1, max_value=4))
def test_solver_agrees_with_the_walk_on_random_unknowns(unknown, which):
    # a random set of unknowns, on the shipped pipeline (-1) or one of a
    # few sign mutants
    q = build_pipeline() if which < 0 else _a_few_sign_mutants()[which]
    unknown = sorted(unknown)
    assert _solve_outcome(solve_corrections, q, unknown) == \
        _solve_outcome(reference_solve, q, unknown)


@pytest.mark.parametrize("make, certifies", [
    (_core_first, False),
    (_core_last, False),
    (lambda: Pipeline(stages=[identity()]), False),
    (lambda: Pipeline(stages=[]), False),
    (_fraction_halves, True),
], ids=["core-first", "core-last", "no-core", "empty", "fraction-halves"])
def test_composition_agrees_on_chains_split_anywhere(make, certifies):
    p = make()
    assert compose_symbolic(p) == reference_compose(p)
    assert certify(p).ok is certifies
    if make is _fraction_halves:
        # both sides of the core carry Fractions: the x-rows the products
        # read, and the output rows over the products
        V, X, _ = verify._terms(p._program)
        assert any(type(v) is Fraction for row in X for v in row)
        assert any(type(v) is Fraction for row in V for v in row)


def test_two_cores_raise_in_both_compositions():
    # the lowering refuses the pipeline, and the reference's product of
    # the stages' matrices multiplies two forms of b
    qd = QuasiDiagonal(dim=8, cells=((0, 0, "a"), (1, 1, "a")))
    stages = [qd, Butterfly(half=1, starts=(0,), dim=8), qd]
    with pytest.raises(DegreeError, match="^t6 = mul t4 b0: not an x-side"):
        Pipeline(stages=stages, recipes={"a": ("input", 0, 1)},
                 entry_forms={"a": LinForm.var(0)})
    pre = {"a": LinForm.var(0)}
    with pytest.raises(DegreeError):
        reduce(lambda acc, st: st.matrix(pre) @ acc, stages,
               SymMatrix.identity(8))


_POINT_OPS = {"add": add, "sub": sub, "mul": mul}


def _points(unit):
    """The 81 operand pairs ``(x, b)``, each of ``x`` and ``b`` zero or
    ``unit`` times a basis vector."""
    ends = [(0 * unit,) * 8] + [tuple(unit if j == i else 0 * unit
                                      for j in range(8)) for i in range(8)]
    return [(x, b) for x in ends for b in ends]


def _shift_total(prog):
    """``S``: the sum of ``|k|`` over the shifts of ``prog`` by ``k < 0``."""
    return sum(-ins.k for ins in prog.instrs if ins.op == "shift" and ins.k < 0)


def _agrees_at_81_points(prog):
    """Whether ``prog`` equals ``mul_naive`` at ``_points(2**S)``.

    A plain interpreter over ``prog.instrs``, with no linear forms: each
    slot is the tuple of its 81 values, all ints, since every operand is
    a multiple of ``2**S``; each shift by ``k < 0`` is asserted to divide
    exactly.  ``Program.validate`` (run when the program was lowered)
    bounds each output's degree by 1 in x and 1 in b, and such a map is
    fixed by its values at these points, so agreement is a proof.
    """
    points = _points(1 << _shift_total(prog))
    value = dict(zip(INPUTS, [tuple(x[i] for x, _ in points) for i in range(8)]
                     + [tuple(b[i] for _, b in points) for i in range(8)]))
    for ins in prog.instrs:
        a = value[ins.a]
        if ins.op == "shift" and ins.k < 0:
            mask = (1 << -ins.k) - 1
            assert not any(u & mask for u in a), ins.to_text()
            args = rshift, a, repeat(-ins.k)
        elif ins.op == "shift":
            args = lshift, a, repeat(ins.k)
        elif ins.op == "zero":
            args = mul, a, repeat(0)
        elif ins.op == "neg":
            args = neg, a
        else:
            args = _POINT_OPS[ins.op], a, value[ins.b]
        value[ins.dest] = tuple(map(*args))
    got = zip(*map(value.get, prog.outputs))
    return all(y == mul_naive(Octo(x), Octo(b)).c
               for (x, b), y in zip(points, got))


def test_81_exact_points_agree_with_certify_on_every_sign_mutant():
    # an independent check of the proof, sharing no code with verify
    p = build_pipeline()
    assert _agrees_at_81_points(p._program) and certify(p).ok
    verdicts = set()
    for site, m in sign_mutation_sites(p):
        verdict = _agrees_at_81_points(m._program)
        assert verdict is certify(m).ok, site
        verdicts.add(verdict)
    assert verdicts == {False}


def test_the_three_compiled_bodies_give_mul_naive_at_the_81_points():
    # the twin and the generic body at the int points; the float body at
    # the unscaled ones, where every value is a small dyadic, so exact
    prog = flatten(default_pipeline())
    scope = compile_program(prog).__globals__
    # the two helper bodies take coefficients, kernel takes Octos
    for body, unit, wrap in (
            (scope["_int_kernel"], 1 << _shift_total(prog), tuple),
            (scope["_generic_kernel"], 1 << _shift_total(prog), tuple),
            (scope["kernel"], 1.0, Octo)):
        for x, b in _points(unit):
            assert body(wrap(x), wrap(b)).c \
                == mul_naive(Octo(x), Octo(b)).c, (x, b)


def test_certify_goes_through_the_entry_points_the_trace_wraps(monkeypatch):
    # perfbench/layers.py times certify by wrapping verify.compose_symbolic
    # and SymMatrix.__matmul__, and calls solve_corrections(p); CI's traced
    # smoke run reads those spans and fails obscurely without them.  A
    # traced run takes them from the refused mutants it certifies: a
    # proved pipeline is proved at one point, with no symbolic product
    calls = {"compose": 0, "matmul": 0}
    compose, matmul = verify.compose_symbolic, SymMatrix.__matmul__

    def counted_compose(p):
        calls["compose"] += 1
        return compose(p)

    def counted_matmul(a, b):
        calls["matmul"] += 1
        return matmul(a, b)

    monkeypatch.setattr(verify, "compose_symbolic", counted_compose)
    monkeypatch.setattr(SymMatrix, "__matmul__", counted_matmul)
    p = build_pipeline()
    _, mutant = sign_mutation_sites(p)[0]
    assert not certify(mutant).ok
    assert calls["compose"] == 1, \
        "certify must call compose_symbolic through the module attribute"
    assert calls["matmul"] >= 1, \
        "certify of a refused pipeline must make at least one SymMatrix @"
    calls.update(compose=0, matmul=0)
    assert certify(p).ok
    assert calls == {"compose": 0, "matmul": 0}, \
        "certify of the shipped pipeline makes no symbolic product"
    sol = solve_corrections(p)
    assert sol.free == () and sol.assignment == CORRECTION_FORMS


def _whole_report(q):
    """The report on ``q`` built from the whole 8x8 symbolic product
    against the schoolbook matrix, row-major."""
    target, got = schoolbook_matrix().entries, compose_symbolic(q).entries
    return verify.ResidualReport(
        [verify.Residual(i, j, e, g) for i in range(8)
         for j, (e, g) in enumerate(zip(target[i], got[i])) if e != g])


def test_certify_composes_only_the_outputs_its_point_refuses(monkeypatch):
    # certify multiplies out only the rows of the outputs the point
    # refuses, through one call of the module's compose_symbolic, and its
    # report is the one the whole product gives: same entries, texts and
    # order
    programs = []
    compose = verify.compose_symbolic

    def spy(q):
        programs.append(q._program)
        return compose(q)

    monkeypatch.setattr(verify, "compose_symbolic", spy)
    counts = {}
    sites = sign_mutation_sites(build_pipeline())
    for site, q in sites:
        programs.clear()
        report = certify(q)
        want = _whole_report(q)
        assert report == want and report.to_text() == want.to_text(), site
        rows = sorted({r.row for r in want.residuals})
        prog, = programs
        assert prog.instrs == q._program.instrs, site
        assert prog.outputs == tuple(q._program.outputs[i] for i in rows), site
        counts.setdefault(len(rows), set()).add(site.split(":")[0])
    assert counts[1] >= {"main", "recipe"} and counts[2] >= {"main", "recipe"}
    assert counts[8] == {"pre"}
    # the lane-5 flip of the last stage is refused in output 5 alone
    programs.clear()
    q = dict(sites)["main:flip-tail[5]"]
    certify(q)
    assert [prog.outputs for prog in programs] == [(q._program.outputs[5],)]


def test_certify_refuses_a_program_without_8_outputs():
    # a program without 8 outputs is not the product, however many of
    # its outputs match their rows: certify raises the ValueError that
    # compile_program gives, from the one check both make
    prog = build_pipeline()._program
    for outputs in ((), prog.outputs[:7], prog.outputs + prog.outputs[:1]):
        q = SimpleNamespace(_program=Program(prog.instrs, outputs))
        with pytest.raises(ValueError, match=f"has {len(outputs)}$"):
            certify(q)
        assert not hasattr(q, "certified")


def _resolve(dotted):
    """The object a dotted name under ``octofast`` names (the package
    imports each of its modules, so attribute lookups reach them all)."""
    head, *rest = dotted.split(".")
    return reduce(getattr, rest, importlib.import_module(head))


def _benchmark_octofast_names():
    """Each octofast name ``perfbench/*.py`` imports, and each attribute it
    reads off such a name (``verify.certify``, ``SymMatrix.identity``)."""
    names = set()
    for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> dotted octofast name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "octofast":
                for a in node.names:
                    bound[a.asname or a.name] = f"{node.module}.{a.name}"
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "octofast":
                        bound[a.asname or a.name] = a.name
        names |= set(bound.values())
        names |= {f"{bound[node.value.id]}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in bound}
    return names


def test_every_octofast_name_the_benchmark_uses_resolves():
    # perfbench/ is changed only with the benchmark; a src/ change that
    # drops a name it imports must fail here first
    names = _benchmark_octofast_names()
    assert {"octofast.stages.apply_stage", "octofast.kernel.PrecomputeSet",
            "octofast.program.eval_program", "octofast.verify.certify",
            "octofast.linform.SymMatrix.identity"} <= names
    for name in sorted(names):
        _resolve(name)


def test_the_benchmark_shims_still_compute_the_product():
    # the calls perfbench/harness.py and perfbench/layers.py make: stage
    # matrices multiplied in one at a time, and the product replayed one
    # apply_stage per stage through a hand-built PrecomputeSet
    p = build_pipeline()
    assert certify(p).ok
    assert SymMatrix.identity(3) == SymMatrix(
        [[int(i == j) for j in range(3)] for i in range(3)])
    acc = SymMatrix.identity(8)
    for st in p.stages:
        acc = st.matrix(p.entry_forms) @ acc
    assert acc == schoolbook_matrix()
    acc = SymMatrix.identity(8)
    for st in p.pre_stages:
        acc = st.matrix(None) @ acc
    pre = p.precompute([LinForm.var(i) for i in range(8)])
    assert acc == SymMatrix([pre[name].q for name in LANES])

    rng = random.Random(20)
    for _ in range(20):
        x, b = (Octo(tuple(rng.randint(-50, 50) for _ in range(8)))
                for _ in range(2))
        vec = tap = list(b.c)
        for k, st in enumerate(p.pre_stages):
            vec = apply_stage(st, vec, None)
            if k == p.tap_index:
                tap = vec
        m = {name: (b.c[lane] if src == "input" else tap[lane]) * factor
             for name, (src, lane, factor) in p.recipes.items()}
        pre = PrecomputeSet(s=tuple(vec), m=m)
        vec = list(x.c)
        for st in p.stages:
            vec = apply_stage(st, vec, pre)
        assert Octo(vec) == mul_fast(x, b) == mul_naive(x, b)
        assert eval_program(flatten(p), x, b) == mul_fast(x, b)


def test_solver_refuses_a_bare_string_of_unknowns():
    with pytest.raises(TypeError, match=r"a list of names.*\['diffcorr_12'\]"):
        solve_corrections(build_pipeline(), unknown="diffcorr_12")
    sol = solve_corrections(build_pipeline(), unknown=["diffcorr_12"])
    assert sol.assignment == {"diffcorr_12": CORRECTION_FORMS["diffcorr_12"]}


@pytest.mark.parametrize("unknown", [[1], ["s0", 1], ("s0", None)])
def test_solver_refuses_unknowns_that_are_not_names(unknown):
    with pytest.raises(TypeError, match="unknown takes a list of names"):
        solve_corrections(build_pipeline(), unknown=unknown)


def _emit(instrs, op, a, b=None, k=None):
    """Append ``op a [b]`` (or ``shift a k``) to ``instrs`` as the next
    slot ``t<n>``, and return that slot's name."""
    instrs.append(Instr(f"t{len(instrs) + 1}", op, a, b, k))
    return instrs[-1].dest


def _rescaled(prog, shifts):
    """``prog`` with the x operand of ``mul`` ``k`` shifted by ``a``, its b
    operand by ``c`` and its result by ``-(a + c)``, ``(a, c) = shifts[k]``:
    the same bilinear map, now with x-side shifts by ``k < 0`` and slots of
    other than one scale.  A shift by 0 is left out."""
    names = dict(zip(INPUTS, INPUTS))
    instrs = []
    emit = partial(_emit, instrs)

    def shifted(slot, k):
        return emit("shift", slot, k=k) if k else slot

    pairs = iter(shifts)
    for ins in prog.instrs:
        a, b = names[ins.a], names.get(ins.b)
        if ins.op == "mul":
            ka, kc = next(pairs)
            names[ins.dest] = shifted(
                emit("mul", shifted(a, ka), shifted(b, kc)), -(ka + kc))
        else:
            names[ins.dest] = emit(ins.op, a, b, ins.k)
    return Program(tuple(instrs), tuple(names[o] for o in prog.outputs))


def _rescaled_programs(count=12, seed=42):
    """``count`` rescalings of the shipped program, each product's ``a``
    and ``c`` drawn from [-3, 3]."""
    prog = build_pipeline()._program
    rng = random.Random(seed)
    return [_rescaled(prog, [(rng.randint(-3, 3), rng.randint(-3, 3))
                             for ins in prog.instrs if ins.op == "mul"])
            for _ in range(count)]


def test_the_packed_walk_reads_what_the_tuple_walk_reads():
    # value for value against the old walk, kept as the slow reference
    p = build_pipeline()
    corpus = [("shipped", p._program)]
    corpus += [(site, m._program) for site, m in sign_mutation_sites(p)]
    corpus += [(name, make()._program) for name, make in _WIDE[1:]]
    corpus += [("toy-spare", _toy_chain("spare", None)._program),
               ("toy-e00", _toy_chain("e00", 0)._program)]
    rescaled = _rescaled_programs()
    corpus += [(f"rescaled-{r}", q) for r, q in enumerate(rescaled)]
    for name, prog in corpus:
        assert verify._terms(prog) == reference_terms(prog), name
    for q in rescaled:
        assert q.validate() and _agrees_at_81_points(q)
        V, X, _, _ = verify._walk(q)
        assert any(e for _, e, _ in X) and any(e for _, e, _ in V)
    assert any(ins.op == "shift" and ins.k < 0 and ins.a.startswith("x")
               for q in rescaled for ins in q.instrs)


def test_fields_past_63_bits_are_read_with_wider_fields():
    # x2^70 on the first 4 core lanes and x2^-70 after: the outputs add
    # m_k / 2^70 to the other products, so V's fields reach 2^70
    q = _scaled_core((2**70,) * 4 + (1,) * 20)
    V, _, _, w = verify._walk(q._program)
    assert w == 128 and max(a for _, _, a in V) >= 2**70
    assert verify._terms(q._program) == reference_terms(q._program)
    assert compose_symbolic(q) == reference_compose(q)
    assert certify(q).ok
    assert solve_corrections(q) == reference_solve(q)


def _times(c, instrs):
    """Append to ``instrs`` the slots of ``c * x0``, by doubling and
    adding the bits of ``|c|``, then adding a zero, so the last slot's
    one field is ``c`` itself at ``e = 0`` with the bound ``|c|``; return
    its name."""
    emit = partial(_emit, instrs)
    x = slot = "x0"
    for bit in bin(abs(c))[3:]:
        slot = emit("shift", slot, k=1)
        if bit == "1":
            slot = emit("add", slot, x)
    slot = emit("add", slot, emit("zero", x))
    return emit("neg", slot) if c < 0 else slot


@pytest.mark.parametrize("c", [2**63 - 1, 2**63, -2**63, 2**63 + 1,
                               -(2**63 - 1), 3 * 2**100 + 1])
def test_a_field_reads_back_exactly_on_either_side_of_63_bits(c):
    # below 2^63 in magnitude a field is read 64 bits wide; from there on
    # the program is walked again wider, even for -2^63, which would fit
    instrs = []
    out = _times(c, instrs)
    prog = Program(tuple(instrs), (out,) + INPUTS[1:8])
    prog.validate()
    V, _, _, w = verify._walk(prog)
    assert w == (64 if abs(c) < 2**63 else 128 if abs(c) < 2**127 else 192)
    assert max(a for _, _, a in V) == abs(c)
    got, _, _ = verify._terms(prog)
    assert got[0] == (c,) + (0,) * 7
    assert got == reference_terms(prog)[0]


@pytest.mark.parametrize("w", [16, 64, 128, 192])
@pytest.mark.parametrize("little", [True, False])
def test_the_row_reader_agrees_with_shift_and_mask(w, little, monkeypatch):
    # the same fields as a plain shift-and-mask read gives, which does not
    # depend on byte order, on either branch of the reader
    monkeypatch.setattr(verify, "byteorder", "little" if little else "big")
    rng = random.Random(w)
    half = 1 << (w - 1)
    for width, per in ((1, 1), (8, 1), (34, 1), (9, 8)):
        rows = [[rng.choice((-half, half - 1, 0, -1))
                 if rng.random() < 0.2 else rng.randrange(-half, half)
                 for _ in range(width)] for _ in range(3 * per)]
        ns = [sum(f << w * t for t, f in enumerate(
            [f for row in rows[i:i + per] for f in row]))
            for i in range(0, len(rows), per)]
        mask = (1 << w) - 1
        plain = [[((n + half * sum(1 << w * t for t in range(width * per)))
                   >> w * t & mask) - half for t in range(width * per)]
                 for n in ns]
        want = [tuple(r[i:i + width]) for r in plain
                for i in range(0, width * per, width)]
        assert want == [tuple(r) for r in rows]
        assert verify._read(ns, width, w, per) == want


@pytest.mark.parametrize("bound, w", [
    (0, 16), (1, 16), (2**14, 16), (2**15 - 1, 16), (2**15, 64),
    (2**16, 64), (2**63 - 1, 64), (2**63, 128), (2**127 - 1, 128),
    (2**127, 192)])
def test_fields_are_16_bits_wide_or_a_multiple_of_64(bound, w):
    # the fewest of those bits that hold a signed field of magnitude bound
    assert verify._width(bound) == w
    assert bound < 1 << w - 1


def _plus(prog, out, term):
    """``prog`` with the slot that ``term(emit)`` emits added to output
    ``out``, validated."""
    instrs = list(prog.instrs)
    emit = partial(_emit, instrs)
    outs = list(prog.outputs)
    outs[out] = emit("add", outs[out], term(emit))
    q = Program(tuple(instrs), tuple(outs))
    q.validate()
    return q


def _shifted_outputs(prog, k):
    """``prog`` with every output times ``2^k``, validated."""
    instrs = list(prog.instrs)
    outs = tuple([_emit(instrs, "shift", o, k=k) for o in prog.outputs])
    q = Program(tuple(instrs), outs)
    q.validate()
    return q


def _spike(W, s=0):
    """The term ``(x0 * b0 / 2^s) * 2^W - x0 * b1 / 2^s``."""
    def term(emit):
        b0, b1 = (emit("shift", b, k=-s) if s else b for b in ("b0", "b1"))
        high = emit("shift", emit("mul", "x0", b0), k=W)
        return emit("sub", high, emit("mul", "x0", b1))
    return term


def _naught(K):
    """The term ``x0 * b0 * 2^K - x0 * b0 * 2^K``: zero, but made of
    slots of ``e = -K``."""
    def term(emit):
        m = emit("mul", "x0", "b0")
        return emit("sub", emit("shift", m, k=K), emit("shift", m, k=K))
    return term


def _point_cases():
    """``(name, program)``: the shipped program, every sign mutant, the
    rescaled and toy chains, and programs whose outputs at the point have
    ``e < 0`` or compared fields past 63 bits."""
    p = build_pipeline()
    prog = p._program
    cases = [("shipped", prog)]
    cases += [(site, m._program) for site, m in sign_mutation_sites(p)]
    cases += [("fraction-halves", _fraction_halves()._program)]
    cases += [(f"scaled-core-{c}", _scaled_core((c,) * 24)._program)
              for c in (2, Fraction(1, 2))]
    cases += [("scaled-core-2**70",
               _scaled_core((2**70,) * 4 + (1,) * 20)._program)]
    cases += [("toy-spare", _toy_chain("spare", None)._program),
              ("toy-e00", _toy_chain("e00", 0)._program)]
    cases += [(f"rescaled-{r}", q) for r, q in enumerate(_rescaled_programs())]
    cases += [(f"outputs-times-2**{k}", _shifted_outputs(prog, k))
              for k in (1, 5, 70)]
    cases += [(f"plus-naught-{K}", _plus(prog, 3, _naught(K)))
              for K in (70, -70)]
    cases += [(f"plus-spike-{W}", _plus(prog, 0, _spike(W))) for W in (16, 70)]
    return cases


def test_the_point_verdict_is_the_symbolic_verdict():
    # one exact run at the point against the 8x8 product of forms, output
    # by output, on programs proved and refused, at 16 bits a field and
    # wider: an output the point refuses is exactly a row that differs
    target = schoolbook_matrix().entries
    seen = set()
    for name, prog in _point_cases():
        outs, w = verify._point(prog)
        refused = verify._refused(prog)
        got = compose_symbolic(SimpleNamespace(_program=prog)).entries
        assert refused == [i for i in range(8) if got[i] != target[i]], name
        proved = not refused
        seen.add((proved, w > 64, any(e < 0 for _, e, _ in outs)))
    assert {(True, False, False), (False, False, False), (True, True, False),
            (False, True, False), (False, False, True),
            (False, True, True)} <= seen


def _moved(W):
    """The shipped program with outputs 1..7 replaced by rows 1..7 of the
    product moved up one field and over ``2^W``: each ``x_j b_k`` becomes
    ``x_j b_(k+1)``, or ``x_(j+1)`` for ``k = 7``."""
    prog = build_pipeline()._program
    instrs = list(prog.instrs)
    emit = partial(_emit, instrs)
    outs = [prog.outputs[0]]
    for i in range(1, 8):
        slot = None
        for j in range(8):
            nums = schoolbook_matrix().entry(i, j).numerators
            k = next(k for k in range(8) if nums[1 + k])
            term = (f"x{j + 1}" if k == 7
                    else emit("mul", f"x{j}", f"b{k + 1}"))
            if nums[1 + k] < 0:
                term = emit("neg", term)
            slot = term if slot is None else emit("add", slot, term)
        outs.append(emit("shift", slot, k=-W))
    q = Program(tuple(instrs), tuple(outs))
    q.validate()
    return q


def _equal_at(prog, w):
    """Whether the outputs of ``prog`` at the point, ``w`` bits a field,
    compare equal to the packed product, with no widening."""
    outs = verify._slots(prog, dict(zip(INPUTS, verify._point_inputs(w))),
                         verify._product)
    return all(n << -e == t if e < 0 else n == t << e
               for (n, e, _), t in zip(outs, verify._target(w)))


def _compared_reach(prog, outs):
    """The largest compared field of ``prog`` at the point, from its true
    coefficients: each output's ``|c|``, and its target's 1, times
    ``2^e`` where its slot in ``outs`` has ``e > 0``."""
    got = compose_symbolic(SimpleNamespace(_program=prog))
    return max(max([Fraction(abs(c), f.denominator) for j in range(8)
                    for f in [got.entry(i, j)] for c in f.numerators] + [1])
               * 2 ** max(e, 0) for i, (_, e, _) in enumerate(outs))


@pytest.mark.parametrize("make", [
    lambda W: _plus(build_pipeline()._program, 0, _spike(W)),
    lambda W: _plus(build_pipeline()._program, 0, _spike(W, 3)),
    _moved,
], ids=["spike", "spike-over-8", "moved"])
def test_the_point_is_widened_before_a_field_can_carry(make):
    # each program is not the product, yet with fields of W bits its ints
    # equal the product's: x0 b0's field carries 2^W into x0 b1's, or the
    # target's 2^W reaches the next field.  The point must widen first,
    # for every W around the width it starts at, to a w whose compared
    # fields, read off the symbolic product, stay below 2^(w-1): the
    # bound the proof rests on.  A rule one bit looser leaves fields of
    # 2^(w-1) (still no collision here, since A bounds the sum of a slot's
    # |field|s and each product row has 8 entries of +-1); two bits looser,
    # or one without the target's 2^e, lets "spike-over-8" or "moved"
    # through
    for W in range(8, 29):
        q = make(W)
        assert _equal_at(q, W), W
        assert verify._refused(q), W
        outs, w = verify._point(q)
        assert _compared_reach(q, outs) < 1 << w - 1, W
