from dataclasses import replace
from pathlib import Path

import pytest
from conftest import clone_pipeline, identity, sign_mutation_sites

from octofast.algebra import Octo, mul_naive, schoolbook_matrix
from octofast.kernel import CORRECTION_FORMS, Pipeline, build_pipeline, mul_fast
from octofast.linform import DegreeError, LinForm, SymMatrix
from octofast.stages import (Butterfly, FanOut, QuasiDiagonal, SignScale,
                             zero_like)
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
    assert report.rows() == {5}


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
    # the FanOut's; the lowering sees the x-by-x multiplications
    p = build_pipeline()
    si = next(i for i, st in enumerate(p.stages) if st.label == "swap04")
    squaring = _SquaringFanOut(p.stages[si].src, 8, "swap04")
    bad = clone_pipeline(p, stages=p.stages[:si] + (squaring,) + p.stages[si + 1:])
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert Octo(bad.apply(x.c, bad.precompute(b))) != mul_naive(x, b)
    with pytest.raises(DegreeError, match="mul x4 x4"):
        certify(bad)
    assert not bad.certified
    with pytest.raises(DegreeError):
        mul_fast(x, b, bad)


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
    bad = clone_pipeline(p, stages=p.stages[:si] + (swapped,) + p.stages[si + 1:])
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert Octo(bad.apply(x.c, bad.precompute(b))) == mul_naive(x, b)
    with pytest.raises(DegreeError,
                       match=r"^t\d+ = mul t\d+ t\d+: not an x-side value"):
        certify(bad)
    assert not bad.certified
    with pytest.raises(DegreeError, match=r"= mul "):
        mul_fast(x, b, bad)
    # the smallest case names the inputs themselves
    first = Pipeline(stages=[_BSideFirstCore(dim=8, cells=((0, 0, "a"),))],
                     pre_stages=[identity()],
                     recipes={"a": ("input", 0, 1)})
    with pytest.raises(DegreeError, match=r"^t1 = mul b0 x0: "):
        mul_fast(x, b, first)


class _TriplingFanOut(FanOut):
    """The identity reindexing that also multiplies lane 0 by 3."""

    def apply(self, vec, pre=None):
        return [vec[0] * 3] + list(vec[1:])


def test_constant_that_is_not_a_power_of_two_is_refused():
    core = QuasiDiagonal(dim=8, cells=tuple((i, i, "a") for i in range(8)))
    with pytest.raises(ValueError, match="power of two"):
        Pipeline(stages=[core], pre_stages=[identity()],
                 recipes={"a": ("input", 0, 3)})
    # the walk multiplies b0 by 3 in a stage; composition alone would prove
    # 3*b0*I, so only the lowering refuses it
    p = Pipeline(stages=[core],
                 pre_stages=[_TriplingFanOut(tuple(range(8)), 8)],
                 recipes={"a": ("tap", 0, 1)},
                 entry_forms={"a": LinForm.var(0, 3)})
    tripled = SymMatrix([[LinForm.var(0, 3) if i == j else 0
                          for j in range(8)] for i in range(8)])
    with pytest.raises(ValueError, match="power of two") as proof:
        certify(p)
    assert not p.certified
    with pytest.raises(ValueError) as run:
        mul_fast(Octo((1,) * 8), Octo((5,) + (0,) * 7), p)
    assert str(run.value) == str(proof.value)
    assert compose_symbolic(p) == tripled


def test_two_quasidiagonal_stages_is_structural_violation():
    qd = QuasiDiagonal(dim=8, cells=((0, 0, "a"),))
    p = Pipeline(stages=[qd, qd], recipes={"a": ("input", 0, 1)},
                 entry_forms={"a": LinForm.var(0)})
    with pytest.raises(DegreeError):
        compose_symbolic(p)


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
    # two cores would multiply core values: the system is no longer linear
    qd = QuasiDiagonal(dim=8, cells=((0, 0, "a"),))
    p = Pipeline(stages=[qd, qd], recipes={"a": ("input", 0, 1)},
                 entry_forms={"a": LinForm.var(0)})
    with pytest.raises(ValueError, match="exactly one"):
        solve_corrections(p)
