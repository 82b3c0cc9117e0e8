from dataclasses import replace

import pytest
from conftest import clone_pipeline, sign_mutation_sites

from octofast.algebra import Octo, mul_naive, schoolbook_matrix
from octofast.kernel import CORRECTION_FORMS, Pipeline, build_pipeline, mul_fast
from octofast.linform import DegreeError, LinForm, SymMatrix
from octofast.stages import Butterfly, Permute, QuasiDiagonal, SignScale
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
    p = Pipeline(stages=[Permute(tuple(range(8)))])
    assert compose_symbolic(p) == SymMatrix.identity(8)
    assert certify(p, target=SymMatrix.identity(8)).ok
    # against the wrong target every diagonal-bearing entry differs
    report = certify(p)
    assert not report.ok
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


class _SquaringPermute(Permute):
    """Declares a Permute, but its apply squares each lane it moves."""

    def apply(self, vec, pre=None):
        return [vec[i] * vec[i] for i in self.perm]


def test_nonlinear_stage_breaks_certification():
    # unit vectors square to themselves, so the matrix read off apply is
    # the Permute's; the lowering sees the x-by-x multiplications
    p = build_pipeline()
    si = next(i for i, st in enumerate(p.stages) if st.label == "swap04")
    squaring = _SquaringPermute(p.stages[si].perm, "swap04")
    bad = clone_pipeline(p, stages=p.stages[:si] + (squaring,) + p.stages[si + 1:])
    x, b = Octo((1, 2, 3, 4, 5, 6, 7, 8)), Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert Octo(bad.apply(x.c, bad.precompute(b))) != mul_naive(x, b)
    with pytest.raises(DegreeError, match="mul x4 x4"):
        certify(bad)
    assert not bad.certified
    with pytest.raises(DegreeError):
        mul_fast(x, b, bad)


def test_constant_that_is_not_a_power_of_two_is_refused():
    # the walk multiplies b0 by 3; composition alone would prove 3*b0*I
    core = QuasiDiagonal(dim=8, cells=tuple((i, i, "a") for i in range(8)))
    p = Pipeline(stages=[core], pre_stages=[Permute(tuple(range(8)))],
                 recipes={"a": ("input", 0, 3)},
                 entry_forms={"a": LinForm.var(0, 3)})
    target = SymMatrix([[LinForm.var(0, 3) if i == j else 0
                         for j in range(8)] for i in range(8)])
    with pytest.raises(ValueError, match="power of two"):
        certify(p, target=target)
    assert not p.certified
    with pytest.raises(ValueError, match="power of two"):
        mul_fast(Octo((1,) * 8), Octo((5,) + (0,) * 7), p)


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
        solve_corrections(Pipeline(stages=[Permute(tuple(range(8)))]))


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


def test_solver_rejects_two_cores():
    # two cores would multiply core values: the system is no longer linear
    qd = QuasiDiagonal(dim=8, cells=((0, 0, "a"),))
    p = Pipeline(stages=[qd, qd], recipes={"a": ("input", 0, 1)},
                 entry_forms={"a": LinForm.var(0)})
    with pytest.raises(ValueError, match="exactly one"):
        solve_corrections(p)
