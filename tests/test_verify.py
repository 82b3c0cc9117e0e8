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


def test_zeroed_correction_breaks_certification():
    p = build_pipeline()
    forms = dict(p.entry_forms)
    forms["sumcorr_13"] = LinForm.zero()
    report = certify(clone_pipeline(p, forms=forms))
    assert not report.ok


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
    # every scaled sum reads b0 through the flipped lane
    assert {(r.row, r.col) for r in report.residuals} >= {
        (0, 0), (1, 1), (2, 2), (3, 3), (8, 8), (9, 9), (10, 10), (11, 11)}


def test_negated_recipe_factor_breaks_certification():
    p = build_pipeline()
    recipes = dict(p.recipes)
    src, lane, factor = recipes["diffcorr_23"]
    recipes["diffcorr_23"] = (src, lane, -factor)
    report = _rejected_and_wrong(clone_pipeline(p, recipes=recipes))
    assert len(report.residuals) == 1
    r = report.residuals[0]
    assert (r.row, r.col) == (14, 15)
    assert r.expected == CORRECTION_FORMS["diffcorr_23"] == -r.got


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


def test_two_quasidiagonal_stages_is_structural_violation():
    qd = QuasiDiagonal(dim=8, cells=((0, 0, "a"),))
    p = Pipeline(stages=[qd, qd], entry_forms={"a": LinForm.var(0)})
    with pytest.raises(DegreeError):
        compose_symbolic(p)


def test_solver_recovers_all_frozen_corrections():
    p = build_pipeline()
    sol = solve_corrections(p)
    assert sol.free == ()
    assert sol.assignment == CORRECTION_FORMS


def test_solver_recovers_a_chosen_block():
    p = build_pipeline()
    names = [n for n in CORRECTION_FORMS if n.startswith("sumcorr")]
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
