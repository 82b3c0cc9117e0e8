"""Acceptance suite: one test per shipped claim, one printed line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  The heavyweight exact corpus (seeded, 100000 random integer pairs
plus all 64 basis pairs) is built once and shared by criteria 1 and 7;
criterion 7 runs the emitted text, read back and compiled once.
"""

import random
from fractions import Fraction

import pytest
from conftest import read_program, sign_mutation_sites

from octofast.algebra import Octo, mul_naive
from octofast.kernel import (LANES, build_pipeline, default_pipeline,
                             mul_fast)
from octofast.opcount import count_algorithm
from octofast.program import OpCount, compile_program, emit_text, flatten
from octofast.verify import certify

CORPUS_SEED = 1
CORPUS_SIZE = 100_000
FLOAT_SEED = 2
FLOAT_TRIALS = 10_000
MUTATION_SEED = 3
MUTATION_SAMPLES = 24


def _check(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _lanes(rng):
    """Eight draws of ``rng.randint(-1000, 1000)``, drawn as ``randint``
    draws them, about five times faster: ``getrandbits(11)`` until it is
    below 2001, less 1000 (the stream is pinned by
    ``test_corpus_lanes_are_the_randint_stream``)."""
    bits, lanes = rng.getrandbits, []
    for _ in range(8):
        v = bits(11)
        while v >= 2001:
            v = bits(11)
        lanes.append(v - 1000)
    return tuple(lanes)


def test_corpus_lanes_are_the_randint_stream():
    fast, slow = random.Random(CORPUS_SEED), random.Random(CORPUS_SEED)
    for _ in range(5000):
        assert _lanes(fast) == tuple(slow.randint(-1000, 1000)
                                     for _ in range(8))
    assert fast.getstate() == slow.getstate()


@pytest.fixture(scope="module")
def corpus_scan():
    p = default_pipeline()
    shipped = compile_program(read_program(emit_text(flatten(p))))
    rng = random.Random(CORPUS_SEED)
    fast_bad = prog_bad = 0
    for _ in range(CORPUS_SIZE):
        x, b = Octo(_lanes(rng)), Octo(_lanes(rng))
        ref = mul_naive(x, b)
        fast = mul_fast(x, b, p)
        if fast != ref:
            fast_bad += 1
        got = shipped(x, b)
        if got != ref or got != fast:
            prog_bad += 1
    basis_bad = basis_prog_bad = 0
    for i in range(8):
        for j in range(8):
            xi, bj = Octo.unit(i), Octo.unit(j)
            ref = mul_naive(xi, bj)
            fast = mul_fast(xi, bj, p)
            if fast != ref:
                basis_bad += 1
            got = Octo(shipped(xi.c, bj.c))
            if got != ref or got != fast:
                basis_prog_bad += 1
    return {"fast_bad": fast_bad, "prog_bad": prog_bad,
            "basis_bad": basis_bad, "basis_prog_bad": basis_prog_bad}


def test_criterion_1_exact_agreement(corpus_scan):
    ok = corpus_scan["fast_bad"] == 0 and corpus_scan["basis_bad"] == 0
    _check(1, ok,
           f"fast == naive on all 64 basis pairs and {CORPUS_SIZE} random "
           f"integer pairs in [-1000,1000], exact arithmetic, zero tolerance")


def test_criterion_2_symbolic_certification():
    report = certify(build_pipeline())
    _check(2, report.ok,
           "stage composition equals the schoolbook matrix entrywise "
           "(64 exact linear forms)")


def test_criterion_3_naive_counts():
    oc = count_algorithm("naive")
    _check(3, (oc.mults, oc.adds) == (64, 56),
           f"schoolbook kernel instrumented at {oc}")


def test_criterion_4_fast_count_gate():
    oc = count_algorithm("fast")
    _check(4, oc.mults <= 26 and oc.adds <= 100,
           f"fast kernel instrumented at {oc}; gate mults<=26 adds<=100, "
           f"additive target 92")


def test_criterion_5_multiplication_savings():
    saved = count_algorithm("naive").mults - count_algorithm("fast").mults
    _check(5, saved == 38, f"fast kernel saves exactly {saved} multiplications")


def test_criterion_6_float_agreement():
    p = default_pipeline()
    rng = random.Random(FLOAT_SEED)
    bad = 0
    for _ in range(FLOAT_TRIALS):
        x = Octo(tuple(rng.uniform(-1.0, 1.0) for _ in range(8)))
        b = Octo(tuple(rng.uniform(-1.0, 1.0) for _ in range(8)))
        ref = mul_naive(x, b)
        got = mul_fast(x, b, p)
        if any(abs(g - r) > 1e-12 * (1 + abs(r)) for g, r in zip(got.c, ref.c)):
            bad += 1
    _check(6, bad == 0,
           f"float-mode |fast - naive| <= 1e-12*(1+|naive|) per coefficient "
           f"on {FLOAT_TRIALS} pairs in [-1,1]")


def test_criterion_7_program_fidelity(corpus_scan):
    prog = read_program(emit_text(flatten(default_pipeline())))
    counts_ok = prog.opcount() == count_algorithm("fast") == OpCount(26, 92)
    corpus_ok = corpus_scan["prog_bad"] == 0 and corpus_scan["basis_prog_bad"] == 0
    _check(7, counts_ok and corpus_ok,
           f"emitted program, read back from its text, tallies "
           f"{prog.opcount()} as the instrumented counts do, and compiled it "
           f"equals the naive and fast kernels on the criterion-1 corpus")


def test_criterion_8_scaled_sum_spot_values():
    h = Fraction(1, 2)
    p = default_pipeline()

    def lanes(b):
        pre = p.precompute(b)
        return tuple(pre[name] for name in LANES)

    ok = (lanes(Octo((1,) * 8)) == (h, -h, -h, -h, 0, 0, 0, 0)
          and lanes(Octo.unit(0)) == (Fraction(-1, 8),) * 8)
    _check(8, ok, "scaled sums at all-ones and at the scalar unit match the "
                  "derived spot values")


def test_criterion_9_mutation_sensitivity():
    p = build_pipeline()
    sites = sign_mutation_sites(p)
    rng = random.Random(MUTATION_SEED)
    sample = rng.sample(sites, MUTATION_SAMPLES)
    surviving = [desc for desc, bad in sample if certify(bad).ok]
    _check(9, not surviving,
           f"{MUTATION_SAMPLES} random single-entry sign mutations all break "
           f"symbolic certification (sites available: {len(sites)}; "
           f"survivors: {surviving})")
