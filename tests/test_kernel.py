import random
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import clone_pipeline

from octofast.algebra import Octo, basis_mul, mul_naive
from octofast.kernel import (CORRECTION_FORMS, ENTRY_FORMS, Pipeline,
                             build_pipeline, default_pipeline, mul_fast)
from octofast.linform import LinForm
from octofast.stages import Permute

HALF = Fraction(1, 2)
EIGHTH = Fraction(1, 8)


def rnd_octo(rng, r=100):
    return Octo(tuple(rng.randint(-r, r) for _ in range(8)))


def test_scaled_sums_spot_values():
    p = default_pipeline()
    assert p.precompute(Octo((1,) * 8)).s == (HALF, -HALF, -HALF, -HALF, 0, 0, 0, 0)
    assert p.precompute(Octo.unit(0)).s == (-EIGHTH,) * 8
    assert p.precompute(Octo.zero()).s == (0,) * 8


def test_scaled_sums_match_their_forms():
    rng = random.Random(31)
    p = default_pipeline()
    for _ in range(20):
        b = rnd_octo(rng)
        s = p.precompute(b).s
        for k in range(8):
            assert s[k] == ENTRY_FORMS[f"s{k}"].evaluate(b.c)


def test_scaled_sums_are_linear():
    rng = random.Random(37)
    p = default_pipeline()
    for _ in range(10):
        a, b = rnd_octo(rng), rnd_octo(rng)
        sa, sb = p.precompute(a).s, p.precompute(b).s
        s_sum = p.precompute(a + b).s
        s_scaled = p.precompute(a.scale(5)).s
        assert s_sum == tuple(x + y for x, y in zip(sa, sb))
        assert s_scaled == tuple(5 * x for x in sa)


def test_corrections_at_all_ones():
    m = default_pipeline().precompute(Octo((1,) * 8)).m
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
        m = p.precompute(b).m
        for name, value in m.items():
            assert value == CORRECTION_FORMS[name].evaluate(b.c), name


def test_precompute_set_lookup():
    b = Octo((2, -3, 5, -7, 11, -13, 17, -19))
    p = build_pipeline()
    pre = p.precompute(b)
    assert pre["s0"] == ENTRY_FORMS["s0"].evaluate(b.c)
    assert pre["sumcorr_01"] == 13


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
        Pipeline(stages=[Permute((0, 1, 2))])           # 3 lanes, needs 8
    with pytest.raises(ValueError):
        Pipeline(stages=[Permute(tuple(range(8)))],
                 pre_stages=[Permute((0, 1))])


def test_frozen_correction_forms_shape():
    # 18 slots across the three blocks; each form touches at most two b's
    assert len(CORRECTION_FORMS) == 18
    for name, form in CORRECTION_FORMS.items():
        assert 1 <= form.nonzero_count() <= 2, name
    assert CORRECTION_FORMS["diffcorr_23"] == LinForm.combo([(1, 1), (5, -1)])
