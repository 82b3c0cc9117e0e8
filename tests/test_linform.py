import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octofast.linform import DegreeError, LinForm, SymMatrix


def rnd_form(rng):
    return LinForm(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                   [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(8)])


def test_addition_is_exact():
    rng = random.Random(11)
    for _ in range(60):
        f, g = rnd_form(rng), rnd_form(rng)
        assert (f + g) - g == f
        assert f - f == LinForm.zero()


def test_scaling():
    f = LinForm.var(3)
    assert f * 2 == LinForm.var(3, 2)
    assert -f == LinForm.var(3, -1)
    assert f.scale(Fraction(1, 2)) == LinForm.var(3, Fraction(1, 2))
    assert Fraction(1, 8) * f == LinForm.var(3, Fraction(1, 8))


def test_unit_factors_reuse_the_form():
    f = LinForm.combo([(0, 1), (5, -2)], const=Fraction(1, 2))
    for one in (1, Fraction(1), LinForm.constant(1)):
        assert f * one is f and one * f is f
    for minus_one in (-1, Fraction(-1), LinForm.constant(-1)):
        assert f * minus_one == -f == minus_one * f


def test_variable_times_variable_rejected():
    with pytest.raises(DegreeError):
        LinForm.var(0) * LinForm.var(1)
    # constant * form is fine either way around
    assert LinForm.constant(3) * LinForm.var(1) == LinForm.var(1, 3)
    assert LinForm.var(1) * LinForm.constant(3) == LinForm.var(1, 3)


def test_evaluate():
    f = LinForm.combo([(0, 1), (5, -2)], const=Fraction(1, 2))
    b = [Fraction(k) for k in range(8)]
    assert f.evaluate(b) == Fraction(1, 2) + 0 - 2 * 5
    assert LinForm.zero().evaluate(b) == 0


def test_combo_accumulates_repeats():
    assert LinForm.combo([(2, 1), (2, 1)]) == LinForm.var(2, 2)


def test_rendering():
    assert str(LinForm.zero()) == "0"
    assert str(LinForm.var(3, -1)) == "-b3"
    assert str(LinForm.combo([(0, 1), (1, -1)])) == "b0 - b1"
    assert str(LinForm.var(0, 2)) == "2*b0"


def test_wrong_arity_rejected():
    with pytest.raises(ValueError):
        LinForm(0, [1, 2, 3])


def test_matrix_identity_and_product():
    rng = random.Random(5)
    m = SymMatrix([[rnd_form(rng) for _ in range(3)] for _ in range(3)])
    assert SymMatrix.identity(3) @ m == m
    assert m @ SymMatrix.identity(3) == m


def test_matrix_product_associates():
    rng = random.Random(7)

    def cmat(r, c):  # constant entries so products stay degree-one
        return SymMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(c)]
                          for _ in range(r)])

    a, b = cmat(2, 3), cmat(3, 4)
    c = SymMatrix([[rnd_form(rng) for _ in range(2)] for _ in range(4)])
    assert (a @ b) @ c == a @ (b @ c)


def test_matrix_evaluate():
    m = SymMatrix([[LinForm.var(0), LinForm.constant(2)],
                   [LinForm.zero(), LinForm.var(1, -1)]])
    b = [Fraction(3), Fraction(5)] + [Fraction(0)] * 6
    assert m.evaluate(b) == [[3, 2], [0, -5]]


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        SymMatrix([[LinForm.zero()], [LinForm.zero(), LinForm.zero()]])
    with pytest.raises(ValueError):
        SymMatrix.identity(2) @ SymMatrix.identity(3)


def test_constant_form_hashes_as_its_constant():
    assert hash(LinForm(3)) == hash(3)
    assert hash(LinForm.zero()) == hash(0)
    assert len({LinForm(3), 3, Fraction(3)}) == 1
    assert LinForm(Fraction(1, 2)) in {Fraction(1, 2)}


# ---- property tests against a plain reference model ----
#
# The reference holds a form as (Fraction, 8 x Fraction) and does the
# arithmetic coefficient by coefficient; LinForm must agree with it on every
# operation, and every form it returns must be in lowest terms.

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=50)

SCALARS = st.one_of(st.integers(-6, 6),
                    st.fractions(min_value=-8, max_value=8, max_denominator=16))
# raw coefficients, ints and Fractions mixed, zero often
COEFFS = st.one_of(st.just(0), SCALARS)
RAW = st.tuples(COEFFS, st.one_of(st.just((0,) * 8),
                                  st.lists(COEFFS, min_size=8, max_size=8)))


def ref_of(raw):
    c, q = raw
    return Fraction(c), tuple(Fraction(v) for v in q)


def form_of(raw):
    c, q = raw
    return LinForm(c, q)


def ref_add(f, g, sign=1):
    return f[0] + sign * g[0], tuple(a + sign * b for a, b in zip(f[1], g[1]))


def ref_scale(f, k):
    return f[0] * k, tuple(a * k for a in f[1])


def check(form, ref):
    """``form`` is canonical and has the reference's coefficients."""
    n, d = form.numerators, form.denominator
    assert len(n) == 9 and all(type(v) is int for v in n + (d,))
    assert d > 0 and math.gcd(d, *n) == 1
    assert (form.const, form.q) == ref
    assert type(form.const) is Fraction
    assert all(type(v) is Fraction for v in form.q)


@FIXED
@given(RAW, RAW, SCALARS)
def test_sums_and_negation_match_the_reference(fr, gr, k):
    f, g = form_of(fr), form_of(gr)
    rf, rg, rk = ref_of(fr), ref_of(gr), (Fraction(k), (Fraction(0),) * 8)
    check(f, rf)
    check(f + g, ref_add(rf, rg))
    check(f - g, ref_add(rf, rg, -1))
    check(-f, ref_scale(rf, -1))
    check(f + k, ref_add(rf, rk))
    check(k + f, ref_add(rf, rk))
    check(f - k, ref_add(rf, rk, -1))
    check(k - f, ref_add(rk, rf, -1))


@FIXED
@given(RAW, SCALARS)
def test_scaling_matches_the_reference(fr, k):
    f, rf = form_of(fr), ref_of(fr)
    want = ref_scale(rf, Fraction(k))
    for got in (f * k, k * f, f * Fraction(k), Fraction(k) * f,
                f * LinForm.constant(k), LinForm.constant(k) * f, f.scale(k)):
        check(got, want)


@FIXED
@given(RAW, st.lists(SCALARS, min_size=8, max_size=8))
def test_evaluate_matches_the_reference(fr, b):
    c, q = ref_of(fr)
    assert form_of(fr).evaluate(b) == c + sum(a * v for a, v in zip(q, b))


@FIXED
@given(RAW, RAW)
def test_equality_and_hash_match_the_reference(fr, gr):
    f, g = form_of(fr), form_of(gr)
    assert (f == g) == (ref_of(fr) == ref_of(gr))
    # the same form reached another way is equal and hashes alike
    again = (f + g) - g
    assert again == f and hash(again) == hash(f)
    c, q = ref_of(fr)
    if any(q):
        assert f != c and f.const == c
    else:
        assert f == c and hash(f) == hash(c) and f in {c}
        if c.denominator == 1:
            assert f == int(c) and hash(f) == hash(int(c))


@FIXED
@given(RAW, RAW)
def test_product_of_two_forms_matches_or_raises(fr, gr):
    f, g = form_of(fr), form_of(gr)
    if f.is_constant or g.is_constant:
        check(f * g, ref_scale(ref_of(gr), ref_of(fr)[0]) if f.is_constant
              else ref_scale(ref_of(fr), ref_of(gr)[0]))
    else:
        with pytest.raises(DegreeError):
            f * g
        with pytest.raises(DegreeError):
            g * f


@FIXED
@given(st.lists(st.tuples(st.integers(0, 7), COEFFS), max_size=12), COEFFS)
def test_combo_and_var_match_the_reference(terms, const):
    q = [Fraction(0)] * 8
    for i, c in terms:
        q[i] += c
    check(LinForm.combo(terms, const=const), (Fraction(const), tuple(q)))
    for i, c in terms:
        check(LinForm.var(i, c), (Fraction(0), tuple(
            Fraction(c) if j == i else Fraction(0) for j in range(8))))


def test_equal_numerators_over_other_denominators_differ():
    half = LinForm.var(0, Fraction(1, 2))
    assert half.numerators == LinForm.var(0).numerators
    assert half != LinForm.var(0) and half * 2 == LinForm.var(0)


def _product_by_entries(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), LinForm.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


@FIXED
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_matrix_product_matches_entrywise_sums(r, k, c, data):
    # one side constant, as in every stage matrix, the other side forms
    consts = [[LinForm.constant(data.draw(COEFFS)) for _ in range(k)]
              for _ in range(r)]
    forms = [[form_of(data.draw(RAW)) for _ in range(c)] for _ in range(k)]
    got = SymMatrix(consts) @ SymMatrix(forms)
    assert got == SymMatrix(_product_by_entries(consts, forms))
    for row in got.entries:
        for e in row:
            assert math.gcd(e.denominator, *e.numerators) == 1
    back = [list(col) for col in zip(*consts)]  # k x r
    got = SymMatrix([list(col) for col in zip(*forms)]) @ SymMatrix(back)
    assert got == SymMatrix(_product_by_entries(
        [list(col) for col in zip(*forms)], back))


def test_matrix_product_of_two_forms_raises():
    a = SymMatrix([[LinForm.var(0), 0]])
    with pytest.raises(DegreeError):
        a @ SymMatrix([[LinForm.var(1)], [1]])
    # a form times a zero entry is no product
    assert (a @ SymMatrix([[0], [LinForm.var(1)]])).entry(0, 0).is_zero
