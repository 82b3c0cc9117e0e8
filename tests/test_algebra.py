import copy
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from conftest import FloatSubclass

from octofast.algebra import (Octo, basis_mul, mul_naive, quadratic_form,
                              schoolbook_matrix)
from octofast.linform import LinForm


def rnd_octo(rng, r=50):
    return Octo(tuple(rng.randint(-r, r) for _ in range(8)))


def signed_unit(sign, index):
    u = Octo.unit(index)
    return u if sign > 0 else -u


def test_unit_table_matches_coordinate_formulas():
    # the table and the formulas are independent literals; all 64 must agree
    for i in range(8):
        for j in range(8):
            sign, index = basis_mul(i, j)
            assert mul_naive(Octo.unit(i), Octo.unit(j)) == signed_unit(sign, index)


def test_unit_squares():
    for i in (1, 2, 3):
        assert basis_mul(i, i) == (-1, 0)
    for i in (4, 5, 6, 7):
        assert basis_mul(i, i) == (1, 0)


def test_specific_products():
    assert basis_mul(1, 4) == (1, 5)      # e1 * E4 = E5
    assert basis_mul(4, 1) == (-1, 5)     # anticommutes
    assert basis_mul(1, 2) == (1, 3)
    assert basis_mul(2, 1) == (-1, 3)
    assert basis_mul(6, 7) == (1, 1)


def test_identity_element():
    rng = random.Random(3)
    one = Octo.unit(0)
    for _ in range(20):
        x = rnd_octo(rng)
        assert mul_naive(one, x) == x
        assert mul_naive(x, one) == x


def test_nonassociative_witness():
    e1, e2, E4 = Octo.unit(1), Octo.unit(2), Octo.unit(4)
    left = mul_naive(mul_naive(e1, e2), E4)
    right = mul_naive(e1, mul_naive(e2, E4))
    assert left == -right != Octo.zero()


def test_bilinearity():
    rng = random.Random(9)
    for _ in range(25):
        x, y, b = rnd_octo(rng), rnd_octo(rng), rnd_octo(rng)
        assert mul_naive(x + y, b) == mul_naive(x, b) + mul_naive(y, b)
        assert mul_naive(x, y + b) == mul_naive(x, y) + mul_naive(x, b)
        assert mul_naive(x.scale(3), b) == mul_naive(x, b).scale(3)


def test_all_ones_square():
    ones = Octo((1,) * 8)
    assert mul_naive(ones, ones) == Octo((2,) * 8)


def test_frozen_regression_product():
    x = Octo((1, 2, 3, 4, 5, 6, 7, 8))
    b = Octo((8, 7, 6, 5, 4, 3, 2, 1))
    assert mul_naive(x, b) == Octo((16, -4, 48, -8, -64, 42, 4, 74))


def test_schoolbook_matrix_agrees_with_formulas():
    rng = random.Random(17)
    m = schoolbook_matrix()
    for _ in range(25):
        x, b = rnd_octo(rng), rnd_octo(rng)
        grid = m.evaluate(b.c)
        y = [sum(grid[r][c] * x.c[c] for c in range(8)) for r in range(8)]
        assert Octo(y) == mul_naive(x, b)


def test_schoolbook_matrix_entries():
    m = schoolbook_matrix()
    assert m.entry(0, 0) == LinForm.var(0)
    assert m.entry(0, 1) == LinForm.var(1, -1)
    assert m.entry(4, 0) == LinForm.var(4)
    assert m.entry(7, 7) == LinForm.var(0)


def test_quadratic_form_values():
    assert quadratic_form(Octo.unit(0)) == 1
    assert quadratic_form(Octo.unit(4)) == -1
    assert quadratic_form(Octo((1,) * 8)) == 0


def test_quadratic_form_not_multiplicative():
    # frozen counterexample: both factors are null vectors, the product is not
    x = Octo.from_text("1,1,-2,0,2,1,1,0")
    b = Octo.from_text("1,0,2,-1,2,-1,0,-1")
    assert quadratic_form(x) == 0 and quadratic_form(b) == 0
    assert quadratic_form(mul_naive(x, b)) == -16


def test_text_roundtrip_exact():
    x = Octo((Fraction(1, 2), Fraction(-3), 0, 1, 2, 3, 4, Fraction(7, 8)))
    assert Octo.from_text(x.to_text()) == x
    assert Octo.from_text("1/2,0,0,0,0,0,0,0").c[0] == Fraction(1, 2)


def test_text_roundtrip_float():
    x = Octo(tuple(float(k) / 7 for k in range(8)))
    assert Octo.from_text(x.to_text(), mode="float") == x


def test_text_parse_errors():
    with pytest.raises(ValueError):
        Octo.from_text("1,2,3")
    with pytest.raises(ValueError):
        Octo.from_text("1,2,3,4,5,6,7,x")
    with pytest.raises(ValueError):
        Octo.from_text("1,2,3,4,5,6,7,8", mode="decimal")


def test_nonfinite_floats_rejected():
    with pytest.raises(ValueError):
        Octo((math.nan,) + (0.0,) * 7)
    with pytest.raises(ValueError):
        Octo.from_text("inf,0,0,0,0,0,0,0", mode="float")


def test_octo_refuses_what_it_refused_before_it_had_a_kind():
    # an all-float value skips the loop over its coefficients when their
    # sum is finite; a non-finite term makes the sum inf or nan, a float
    # subclass is not of kind float, and a mixed value has no kind, so
    # each of these still meets the loop
    F = FloatSubclass
    for bad in (math.inf, -math.inf, math.nan, F(math.inf), F(math.nan)):
        for rest in (0.5, 1, F(0.5)):
            for lane in (0, 7):
                c = [rest] * 8
                c[lane] = bad
                with pytest.raises(ValueError, match="non-finite coefficient"):
                    Octo(c)
    with pytest.raises(ValueError, match="non-finite coefficient: inf"):
        Octo((math.inf, -math.inf) + (0.0,) * 6)
    # every term finite, their sum not: the loop runs and accepts
    for zero in (0.0, 0):
        big = Octo((1e308, 1e308) + (zero,) * 6)
        assert big.c[:2] == (1e308, 1e308)
        assert big.kind is (float if type(zero) is float else None)


def test_an_octos_kind_is_read_only():
    x = Octo((1,) * 8)
    assert x.kind is int
    with pytest.raises(AttributeError, match="immutable"):
        x.kind = float
    assert x.kind is int


@pytest.mark.parametrize("c, kind", [
    ((0.5, -1.25, 0.0, -0.0, 3.0, 1e300, -7.5, 2.0), float),
    ((1, -2, 3, 0, 5, -6, 7, 10**40), int),
    (tuple(Fraction(k, 3) for k in range(-4, 4)), Fraction),
    ((True, False) * 4, bool),
    ((1, 0.5, Fraction(1, 3), 4, 5, 6, 7, 8), None),
], ids=["float", "int", "Fraction", "bool", "mixed"])
def test_an_octo_copies_and_pickles_with_its_kind(c, kind):
    x = Octo(c)
    assert x.kind is kind
    for copied in (copy.copy(x), copy.deepcopy(x),
                   pickle.loads(pickle.dumps(x))):
        assert type(copied) is Octo
        assert copied == x and copied.kind is kind
        assert hash(copied) == hash(x)
        assert list(map(type, copied.c)) == list(map(type, c))


@pytest.mark.parametrize("x, y, diff, kind", [
    ((5, -2, 0, 7, 1, 1, 9, 10**40), (3,) * 8,
     (2, -5, -3, 4, -2, -2, 6, 10**40 - 3), int),
    ((0.5, -1.25, 0.0, 3.0, 1.0, 2.0, -7.5, 1e300), (0.25,) * 8,
     (0.25, -1.5, -0.25, 2.75, 0.75, 1.75, -7.75, 1e300), float),
    (tuple(Fraction(k, 3) for k in range(8)), (Fraction(1, 3),) * 8,
     tuple(Fraction(k - 1, 3) for k in range(8)), Fraction),
], ids=["int", "float", "Fraction"])
def test_difference_keeps_the_operands_kind(x, y, diff, kind):
    d = Octo(x) - Octo(y)
    assert d.c == diff and d.kind is kind
    assert list(map(type, d.c)) == [kind] * 8


def test_octo_shape_checked():
    with pytest.raises(ValueError):
        Octo((1, 2, 3))


@pytest.mark.parametrize("i", [-1, 8])
def test_unit_refuses_an_index_outside_0_to_7(i):
    with pytest.raises(ValueError, match=f"unit index out of range: {i}"):
        Octo.unit(i)
    for pair in ((i, 0), (0, i)):
        message = re.escape(f"unit index out of range: {pair}")
        with pytest.raises(ValueError, match=message):
            basis_mul(*pair)
