import random
from fractions import Fraction

import pytest

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
