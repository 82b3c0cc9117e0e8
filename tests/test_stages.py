import random
from fractions import Fraction

import pytest
from conftest import identity

from octofast.kernel import Pipeline, build_pipeline
from octofast.linform import LinForm
from octofast.opcount import is_trivial_factor
from octofast.stages import (Butterfly, FanOut, QuasiDiagonal, SignScale, Sum,
                             apply_stage, pow2, pow2_exponent, zero_like)


def test_butterfly_pair():
    st = Butterfly(half=1, starts=(0,), dim=2)
    assert st.apply([3, 5]) == [8, -2]


def test_butterfly_leaves_outside_lanes():
    st = Butterfly(half=1, starts=(0,), dim=3)
    assert st.apply([3, 5, 9]) == [8, -2, 9]


def test_butterfly_block_bounds():
    with pytest.raises(ValueError):
        Butterfly(half=2, starts=(1,), dim=4)


def test_signscale():
    st = SignScale((1, -1, Fraction(1, 8), -2))
    assert st.apply([5, 5, 16, 3]) == [5, -5, 2, -6]
    with pytest.raises(ValueError):
        SignScale((3,))
    with pytest.raises(ValueError):
        SignScale((0,))


def test_pow2_rule():
    for f, k in ((1, 0), (-8, 3), (Fraction(1, 8), -3), (-0.5, -1)):
        assert pow2_exponent(f) == k, f
        assert pow2(k, -1 if f < 0 else 1) == f
    for f in (0, 3, Fraction(3, 4), 0.3, -6):
        with pytest.raises(ValueError, match="power of two"):
            pow2_exponent(f)
    assert type(pow2(3, -1)) is int and type(pow2(-3)) is Fraction
    factors = SignScale((2.0, Fraction(-4), 0.5, -1.0)).factors
    assert factors == (2, -4, Fraction(1, 2), -1)
    assert [type(f) for f in factors] == [int, int, Fraction, int]


@pytest.mark.parametrize("f", [float("inf"), float("-inf"), float("nan")])
def test_a_non_finite_constant_is_refused_with_valueerror(f):
    # no +-2^k: refused like any other constant, never an OverflowError
    with pytest.raises(ValueError):
        pow2_exponent(f)
    with pytest.raises(ValueError):
        SignScale((f,) + (1,) * 7)
    with pytest.raises(ValueError):
        Pipeline(stages=[QuasiDiagonal(dim=8, cells=((0, 0, "a"),))],
                 pre_stages=[identity()], recipes={"a": ("input", 0, f)})
    assert not is_trivial_factor(f)


def test_fanout():
    st = FanOut(src=(0, 0, 1), in_dim=2)
    assert st.apply([7, 9]) == [7, 7, 9]
    assert FanOut(src=(2, 0, 1), in_dim=3).apply([10, 11, 12]) == [12, 10, 11]
    with pytest.raises(ValueError):
        FanOut(src=(2,), in_dim=2)


def test_sum():
    st = Sum(rows=(((0, 1), (1, -1)), ((1, 1),)), in_dim=2)
    assert st.apply([10, 4]) == [6, 4]
    with pytest.raises(ValueError):
        Sum(rows=((),), in_dim=2)
    with pytest.raises(ValueError):
        Sum(rows=(((0, 2),),), in_dim=2)


def test_quasidiagonal():
    st = QuasiDiagonal(dim=3, cells=((0, 1, "a"), (0, 2, "b"), (2, 2, "a")))
    out = st.apply([100, 3, 5], {"a": 2, "b": -1})
    assert out == [2 * 3 + (-1) * 5, 0, 2 * 5]  # row 1 is structurally zero
    with pytest.raises(ValueError):
        QuasiDiagonal(dim=2, cells=((0, 0, "a"), (0, 0, "b")))
    with pytest.raises(ValueError):
        QuasiDiagonal(dim=2, cells=((0, 5, "a"),))


def test_zero_like():
    assert zero_like(1.5) == 0.0 and isinstance(zero_like(1.5), float)
    assert zero_like(Fraction(3, 4)) == Fraction(0)
    assert zero_like(7) == 0


def test_apply_stage_checks_dimension():
    with pytest.raises(ValueError):
        apply_stage(FanOut(src=(0, 1), in_dim=2), [1, 2, 3])


def test_matrices_agree_with_apply():
    # every stage kind and every shipped stage: the matrix read off the unit
    # vectors must reproduce apply() on any vector, i.e. apply is linear
    rng = random.Random(23)
    p = build_pipeline()
    forms = {"a": LinForm.var(1, 2), "b": LinForm.combo([(0, 1), (2, -1)]),
             **p.entry_forms}
    pre_b = [Fraction(rng.randint(-9, 9)) for _ in range(8)]
    pre = {k: f.evaluate(pre_b) for k, f in forms.items()}
    stages = [
        FanOut(src=(3, 1, 0, 2), in_dim=4),
        SignScale((1, -1, Fraction(1, 2), 4)),
        Butterfly(half=2, starts=(0,), dim=4),
        FanOut(src=(0, 1, 2, 3, 2), in_dim=4),
        Sum(rows=(((0, 1), (4, -1)), ((1, 1), (2, 1), (3, 1)),
                  ((2, -1),), ((3, 1),)), in_dim=5),
        QuasiDiagonal(dim=4, cells=((0, 0, "a"), (1, 2, "b"), (3, 3, "a"))),
        *p.pre_stages, *p.stages,
    ]
    for st in stages:
        vec = [Fraction(rng.randint(-9, 9)) for _ in range(st.in_dim)]
        direct = apply_stage(st, vec, pre)
        grid = st.matrix(forms).evaluate(pre_b)
        via_matrix = [sum(grid[r][c] * vec[c] for c in range(st.in_dim))
                      for r in range(st.out_dim)]
        assert direct == via_matrix, st


def test_quasidiagonal_matrix_needs_forms():
    st = QuasiDiagonal(dim=2, cells=((0, 0, "a"),))
    with pytest.raises(ValueError):
        st.matrix(None)
