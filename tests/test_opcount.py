import random
from fractions import Fraction

import pytest

from octofast.algebra import Octo, mul_naive
from octofast.kernel import S_FORMS, Pipeline, default_pipeline, mul_fast
from octofast.opcount import OpCount, Tally, count_algorithm, is_trivial_factor
from octofast.stages import Permute

NAIVE = OpCount(mults=64, adds=56)
FAST = OpCount(mults=26, adds=92)


def test_opcount_rendering():
    assert str(FAST) == "mults=26 adds=92"
    assert str(OpCount(0, 0)) == "mults=0 adds=0"


def test_trivial_factor_classification():
    for v in (0, 1, -1, 2, -8, 1024, Fraction(1, 8), Fraction(-4),
              0.5, -2.0, 0.0):
        assert is_trivial_factor(v), v
    for v in (3, -6, Fraction(3, 4), Fraction(1, 3), 0.3, 7.5):
        assert not is_trivial_factor(v), v


def test_counted_wrapper_rules():
    t = Tally()
    a, b = t.wrap(6), t.wrap(4)
    # wrapped * wrapped always counts, even though 4 is a power of two
    assert (a * b).value == 24 and t.mults == 1
    c = a * 4
    assert c.value == 24 and t.mults == 1      # plain trivial constant: free
    _ = a * 3
    assert t.mults == 2                        # plain non-trivial: counted
    _ = Fraction(1, 8) * a
    assert t.mults == 2
    _ = -a
    assert t.adds == 0                         # negation free
    _ = a + b
    _ = a - b
    assert t.adds == 2


def test_naive_counts():
    assert count_algorithm("naive") == NAIVE


def test_fast_counts():
    assert count_algorithm("fast") == FAST


def test_counts_are_input_independent():
    rng = random.Random(61)
    for _ in range(3):
        t = Tally()
        x = t.wrap_octo(Octo(tuple(rng.randint(-9, 9) for _ in range(8))))
        b = t.wrap_octo(Octo(tuple(rng.randint(-9, 9) for _ in range(8))))
        mul_naive(x, b)
        assert t.snapshot() == NAIVE
        t.reset()
        mul_fast(x, b, default_pipeline())
        assert t.snapshot() == FAST


def test_identity_pipeline_costs_nothing():
    p = Pipeline(stages=[Permute(tuple(range(8)))])
    assert count_algorithm("fast", p) == OpCount(0, 0)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        count_algorithm("toom-cook")


def test_savings():
    assert NAIVE.mults - count_algorithm("fast").mults == 38


def test_unshared_scaled_sums_would_cost_56_additions():
    # negative control: summing each +-1 row independently needs 7 adds * 8,
    # while the shared butterfly chain gets all eight in 24
    t = Tally()
    b = t.wrap_octo(Octo((3, 5, 7, 9, 11, 13, 17, 19)))
    for form in S_FORMS:
        signs = [1 if q > 0 else -1 for q in form.q]
        acc = b.c[0] if signs[0] > 0 else -b.c[0]
        for i in range(1, 8):
            acc = acc + b.c[i] if signs[i] > 0 else acc - b.c[i]
        _ = acc * Fraction(1, 8)
    assert t.snapshot() == OpCount(mults=0, adds=56)

    t2 = Tally()
    wrapped = t2.wrap_octo(Octo((3, 5, 7, 9, 11, 13, 17, 19)))
    default_pipeline().precompute(wrapped)
    assert t2.snapshot() == OpCount(mults=0, adds=24)
