"""Property tests: the fast kernel against the schoolbook product and
against the interpreter walk it is compiled from."""

from hypothesis import given, settings
from hypothesis import strategies as st

from octofast.algebra import Octo, mul_naive
from octofast.kernel import default_pipeline, mul_fast

# the same examples on every run, and no example database on disk
FIXED = settings(derandomize=True, database=None, deadline=None)


def octos(scalars):
    return st.lists(scalars, min_size=8, max_size=8).map(Octo)


INTS = octos(st.integers(min_value=-2 ** 200, max_value=2 ** 200))
FRACTIONS = octos(st.fractions(max_denominator=10 ** 6))
FLOATS = octos(st.floats(min_value=-1e6, max_value=1e6))


@FIXED
@given(INTS, INTS)
def test_fast_equals_naive_on_ints(x, b):
    assert mul_fast(x, b) == mul_naive(x, b)


@FIXED
@given(FRACTIONS, FRACTIONS)
def test_fast_equals_naive_on_fractions(x, b):
    assert mul_fast(x, b) == mul_naive(x, b)


@FIXED
@given(FLOATS, FLOATS)
def test_compiled_float_kernel_is_the_walk_bit_for_bit(x, b):
    p = default_pipeline()
    got = mul_fast(x, b, p).c
    want = p.apply(x.c, p.precompute(b))
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in want]
