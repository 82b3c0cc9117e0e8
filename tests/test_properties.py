"""Property tests: the fast kernel against the schoolbook product and
against the interpreter walk it is compiled from."""

import re
from decimal import Decimal

import pytest
from conftest import FloatSubclass, IntSubclass
from hypothesis import given, settings
from hypothesis import strategies as st

from octofast.algebra import Octo, mul_naive
from octofast.kernel import default_pipeline, mul_fast

# the same examples on every run, and no example database on disk
FIXED = settings(derandomize=True, database=None, deadline=None)


def octos(scalars):
    return st.lists(scalars, min_size=8, max_size=8).map(Octo)


INTS = octos(st.integers(min_value=-2 ** 200, max_value=2 ** 200))
# signed ints of 1 to 300 bits, with 0, +-1 and +-2^k drawn on purpose
EDGE_INTS = octos(st.one_of(
    st.sampled_from((0, 1, -1)),
    st.builds(lambda k, sign: sign << k, st.integers(0, 300),
              st.sampled_from((1, -1))),
    st.integers(1, 300).flatmap(
        lambda w: st.integers(1 - (1 << w), (1 << w) - 1))))
FRACTIONS = octos(st.fractions(max_denominator=10 ** 6))
FLOATS = octos(st.floats(min_value=-1e6, max_value=1e6))


@FIXED
@given(INTS, INTS)
def test_fast_equals_naive_on_ints(x, b):
    assert mul_fast(x, b) == mul_naive(x, b)


@FIXED
@given(EDGE_INTS, EDGE_INTS)
def test_int_operands_give_int_coefficients(x, b):
    got = mul_fast(x, b).c
    assert [type(v) for v in got] == [int] * 8
    assert got == mul_naive(x, b).c


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


# scalars of six exact types, two of them subclasses and one bool, which
# is an int subclass too
KINDS = (st.integers(-10 ** 6, 10 ** 6), st.booleans(),
         st.builds(IntSubclass, st.integers(-99, 99)), st.floats(-1e6, 1e6),
         st.builds(FloatSubclass, st.floats(-1e6, 1e6)),
         st.fractions(max_denominator=100))


@FIXED
@given(st.one_of(
    st.sampled_from(KINDS).flatmap(
        lambda kind: st.lists(kind, min_size=8, max_size=8)),
    st.lists(st.one_of(KINDS), min_size=8, max_size=8)))
def test_an_octos_kind_is_the_one_exact_type_of_its_coefficients(c):
    types = {type(v) for v in c}
    kind = Octo(c).kind
    assert kind is (types.pop() if len(types) == 1 else None)
    assert (kind is int) == all(type(v) is int for v in c)
    assert (kind is float) == all(type(v) is float for v in c)


class Mat:
    """A square matrix of exact entries: a scalar that does not commute.

    It is scaled by an ``int`` or a ``Fraction`` from either side, as the
    kernel's ``+-2^k`` constants need, and has the ``zero()`` that
    ``stages.zero_like`` reads.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    def zero(self):
        return Mat([[0] * len(self.rows)] * len(self.rows))

    def __add__(self, other):
        return Mat([[a + b for a, b in zip(r, s)]
                    for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Mat([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Mat):
            cols = tuple(zip(*other.rows))
            return Mat([[sum(a * b for a, b in zip(r, c)) for c in cols]
                        for r in self.rows])
        return Mat([[a * other for a in r] for r in self.rows])

    def __rmul__(self, scalar):
        return self * scalar

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __repr__(self):
        return f"Mat({self.rows})"


def mat_octos(n):
    entries = st.integers(min_value=-50, max_value=50)
    return octos(st.lists(st.lists(entries, min_size=n, max_size=n),
                          min_size=n, max_size=n).map(Mat))


@FIXED
@given(st.sampled_from((2, 3)).flatmap(
    lambda n: st.tuples(mat_octos(n), mat_octos(n))))
def test_fast_equals_naive_on_matrix_coefficients(pair):
    # x-side times b-side in every product: only the +-2^k constants
    # commute with the coefficients
    x, b = pair
    assert mul_fast(x, b) == mul_naive(x, b)


def test_decimal_coefficients_raise_the_walks_type_error():
    # a ring must also take a product with Fraction(+-1, 2**k): Decimal
    # refuses the 1/8 scaling's, in the kernel as in the walk it runs,
    # while mul_naive, which multiplies by no constant, works
    p = default_pipeline()
    x = Octo(tuple(Decimal(i) / 4 for i in range(1, 9)))
    b = Octo(tuple(Decimal(-i) for i in range(1, 9)))
    with pytest.raises(TypeError, match="Decimal.*Fraction") as walk:
        p.apply(x.c, p.precompute(b.c))
    with pytest.raises(TypeError, match=re.escape(str(walk.value))):
        mul_fast(x, b)
    assert mul_naive(x, b).c[0] == Decimal("-36.5")
