"""Property tests of ``Quad`` arithmetic within one quadratic field."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabkit.exact import Quad  # noqa: E402

rational = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
radicand = st.sampled_from([2, 3, 5, 6, 7, 10, 12, 18])


@st.composite
def same_field(draw, n):
    d = draw(radicand)
    return [Quad(draw(rational), draw(rational), d) for _ in range(n)]


@settings(max_examples=300)
@given(same_field(3))
def test_distributive(xs):
    x, y, z = xs
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@settings(max_examples=300)
@given(same_field(2))
def test_division_inverts_multiplication(xs):
    x, y = xs
    assume(y != 0)
    assert (x / y) * y == x
    assert repr((x / y) * y) == repr(x)


@settings(max_examples=300)
@given(same_field(2))
def test_order_agrees_with_float_when_well_separated(xs):
    x, y = xs
    gap = float(x) - float(y)
    assume(abs(gap) > 1e-9 * (1 + abs(float(x)) + abs(float(y))))
    assert (x - y).sign() == math.copysign(1, gap)
    assert (x < y) == (gap < 0)
    assert (x > y) == (gap > 0)
