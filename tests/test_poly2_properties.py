"""Property tests of the wall scan's integer quadratics (``k3._Poly2``)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabkit.k3 import _Poly2  # noqa: E402

F = Fraction

coefficient = st.integers(-200, 200)
parameter = st.fractions(min_value=-12, max_value=12, max_denominator=16)
# small enough that the discriminants of chosen-root quadratics stay cheap to
# split; built from two integers, which Hypothesis draws much faster
small_parameter = st.tuples(st.integers(-24, 24), st.integers(1, 6)).map(lambda x: F(*x))


@settings(max_examples=200)
@given(coefficient, coefficient, coefficient, st.integers(1, 60))
def test_positive_scaling_keeps_every_root(c0, c1, c2, k):
    roots = [repr(t) for t in _Poly2(c0, c1, c2).roots()]
    assert [repr(t) for t in _Poly2(k * c0, k * c1, k * c2).roots()] == roots


@settings(max_examples=200)
@given(coefficient, coefficient, coefficient)
def test_roots_are_roots_in_increasing_order(c0, c1, c2):
    p = _Poly2(c0, c1, c2)
    roots = p.roots()
    assert all(p(t) == 0 for t in roots)
    assert all(a < b for a, b in zip(roots, roots[1:]))


@settings(max_examples=200)
@given(coefficient, coefficient, coefficient, parameter, parameter)
def test_range_first_selection_equals_filtered_roots(c0, c1, c2, a, b):
    t0, t1 = min(a, b), max(a, b)
    p = _Poly2(c0, c1, c2)
    expected = [repr(t) for t in p.roots() if t0 <= t <= t1]
    assert [repr(t) for t in p.roots_in(t0, t1)] == expected


@st.composite
def range_and_chosen_roots(draw):
    """t0 <= t1 and k (q1 t - p1)(q2 t - p2) + shift, with roots drawn at
    an end, at the midpoint, twice at one place or anywhere; a shift of
    +-1 moves them off the chosen points, mostly to irrational ones."""
    a, b, free1, free2 = (draw(small_parameter) for _ in range(4))
    t0, t1 = min(a, b), max(a, b)
    places = [t0, t1, (t0 + t1) / 2]
    r1 = (places + [free1])[draw(st.integers(0, 3))]
    r2 = (places + [free2, r1])[draw(st.integers(0, 4))]
    k = draw(st.integers(-3, 3).filter(bool))
    shift = draw(st.integers(-2, 2)) // 2
    (p1, q1), (p2, q2) = (r1.numerator, r1.denominator), (r2.numerator, r2.denominator)
    poly = _Poly2(k * p1 * p2 + shift, -k * (q1 * p2 + q2 * p1), k * q1 * q2)
    return t0, t1, poly


@settings(max_examples=300)
@given(range_and_chosen_roots())
@example((F(0), F(2), _Poly2(1, -2, 1)))  # tangent double root inside
@example((F(1), F(2), _Poly2(-1, 2, -1)))  # tangent double root at t0
@example((F(1), F(3), _Poly2(5, -6, 1)))  # simple root at t0
@example((F(-1), F(1), _Poly2(-3, 2, 1)))  # simple root at t1
@example((F(3), F(4), _Poly2(2, -3, 1)))  # both roots below the range
@example((F(-2), F(-1), _Poly2(2, -3, 1)))  # both roots above the range
@example((F(-2), F(0), _Poly2(1, -2, -1)))  # range between two irrational roots
def test_sign_test_keeps_roots_at_the_ends_and_double_roots(case):
    t0, t1, p = case
    expected = [repr(t) for t in p.roots() if t0 <= t <= t1]
    assert [repr(t) for t in p.roots_in(t0, t1)] == expected


@settings(max_examples=300)
@given(range_and_chosen_roots(), coefficient, coefficient, coefficient)
@example((F(0), F(1), _Poly2(-1, 0, 2)), -3, 0, 0)  # rational part only, at +-1/sqrt(2)
@example((F(0), F(1), _Poly2(-1, 0, 2)), 0, 1, 0)  # surd part only
def test_sign_at_a_root_equals_the_exact_value(case, a0, a1, a2):
    _, _, im = case
    re = _Poly2(a0, a1, a2)
    for t in im.roots():
        value = re(t)
        assert re.sign_at_root_of(im, t) == (value > 0) - (value < 0)
