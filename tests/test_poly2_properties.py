"""Property tests of the wall scan's integer quadratics (``k3._Poly2``)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabkit.k3 import _Poly2  # noqa: E402

coefficient = st.integers(-200, 200)
parameter = st.fractions(min_value=-12, max_value=12, max_denominator=16)


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
