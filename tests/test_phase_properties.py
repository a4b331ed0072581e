"""Property tests of phases built from integer charge values
(``HeartCharge.phase`` and the ``PhaseValue`` canonical form)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabkit.exact import PhaseValue, RatComplex  # noqa: E402
from stabkit.heart import HeartCharge  # noqa: E402

rational = st.builds(Fraction, st.integers(-72, 72), st.integers(1, 12))
positive = st.builds(Fraction, st.integers(1, 72), st.integers(1, 12))
# a charge value in H-bar minus 0: the open upper half plane, or the
# negative real axis
in_hbar = st.one_of(
    st.builds(RatComplex, rational, positive),
    st.builds(RatComplex, positive.map(lambda q: -q), st.just(0)),
)


@st.composite
def charge_and_class(draw):
    n = draw(st.integers(1, 4))
    zc = HeartCharge(draw(st.lists(in_hbar, min_size=n, max_size=n)), draw(rational))
    dims = draw(
        st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    )
    return zc, tuple(dims)


@settings(max_examples=200)
@given(charge_and_class())
def test_phase_from_integers_equals_phase_from_rationals(case):
    zc, dims = case
    reference = PhaseValue.of_upper(zc.base_value(dims)) + zc.rot
    assert zc.phase(dims).to_json() == reference.to_json()


@settings(max_examples=200)
@given(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(any),
    rational,
    st.integers(1, 30),
    st.integers(1, 30),
)
def test_positive_scale_keeps_the_canonical_form(direction, q, k, m):
    x, y = direction
    form = PhaseValue((x, y), q).to_json()
    assert PhaseValue((k * x, k * y), q).to_json() == form
    assert PhaseValue((Fraction(k * x, m), Fraction(k * y, m)), q).to_json() == form
