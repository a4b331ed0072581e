"""Property tests of phases built from integer charge values
(``HeartCharge.phase`` and the ``PhaseValue`` canonical form), and of
the sign of a phase against the arctan series loop it used to run."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabkit.exact import (  # noqa: E402
    ExactnessError,
    PhaseValue,
    Quad,
    RatComplex,
    arg_over_pi_bounds,
    tan_pi,
)
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


def _sign_by_series(pv: PhaseValue) -> int:
    """The sign of offset + arg/pi as PhaseValue.sign decided it before it
    shared the refinement loop of the other exact types: exact tiers,
    then arctan enclosures at 24, 48, ..., 768 series terms."""
    q, x, y = pv.offset, pv.x, pv.y
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    if q >= half:
        return 1
    if q <= -half:
        return -1
    if q == 0:
        return (y > 0) - (y < 0)
    if y == 0:
        return (q > 0) - (q < 0)
    if x == y:
        return (q > -quarter) - (q < -quarter)
    if x == -y:
        return (q > quarter) - (q < quarter)
    try:
        return (Quad(Fraction(y, x)) - tan_pi(-q)).sign()
    except ExactnessError:
        pass
    for n in (24, 48, 96, 192, 384, 768):
        lo, hi = arg_over_pi_bounds(x, y, n)
        if q + lo > 0:
            return 1
        if q + hi < 0:
            return -1
    raise AssertionError("not separated at 768 terms")


@settings(max_examples=300)
@given(
    st.tuples(st.integers(-200, 200), st.integers(-200, 200)).filter(any),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30)),
)
def test_sign_agrees_with_the_series_loop(direction, offset):
    pv = PhaseValue(direction, offset)
    assert pv.sign() == _sign_by_series(pv)


@settings(max_examples=200)
@given(st.integers(1, 200), st.integers(-200, 200).filter(bool), st.integers(1, 30))
def test_sign_near_minus_the_angle(x, y, den):
    # offsets closest to -arg/pi at denominator den: the refinement tier
    # has the least room there
    target = -Fraction(float(PhaseValue((x, y)))).limit_denominator(den)
    pv = PhaseValue((x, y), target)
    assert pv.sign() == _sign_by_series(pv)
