"""The cotangent table of ``stabkit.exact`` against routes that share no
code with it.

``cot_pi``, ``tan_pi`` and ``sin2_pi`` are checked against sympy's own
exact values at every q in [-2, 2] whose denominator divides 12 or 8.
The deformation test's rotation norm ``4 sin^2(pi d / 2)`` is checked
against ``2 - 2 cos(pi d)`` from a cosine table kept here, on the same
domain (denominator of d dividing 6 or 4) and with ``ExactnessError``
on the same inputs.
"""

from fractions import Fraction

import pytest

from stabkit.exact import ExactnessError, Quad, cot_pi, sin2_pi, tan_pi

F = Fraction
HALF = F(1, 2)


def _grid(den: int) -> list:
    """Every k/den in [-2, 2]."""
    return [F(k, den) for k in range(-2 * den, 2 * den + 1)]


def _divides(q: Fraction, *dens: int) -> bool:
    return any(d % q.denominator == 0 for d in dens)


TABLE_QS = sorted({q for q in _grid(24) if _divides(q, 12, 8)})
ROTATIONS = sorted({d for d in _grid(120) if _divides(d, 6, 4)})
OFF_TABLE = [d for d in _grid(120) if not _divides(d, 6, 4)]

_COS_REF = {
    F(0): Quad(1),
    F(1, 6): Quad(0, HALF, 3),
    F(1, 4): Quad(0, HALF, 2),
    F(1, 3): Quad(HALF),
    F(1, 2): Quad(0),
}


def cos_ref(q: Fraction) -> Quad:
    """cos(pi*q) for denominators dividing 6 or 4, by reduction to [0, 1/2]."""
    q = q % 2
    if q > 1:
        q = 2 - q
    sign = 1
    if q > HALF:
        q, sign = 1 - q, -1
    if q not in _COS_REF:
        raise ExactnessError(f"cos(pi*{q}) is not in the reference table")
    return _COS_REF[q] * sign


def test_grids_cover_the_table():
    assert len(TABLE_QS) == 65
    assert {q % 1 for q in TABLE_QS} == {F(k, 24) for k in range(24) if k % 2 == 0 or k % 3 == 0}


def test_against_sympy():
    sp = pytest.importorskip("sympy")

    def same(mine: Quad, ref) -> bool:
        ours = sp.Rational(mine.a.numerator, mine.a.denominator) + sp.Rational(
            mine.b.numerator, mine.b.denominator
        ) * sp.sqrt(mine.d)
        return sp.simplify(sp.expand(ours - ref)) == 0

    for q in TABLE_QS:
        x = sp.pi * sp.Rational(q.numerator, q.denominator)
        assert same(sin2_pi(q), sp.sin(x) ** 2), q
        if q.denominator != 1:
            assert same(cot_pi(q), sp.cot(x)), q
        if abs(q) < HALF:
            assert same(tan_pi(q), sp.tan(x)), q


def test_rotation_norm_is_two_minus_two_cos():
    assert len(ROTATIONS) == 33
    for d in ROTATIONS:
        norm = sin2_pi(d / 2) * 4
        assert norm == 2 - 2 * cos_ref(d), d
        assert repr(norm) == repr(Quad(2) - cos_ref(d) * 2), d


def test_off_table_rotations_raise_on_both_routes():
    for d in OFF_TABLE:
        with pytest.raises(ExactnessError):
            cos_ref(d)
        with pytest.raises(ExactnessError):
            sin2_pi(d / 2)


def test_sin2_is_half_of_one_minus_cos_double_angle():
    for q in TABLE_QS:
        assert repr(sin2_pi(q)) == repr((Quad(1) - cos_ref(2 * q)) / 2), q
