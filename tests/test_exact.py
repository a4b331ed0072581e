import math
import operator
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from stabkit.exact import (
    ExactnessError,
    PhaseValue,
    Quad,
    RatComplex,
    SqrtSum,
    cot_pi,
    frac_str,
    sin2_pi,
    squarefree_split,
    tan_pi,
)

F = Fraction


def test_frac_str():
    assert frac_str(F(3, 6)) == "1/2"
    assert frac_str(F(-4, 2)) == "-2"
    assert frac_str(5) == "5"


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(36) == (6, 1)
    assert squarefree_split(360) == (6, 10)


def test_rational_sqrt():
    assert Quad.sqrt_of(F(9, 4)) == F(3, 2)
    assert Quad.sqrt_of(F(9, 4)).is_rational()
    assert not Quad.sqrt_of(F(2)).is_rational()
    assert Quad.sqrt_of(F(0)) == 0


class TestRatComplex:
    def test_arith(self):
        z = RatComplex(1, 2) * RatComplex(3, -1)
        assert (z.re, z.im) == (5, 5)
        assert (RatComplex(1, 1) - RatComplex(0, 1)).im == 0

    def test_upper_closure(self):
        assert RatComplex(-1, 0).in_upper_closure()
        assert RatComplex(0, 1).in_upper_closure()
        assert not RatComplex(1, 0).in_upper_closure()
        assert not RatComplex(0, -1).in_upper_closure()


class TestQuad:
    def test_canonical(self):
        assert Quad(0, 1, 4) == 2
        assert Quad(1, 2, 8) == Quad(1, 4, 2)
        assert Quad.sqrt_of(F(9, 4)) == F(3, 2)

    def test_sign(self):
        assert (Quad(1, 1, 2)).sign() == 1
        assert (Quad(-3, 2, 2)).sign() == -1  # 2*sqrt(2) = 2.83 < 3
        assert (Quad(-2, 2, 2)).sign() == 1
        assert Quad(0).sign() == 0

    def test_arith(self):
        s2 = Quad(0, 1, 2)
        assert s2 * s2 == 2
        assert (1 / (1 + s2)) == s2 - 1  # 1/(1+sqrt2) = sqrt2 - 1
        assert float(s2) == pytest.approx(math.sqrt(2))

    def test_mixed_field_comparison(self):
        assert Quad(0, 1, 2) < Quad(0, 1, 3)
        with pytest.raises(ExactnessError):
            Quad(0, 1, 2) + Quad(0, 1, 3)


def test_trig_tables():
    assert sin2_pi(F(1, 6)) == F(1, 4)
    assert sin2_pi(F(1, 8)) == (2 - Quad(0, 1, 2)) / 4
    assert sin2_pi(F(1, 2)) == 1
    assert cot_pi(F(1, 4)) == 1
    assert cot_pi(F(3, 4)) == -1
    assert tan_pi(F(1, 4)) == 1
    assert tan_pi(F(-1, 4)) == -1
    # numeric sanity across the table
    for q in (F(1, 12), F(1, 8), F(1, 6), F(1, 3), F(5, 12), F(3, 8)):
        assert float(cot_pi(q)) == pytest.approx(1 / math.tan(math.pi * q))
    with pytest.raises(ExactnessError):
        cot_pi(F(1, 5))


class TestPhaseValue:
    def test_convention_boundaries(self):
        assert PhaseValue.of_upper(RatComplex(-1, 0)) == F(1)
        assert PhaseValue.of_upper(RatComplex(0, 1)) == F(1, 2)
        assert PhaseValue.of_upper(RatComplex(1, 1)) == F(1, 4)
        assert PhaseValue.of_upper(RatComplex(-1, 1)) == F(3, 4)

    def test_of_upper_rejects(self):
        with pytest.raises(ValueError):
            PhaseValue.of_upper(RatComplex(1, 0))
        with pytest.raises(ValueError):
            PhaseValue.of_upper(RatComplex(0, 0))
        with pytest.raises(ValueError):
            PhaseValue.of_upper(RatComplex(0, -1))

    def test_order_is_argument_order(self):
        zs = [RatComplex(3, 1), RatComplex(1, 1), RatComplex(0, 1), RatComplex(-2, 1), RatComplex(-1, 0)]
        phases = [PhaseValue.of_upper(z) for z in zs]
        for a, b in zip(phases, phases[1:]):
            assert a < b

    def test_subtraction_exact(self):
        a = PhaseValue.of_upper(RatComplex(1, 1))
        b = PhaseValue.of_upper(RatComplex(0, 1))
        assert (b - a) == F(1, 4)
        assert (a - b) == F(-1, 4)
        # arctan addition identity: arg(1,3) - arg(2,1) = pi/4
        p = PhaseValue((1, 3))
        q = PhaseValue((2, 1))
        assert (p - q) == F(1, 4)

    def test_shift_and_float(self):
        p = PhaseValue.of_upper(RatComplex(1, 2))
        assert float(p.shift(F(1, 8))) == pytest.approx(float(p) + 0.125)
        assert p.shift(F(1, 8)) > p
        assert abs(p - p) == 0

    def test_irrational_vs_rational_threshold(self):
        p = PhaseValue((2, 1))  # arg/pi ~ 0.1476
        assert p < F(1, 6)
        assert p > F(1, 8)
        assert p < F(1, 4)
        # outside the quadratic table: decided by certified enclosures
        assert p > F(1, 7)
        assert p < F(10, 67)
        assert p < F(14759, 100000)  # value is 0.1475836...
        assert p > F(14758, 100000)

    def test_floor_mod2(self):
        p = PhaseValue((1, 1), F(7, 2))  # 3.75
        assert p.floor() == 3
        phi0, k = p.mod2_split()
        assert k == 1
        assert phi0 == p - F(2)
        n = PhaseValue((1, -1), F(-3, 2))  # -1.75
        assert n.floor() == -2
        phi0, k = n.mod2_split()
        assert k == -1
        assert 0 <= float(phi0) < 2

    def test_json_roundtrip(self):
        p = PhaseValue((3, 2), F(5, 8))
        q = PhaseValue.from_json(p.to_json())
        assert p == q
        r = PhaseValue.rational(F(3, 4))
        assert PhaseValue.from_json(r.to_json()) == r

    def test_order_agrees_with_float_off_ties(self):
        import random

        rng = random.Random(42)
        supported = (F(0), F(1, 2), F(1, 4), F(1, 8), F(1, 6), F(1, 12), F(2))
        vals = []
        for _ in range(300):
            x, y = rng.randint(-5, 5), rng.randint(-5, 5)
            if (x, y) == (0, 0):
                continue
            vals.append(PhaseValue((x, y), rng.choice(supported)))
        for _ in range(600):
            a, b = rng.choice(vals), rng.choice(vals)
            fa, fb = float(a), float(b)
            if abs(fa - fb) < 1e-9:
                continue
            assert (a < b) == (fa < fb)

    def test_subtraction_roundtrip(self):
        import random

        rng = random.Random(43)
        for _ in range(200):
            a = PhaseValue(
                (rng.randint(-5, 5) or 1, rng.randint(-5, 5)), F(rng.randint(-4, 4), 2)
            )
            b = PhaseValue(
                (rng.randint(-5, 5) or 1, rng.randint(-5, 5)), F(rng.randint(-4, 4), 2)
            )
            assert (a - b) + b == a
            assert ((a - b) + (b - a)).sign() == 0


def _single_sqrt(s: SqrtSum):
    """The rational q with s = sqrt(q), when the sum has <= 1 term."""
    if not s.terms:
        return Fraction(0)
    if len(s.terms) == 1:
        d, c = s.terms[0]
        return c * c * d
    return None


class TestSqrtSum:
    def test_canonical_merge(self):
        a = SqrtSum.sqrt_of(2) + SqrtSum.sqrt_of(8)
        assert a == SqrtSum([(3, 2)])  # sqrt2 + 2 sqrt2
        assert _single_sqrt(a) == 18

    def test_compare(self):
        two_sqrt2 = SqrtSum.sqrt_of(8)
        assert two_sqrt2 > 2
        assert two_sqrt2 < 3
        assert SqrtSum.sqrt_of(2) + SqrtSum.sqrt_of(3) > SqrtSum.sqrt_of(5)
        assert SqrtSum() == 0

    def test_abs_of(self):
        assert _single_sqrt(SqrtSum.sqrt_of(RatComplex(-1, 1).abs2())) == 2
        assert float(SqrtSum.sqrt_of(RatComplex(3, 4).abs2())) == pytest.approx(5.0)


# (x, y, sign of x - y): same-field, mixed-field and rational Quads,
# SqrtSums and PhaseValues, equal pairs included
ORDER_PAIRS = [
    (Quad(1, 1, 2), Quad(3, -1, 2), 1),
    (Quad(1, 1, 2), Quad(1, F(1, 2), 8), 0),
    (Quad(0, 1, 2), F(7, 5), 1),
    (Quad(F(3, 2)), F(3, 2), 0),
    (Quad(0, 1, 2), Quad(0, 1, 3), -1),
    (Quad(1, 1, 3), Quad(0, 2, 2), -1),
    (SqrtSum.sqrt_of(2) + SqrtSum.sqrt_of(3), SqrtSum.sqrt_of(5), 1),
    (SqrtSum.sqrt_of(2) + SqrtSum.sqrt_of(8), SqrtSum([(3, 2)]), 0),
    (SqrtSum.sqrt_of(8), 3, -1),
    (SqrtSum(), 0, 0),
    (PhaseValue((2, 1)), F(1, 7), 1),
    (PhaseValue((1, 3)) - PhaseValue((2, 1)), F(1, 4), 0),
    (PhaseValue((1, 1)), PhaseValue((2, 1)), 1),
    (PhaseValue((1, 1), 1), PhaseValue((-1, -1), 2), 0),
]

ORDER_OPS = {
    "==": (operator.eq, lambda s: s == 0),
    "!=": (operator.ne, lambda s: s != 0),
    "<": (operator.lt, lambda s: s < 0),
    "<=": (operator.le, lambda s: s <= 0),
    ">": (operator.gt, lambda s: s > 0),
    ">=": (operator.ge, lambda s: s >= 0),
}


@pytest.mark.parametrize("x, y, sign", ORDER_PAIRS)
def test_order_protocol(x, y, sign, monkeypatch):
    cls = type(x)
    c = x._cmp(y)
    assert (c > 0) - (c < 0) == sign
    calls = []
    cmp = cls._cmp

    def counted(self, other):
        calls.append(other)
        return cmp(self, other)

    monkeypatch.setattr(cls, "_cmp", counted)
    for name, (op, holds) in ORDER_OPS.items():
        for a, b, s in ((x, y, sign), (y, x, -sign)):
            calls.clear()
            assert op(a, b) is holds(s), (name, a, b)
            assert len(calls) == 1, (name, a, b)
    assert not hasattr(x, "__dict__") and not hasattr(y, "__dict__")


def test_order_protocol_across_types():
    values = [Quad(1), Quad(0, 1, 2), SqrtSum.sqrt_of(1), PhaseValue.rational(1)]
    for x in values:
        for y in values:
            if type(x) is not type(y):
                assert (x == y) is False
                assert (x != y) is True
    assert hash(Quad(F(3, 2))) == hash(F(3, 2))
    with pytest.raises(TypeError):
        hash(PhaseValue.rational(1))


def test_atan_argument_guard_raises_under_python_O():
    # the series bracket is valid on [0, 1/2] only; the guard must
    # survive -O, which strips asserts
    code = textwrap.dedent(
        """
        from fractions import Fraction
        from stabkit import exact
        try:
            exact._atan_bounds_small(Fraction(1), 8)
        except exact.InvariantError:
            print("raised")
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        check=True,
    ).stdout
    assert out.strip() == "raised"


def test_invariant_error_is_reexported_by_lattice():
    from stabkit import exact, lattice

    assert lattice.InvariantError is exact.InvariantError
