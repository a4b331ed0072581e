import itertools
import random
from fractions import Fraction

import pytest

from stabkit.curve import (
    CurveCharge,
    CurveClass,
    NotInOrbit,
    gl_orbit_decompose,
    hn_polygon,
    phase_order_check,
    phase_to_slope,
    slope_phase,
    z_standard,
)
from stabkit.exact import PhaseValue, Quad, RatComplex
from stabkit.lattice import InputError, mat_det, mat_inv, mat_mul

F = Fraction


class TestZStandard:
    def test_point(self):
        assert z_standard(CurveClass(0, 1)) == RatComplex(-1, 0)

    def test_structure_sheaf(self):
        assert z_standard(CurveClass(1, 0)) == RatComplex(0, 1)

    def test_general(self):
        assert z_standard(CurveClass(2, 3)) == RatComplex(-3, 2)


class TestSlopePhase:
    def test_zero_slope(self):
        assert slope_phase(0) == F(1, 2)

    def test_minus_one(self):
        assert slope_phase(-1) == F(1, 4)

    def test_slope_order_matches_phase_order(self):
        # mu(F) < mu(E) iff phi(F) < phi(E): mu = -cot(pi phi) is increasing
        rng = random.Random(1)
        for _ in range(200):
            a = F(rng.randint(-20, 20), rng.randint(1, 9))
            b = F(rng.randint(-20, 20), rng.randint(1, 9))
            if a == b:
                continue
            pa, pb = slope_phase(a), slope_phase(b)
            assert (a > b) == (pa > pb)

    def test_inverse_roundtrip(self):
        for mu in (F(0), F(-1), F(7, 3), F(-22, 5)):
            assert phase_to_slope(slope_phase(mu)) == mu

    def test_inverse_of_rational_phase(self):
        assert phase_to_slope(PhaseValue.rational(F(1, 2))) == 0
        assert phase_to_slope(PhaseValue.rational(F(1, 4))) == -1
        assert phase_to_slope(PhaseValue.rational(F(1, 3))) == -Quad(0, F(1, 3), 3)
        with pytest.raises(InputError):
            phase_to_slope(PhaseValue.rational(F(1)))

    def test_inverse_comparable_to_rationals(self):
        s = phase_to_slope(PhaseValue.rational(F(1, 3)))  # -1/sqrt(3)
        assert s < 0
        assert s > -1


class TestOrbitDecompose:
    def test_standard_gives_identity(self):
        M = gl_orbit_decompose(CurveCharge.standard())
        assert M == ((1, 0), (0, 1))

    def test_scaling(self):
        zc = CurveCharge(((0, -2), (2, 0)))  # 2 * Z_std
        M = gl_orbit_decompose(zc)
        assert M == ((F(1, 2), 0), (0, F(1, 2)))

    def test_orientation_reversal_rejected(self):
        with pytest.raises(NotInOrbit):
            gl_orbit_decompose(CurveCharge(((0, -1), (-1, 0))))

    def test_recompose_identity(self):
        rng = random.Random(2)
        count = 0
        while count < 100:
            m = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)]
            det = mat_det(m)
            if det <= 0:
                continue
            zc = CurveCharge(m)
            M = gl_orbit_decompose(zc)
            # zc = M^{-1} o Z_std
            back = mat_mul(mat_inv([list(r) for r in M]), [[0, -1], [1, 0]])
            assert tuple(tuple(x for x in row) for row in back) == zc.m
            count += 1


class TestPhaseOrder:
    def test_standard(self):
        assert phase_order_check(CurveCharge.standard(), range(-5, 6))

    def test_wide_range(self):
        assert phase_order_check(CurveCharge.standard(), range(-10, 11))

    def test_skewed_oriented_charge(self):
        # an oriented non-standard charge normalizes back to the standard
        # frame, so the phase window property must hold for it as well
        zc = CurveCharge(((1, -1), (1, 0)))
        assert phase_order_check(zc, range(-5, 6))

    def test_orientation_reversed_errors(self):
        with pytest.raises(NotInOrbit):
            phase_order_check(CurveCharge(((0, -1), (-1, 0))), range(-2, 3))


class TestHNPolygon:
    def test_point_then_line(self):
        poly = hn_polygon([CurveClass(0, 1), CurveClass(1, 0)], CurveCharge.standard())
        assert poly.vertices == (
            RatComplex(0, 0),
            RatComplex(-1, 0),
            RatComplex(-1, 1),
        )
        phis = [f[2] for f in poly.factors]
        assert phis[0] == F(1) and phis[1] == F(1, 2)

    def test_single_part(self):
        poly = hn_polygon([CurveClass(1, 2)], CurveCharge.standard())
        assert len(poly.vertices) == 2

    def test_equal_phase_merge(self):
        poly = hn_polygon([CurveClass(1, 1), CurveClass(2, 2)], CurveCharge.standard())
        assert len(poly.factors) == 1
        assert poly.factors[0][0] == CurveClass(3, 3)
        # three parts with a tie, in every order: vertices and factors
        # recorded from the comparator sort hn_polygon used before it
        # sorted by key
        cases = [
            (  # the tie has the top phase
                [CurveClass(1, 1), CurveClass(2, 2), CurveClass(1, -3)],
                ["(0)+(0)i", "(-3)+(3)i", "(0)+(4)i"],
                [
                    ("CurveClass(r=3, d=3)", "(-3)+(3)i", {"offset": "1", "dir": [1, -1]}),
                    ("CurveClass(r=1, d=-3)", "(3)+(1)i", {"offset": "0", "dir": [3, 1]}),
                ],
            ),
            (  # the tie has the bottom phase
                [CurveClass(1, -1), CurveClass(2, -2), CurveClass(0, 1)],
                ["(0)+(0)i", "(-1)+(0)i", "(2)+(3)i"],
                [
                    ("CurveClass(r=0, d=1)", "(-1)+(0)i", "1"),
                    ("CurveClass(r=3, d=-3)", "(3)+(3)i", {"offset": "0", "dir": [1, 1]}),
                ],
            ),
        ]
        for parts, vertices, factors in cases:
            for perm in itertools.permutations(parts):
                poly = hn_polygon(list(perm), CurveCharge.standard())
                assert [str(v) for v in poly.vertices] == vertices, perm
                assert [
                    (repr(c), str(z), phi.to_json()) for c, z, phi in poly.factors
                ] == factors, perm

    def test_additivity(self):
        rng = random.Random(3)
        for _ in range(100):
            parts = [
                CurveClass(rng.randint(0, 4), rng.randint(-4, 4)) for _ in range(4)
            ]
            parts = [c for c in parts if z_standard(c).in_upper_closure()]
            if not parts:
                continue
            poly = hn_polygon(parts, CurveCharge.standard())
            total = RatComplex(0, 0)
            for c in parts:
                total = total + z_standard(c)
            assert poly.total == total

    def test_zero_charge_rejected(self):
        with pytest.raises(InputError):
            hn_polygon([CurveClass(0, 0)], CurveCharge.standard())
