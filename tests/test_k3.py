import itertools
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import pytest

from stabkit.exact import Quad, RatComplex
from stabkit.k3 import (
    AffinePath,
    GuardViolation,
    K3CentralCharge,
    UndefinedPhase,
    _integer_forms,
    central_charge,
    discreteness_check,
    extract_omega_beta,
    heart_image_check,
    normalize_to_exp_form,
    phase,
    realpart_identity_check,
    spherical_guard,
    torsion_side,
    wall_scan,
)
from stabkit.lattice import (
    ComplexMukaiVector,
    DeltaBox,
    InputError,
    MukaiVector,
    NSLattice,
    exp_class,
    load_lattice,
    mukai_pairing,
)

F = Fraction


@pytest.fixture
def lat1():
    return NSLattice([[2]], [1])


@pytest.fixture
def lat2c():
    # rank 2 with a declared (-2)-curve in the second coordinate
    return NSLattice([[2, 0], [0, -2]], [1, 0], [[0, 1]])


def charge(lat1, t, b=0):
    return K3CentralCharge(lat1, [F(b)], [F(t)])


class TestCentralCharge:
    def test_point_class_is_minus_one(self, lat1):
        zc = charge(lat1, 2)
        z = central_charge(zc, MukaiVector(0, (0,), 1))
        assert (z.re, z.im) == (-1, 0)

    def test_spherical_value(self, lat1):
        for t in (F(1), F(2), F(1, 2), F(7, 3)):
            zc = charge(lat1, t)
            z = central_charge(zc, MukaiVector(1, (0,), 1))
            assert z.im == 0 and z.re == t * t - 1

    def test_curve_value(self, lat1):
        zc = charge(lat1, F(3, 2))
        z = central_charge(zc, MukaiVector(0, (1,), 0))
        assert z.re == 0 and z.im == 3

    def test_agrees_with_pairing_against_Om(self, lat2c):
        rng = random.Random(5)
        for _ in range(200):
            B = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2))
            w = (F(rng.randint(1, 4)), F(rng.randint(-1, 1)))
            if lat2c.ns_dot(w, w) <= 0:
                continue
            zc = K3CentralCharge(lat2c, B, w)
            v = MukaiVector(
                rng.randint(-4, 4), (rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(-4, 4)
            )
            z = central_charge(zc, v)
            assert z.re == mukai_pairing(zc.Om.re, v, lat2c)
            assert z.im == mukai_pairing(zc.Om.im, v, lat2c)

    @pytest.mark.parametrize(
        "B, w", [((0, 0), (1, 0)), ((F(1, 2), F(-1, 3)), (2, 1)), ((-1, F(2, 5)), (F(3, 2), 0))]
    )
    def test_matches_the_expanded_formula(self, lat2c, B, w):
        # Re = B.l - s - r (B^2 - omega^2)/2, Im = omega.l - r B.omega
        zc = K3CentralCharge(lat2c, B, w)
        dot = lat2c.ns_dot
        b2, w2, bw = dot(zc.B, zc.B), dot(zc.omega, zc.omega), dot(zc.B, zc.omega)
        box = range(-2, 3)
        for r, l1, l2, s in itertools.product(box, repeat=4):
            l = (l1, l2)
            z = central_charge(zc, MukaiVector(r, l, s))
            assert z.re == dot(zc.B, l) - s - r * F(b2 - w2) / 2
            assert z.im == dot(zc.omega, l) - r * bw

    def test_rejects_nonpositive_omega(self, lat2c):
        with pytest.raises(InputError):
            K3CentralCharge(lat2c, [0, 0], [0, 1])  # square -2


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def charge_on_path(lat, B_path, omega_path, t):
    """The charge at t, for ``central_charge``.  Where omega_t^2 <= 0
    (omega_t = 0 included) no K3CentralCharge exists; ``central_charge``
    reads only the lattice and Om = exp(B_t + i omega_t) of its argument."""
    B, w = B_path.at(t), omega_path.at(t)
    if lat.ns_dot(w, w) > 0:
        return K3CentralCharge(lat, B, w)
    return SimpleNamespace(lat=lat, Om=exp_class(B, w, lat))


class TestIntegerForms:
    """The wall scan's integer forms, against the one definition of Z."""

    @pytest.mark.parametrize("config", ["k3_rank1.json", "k3_rank2_curve.json"])
    def test_forms_are_one_positive_scale_of_the_charge(self, config):
        lat = load_lattice(CONFIGS / config)
        rng = random.Random(config)

        def rational():
            return F(rng.randint(-7, 7), rng.randint(1, 6))

        box = list(itertools.product(range(-1, 2), repeat=lat.rank + 2))  # holds the unit vectors
        for _ in range(12):
            t_zero = rational()  # omega vanishes here on every path
            w1 = [rational() for _ in range(lat.rank)]
            if not any(w1):
                continue
            B_path = AffinePath([rational() for _ in range(lat.rank)],
                                [rational() or 1 for _ in range(lat.rank)])
            omega_path = AffinePath([-t_zero * x for x in w1], w1)
            assert not any(omega_path.at(t_zero))
            forms = _integer_forms(lat, B_path, omega_path)
            assert all(isinstance(x, int) for form in forms for x in form)
            scale = None
            for t in (t_zero, F(0), F(1), rational(), rational()):
                zc = charge_on_path(lat, B_path, omega_path, t)
                for x in box:
                    re, im = (sum(sum(map(mul, form, x)) * t**k for k, form in enumerate(part))
                              for part in (forms[:3], forms[3:]))
                    z = central_charge(zc, MukaiVector.from_coords(x))
                    for got, want in ((re, z.re), (im, z.im)):
                        if want and scale is None:
                            scale = got / want
                            assert scale > 0
                        assert got == (scale or 0) * want


class TestPhase:
    def test_boundary_convention(self):
        assert phase(RatComplex(-1, 0)) == F(1)
        assert phase(RatComplex(0, 1)) == F(1, 2)
        assert phase(RatComplex(1, 1)) == F(1, 4)

    def test_slope_cross_check(self):
        # mu = -cot(pi phi): phi = 1/4 should give slope -1
        p = phase(RatComplex(1, 1))
        assert p == F(1, 4)

    def test_errors(self):
        with pytest.raises(UndefinedPhase):
            phase(RatComplex(0, 0))
        with pytest.raises(UndefinedPhase):
            phase(RatComplex(1, 0))
        with pytest.raises(UndefinedPhase):
            phase(RatComplex(0, -1))


class TestSphericalGuard:
    def test_ok_at_t2(self, lat1):
        res = spherical_guard(charge(lat1, 2), DeltaBox.cube(4))
        assert res.ok
        assert not res.truncated  # rho=1, beta=0: reduction is complete

    def test_violation_below_wall(self, lat1):
        res = spherical_guard(charge(lat1, F(1, 2)), DeltaBox.cube(4))
        assert not res.ok
        assert res.witness == MukaiVector(1, (0,), 1)
        assert res.witness_value.re == F(-3, 4)

    def test_boundary_counts_as_violation(self, lat1):
        res = spherical_guard(charge(lat1, 1), DeltaBox.cube(4))
        assert not res.ok
        assert res.witness_value.re == 0

    def test_solved_s_not_box_limited(self, lat1):
        # with B = 3h/5 and omega = h the reduced scan must still solve s
        zc = K3CentralCharge(lat1, [F(3, 5)], [1])
        res = spherical_guard(zc, DeltaBox.cube(2))
        assert res.truncated or not res.ok  # beta != 0: never claims completeness

    def test_off_line_candidate_raises_under_python_O(self):
        # (0, h, 0) has Z = 4i at omega = 2h: not a candidate of the reduction
        code = textwrap.dedent(
            """
            from fractions import Fraction
            from stabkit import k3
            from stabkit.lattice import DeltaBox, InvariantError, MukaiVector, NSLattice
            k3._guard_candidates = lambda zc, bounds: [MukaiVector(0, (1,), 0)]
            zc = k3.K3CentralCharge(NSLattice([[2]], [1]), [Fraction(0)], [Fraction(2)])
            try:
                k3.spherical_guard(zc, DeltaBox.cube(4))
            except InvariantError:
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


class TestDiscreteness:
    def test_integral(self, lat1):
        assert discreteness_check(charge(lat1, 1), 1)

    def test_half_integral(self, lat1):
        zc = K3CentralCharge(lat1, [F(1, 2)], [1])
        assert discreteness_check(zc, 2)

    def test_third_not_in_half(self, lat1):
        zc = K3CentralCharge(lat1, [0], [F(1, 3)])
        assert not discreteness_check(zc, 2)
        assert discreteness_check(zc, 3)

    def test_lattice_image_property(self, lat2c):
        rng = random.Random(9)
        for m in (1, 2, 3):
            zc = K3CentralCharge(
                lat2c, (F(rng.randint(-3, 3), m), F(rng.randint(-3, 3), m)), (F(2), F(1, m))
            )
            assert discreteness_check(zc, m)
            for _ in range(100):
                v = MukaiVector(
                    rng.randint(-20, 20),
                    (rng.randint(-20, 20), rng.randint(-20, 20)),
                    rng.randint(-20, 20),
                )
                z = central_charge(zc, v).scale(m * m)
                assert z.re.denominator == 1 and z.im.denominator == 1


class TestRealpartIdentity:
    def test_known_cases(self, lat1):
        assert realpart_identity_check(charge(lat1, 2), MukaiVector(1, (0,), 1))
        assert realpart_identity_check(charge(lat1, 1), MukaiVector(2, (1,), 0))

    def test_box_sweep(self, lat1):
        zc = K3CentralCharge(lat1, [F(1, 2)], [F(3, 2)])
        for r in range(-4, 5):
            if r == 0:
                continue
            for m in range(-4, 5):
                for s in range(-4, 5):
                    assert realpart_identity_check(zc, MukaiVector(r, (m,), s))

    def test_rank_zero_rejected(self, lat1):
        with pytest.raises(InputError):
            realpart_identity_check(charge(lat1, 1), MukaiVector(0, (1,), 0))


class TestTorsionSide:
    def test_known_cases(self, lat1):
        zc = charge(lat1, 1)
        assert torsion_side(MukaiVector(1, (1,), 0), zc) == "T"
        assert torsion_side(MukaiVector(1, (0,), 0), zc) == "F"
        assert torsion_side(MukaiVector(1, (-1,), 0), zc) == "F"

    def test_boundary_is_F(self, lat1):
        zc = K3CentralCharge(lat1, [1], [1])  # beta = 2
        assert torsion_side(MukaiVector(1, (1,), 0), zc) == "F"  # mu = 2 = beta

    def test_rejects_nonpositive_rank(self, lat1):
        with pytest.raises(InputError):
            torsion_side(MukaiVector(0, (1,), 0), charge(lat1, 1))


class TestHeartImage:
    def test_no_violations_at_omega_2h(self, lat1):
        rep = heart_image_check(charge(lat1, 2), DeltaBox.cube(4))
        assert rep.ok
        assert rep.checked > 100

    def test_checked_counts_are_pinned(self, lat1, lat2c):
        # recorded when the sweep still built the r < 0 classes it skips
        assert heart_image_check(charge(lat1, 2), DeltaBox.cube(6)).checked == 885
        zc = K3CentralCharge(lat2c, [0, 0], [2, F(1, 2)])
        assert heart_image_check(zc, DeltaBox.cube(4)).checked == 1858

    def test_point_class_branch(self, lat1):
        zc = charge(lat1, 2)
        z = central_charge(zc, MukaiVector(0, (0,), 1))
        assert z.im == 0 and z.re < 0

    def test_guard_gate(self, lat1):
        with pytest.raises(GuardViolation):
            heart_image_check(charge(lat1, F(1, 2)), DeltaBox.cube(4))


class TestExtractOmegaBeta:
    def test_pure_exp(self, lat1):
        form = extract_omega_beta(exp_class([0], [F(3, 2)], lat1), lat1)
        assert form.scale == 1
        assert form.omega == (F(3, 2),)
        assert form.beta == 0

    def test_scaled_with_B(self, lat1):
        om = exp_class([1], [1], lat1).scale(3)
        form = extract_omega_beta(om, lat1)
        assert form.scale == 3
        assert form.omega == (1,)
        assert form.beta == 2

    def test_im_negated_fails_positivity(self, lat1):
        om = exp_class([0], [1], lat1).conj()
        with pytest.raises(InputError, match="positivity"):
            extract_omega_beta(om, lat1)

    def test_point_image_elsewhere(self, lat1):
        om = exp_class([0], [1], lat1)
        rotated = ComplexMukaiVector(-om.im, om.re)  # point image becomes imaginary
        with pytest.raises(InputError, match="point class"):
            extract_omega_beta(rotated, lat1)


class TestNormalizeToExpForm:
    def test_identity_on_exp(self, lat1):
        om = exp_class([F(1, 2)], [F(2)], lat1)
        nf = normalize_to_exp_form(om, lat1)
        assert nf.matrix == ((1, 0), (0, 1))
        assert nf.B == (F(1, 2),)
        assert nf.omega == (2,)

    def test_quarter_rotation(self, lat1):
        om = exp_class([0], [F(3, 2)], lat1)
        rotated = ComplexMukaiVector(-om.im, om.re)  # i * Omega
        nf = normalize_to_exp_form(rotated, lat1)
        assert nf.matrix == ((0, 1), (-1, 0))  # rotation by -pi/2
        assert nf.B == (0,)
        assert nf.omega == (F(3, 2),)

    def test_irrational_scale(self, lat1):
        om = ComplexMukaiVector(MukaiVector(1, (0,), -1), MukaiVector(0, (1,), 1))
        nf = normalize_to_exp_form(om, lat1)
        assert nf.B == (F(1, 2),)
        assert nf.omega == (Quad(0, F(1, 2), 3),)

    def test_rejects_nonpositive_plane(self, lat1):
        om = ComplexMukaiVector(MukaiVector(0, (0,), 1), MukaiVector(1, (0,), 0))
        with pytest.raises(InputError):
            normalize_to_exp_form(om, lat1)

    def test_random_roundtrip(self, lat2c):
        from stabkit.lattice import positive_plane_check

        rng = random.Random(23)
        done = 0
        while done < 25:
            re = MukaiVector(
                rng.randint(-3, 3), (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-3, 3)
            )
            im = MukaiVector(
                rng.randint(-3, 3), (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-3, 3)
            )
            try:
                om = ComplexMukaiVector(re, im)
            except InputError:
                continue
            if not positive_plane_check(om, lat2c):
                continue
            nf = normalize_to_exp_form(om, lat2c)  # internal asserts verify M.(re,im)
            det = nf.matrix[0][0] * nf.matrix[1][1] - nf.matrix[0][1] * nf.matrix[1][0]
            assert (det > 0) if not isinstance(det, Quad) else det.sign() > 0
            done += 1


class TestWallScan:
    def test_single_wall_any_box(self, lat1):
        results = []
        for b in (1, 2, 3, 4):
            res = wall_scan(
                lat1,
                AffinePath.constant([0]),
                AffinePath([0], [1]),
                F(1, 2),
                F(2),
                DeltaBox.cube(b),
            )
            results.append([(w.t, w.witness.coords(), w.kind) for w in res.walls])
        for r in results:
            assert r == [(F(1), (1, 0, 1), "A")]

    def test_curve_wall(self, lat2c):
        res = wall_scan(
            lat2c,
            AffinePath.constant([0, 0]),
            AffinePath([1, 0], [0, 1]),
            F(-1),
            F(1),
            DeltaBox.cube(0),
            k_bound=3,
        )
        assert len(res.walls) == 1
        w = res.walls[0]
        assert w.kind == "C" and w.t == 0
        assert w.witness == MukaiVector(0, (0, 1), 0)
        assert w.detail == ((0, 1), 0)

    def test_curve_and_spherical_walls_coexist(self, lat2c):
        res = wall_scan(
            lat2c,
            AffinePath.constant([0, 0]),
            AffinePath([1, 0], [0, 1]),
            F(-1),
            F(1),
            DeltaBox.cube(2),
            k_bound=3,
        )
        kinds = {(w.kind, w.witness.coords()) for w in res.walls}
        assert ("C", (0, 0, 1, 0)) in kinds
        assert ("A", (1, 0, 0, 1)) in kinds  # Z(1,0,0,1) = -t^2, zero at t=0

    def test_empty(self, lat1):
        res = wall_scan(
            lat1,
            AffinePath.constant([0]),
            AffinePath([0], [1]),
            F(1, 2),
            F(2),
            DeltaBox.cube(0),
        )
        assert res.walls == ()

    def test_irrational_wall_parameter(self, lat2c):
        # B_t = t e2, omega_t = e1 + t e2: for delta = (1, (-1,1), 1) the
        # imaginary part is 2(t^2 - t - 1), vanishing at the golden ratio,
        # where Re Z = -2t < 0: an exact irrational wall parameter.
        res = wall_scan(
            lat2c,
            AffinePath([0, 0], [0, 1]),
            AffinePath([1, 0], [0, 1]),
            F(0),
            F(2),
            DeltaBox.cube(2),
        )
        golden = Quad(F(1, 2), F(1, 2), 5)
        hits = [w for w in res.walls if isinstance(w.t, Quad) and w.t == golden]
        assert hits and hits[0].witness == MukaiVector(1, (-1, 1), 1)

    def test_sorted_and_deduplicated(self, lat1):
        res = wall_scan(
            lat1,
            AffinePath.constant([0]),
            AffinePath([0], [1]),
            F(1, 10),
            F(3),
            DeltaBox.cube(3),
        )
        for a, b in zip(res.walls, res.walls[1:]):
            assert a.t <= b.t
        keys = [(repr(w.t), w.kind, w.witness.coords()) for w in res.walls]
        assert len(keys) == len(set(keys))

    def test_subinterval_union_invariance(self, lat1):
        # no sampling grid: splitting the parameter interval cannot
        # change the wall set
        whole = wall_scan(
            lat1, AffinePath.constant([0]), AffinePath([0], [1]),
            F(1, 10), F(3), DeltaBox.cube(3),
        )
        left = wall_scan(
            lat1, AffinePath.constant([0]), AffinePath([0], [1]),
            F(1, 10), F(1), DeltaBox.cube(3),
        )
        right = wall_scan(
            lat1, AffinePath.constant([0]), AffinePath([0], [1]),
            F(1), F(3), DeltaBox.cube(3),
        )
        def keys(res):
            return {(repr(w.t), w.kind, w.witness.coords()) for w in res.walls}
        assert keys(whole) == keys(left) | keys(right)

    def test_quadratic_im_constraint(self, lat1):
        # both B and omega move: B_t = t*h, omega_t = h + t*h makes
        # Im Z_t(delta) genuinely quadratic for rank-2 classes
        res = wall_scan(
            lat1,
            AffinePath([0], [1]),
            AffinePath([1], [1]),
            F(0),
            F(3),
            DeltaBox.cube(3),
        )
        for w in res.walls:
            # recompute the wall condition exactly at the reported t
            zc_B = tuple(0 + w.t * 1 for _ in (0,))
            zc_w = tuple(1 + w.t * 1 for _ in (0,))
            lat = lat1
            if w.kind == "A":
                im = lat.ns_dot(zc_w, w.witness.l) - w.witness.r * lat.ns_dot(zc_B, zc_w)
                val = im if not isinstance(im, Quad) else im
                assert (val.sign() if isinstance(val, Quad) else (val > 0) - (val < 0)) == 0
