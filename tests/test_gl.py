import random
from fractions import Fraction

import pytest

from stabkit.curve import CurveCharge
from stabkit.exact import ExactnessError, PhaseValue, RatComplex
from stabkit.gl import (
    GLTildeElement,
    act_on_charge,
    act_on_heart_stability,
    aut_act,
    commute_check,
    compose,
    f_eval,
    inverse,
)
from stabkit.heart import HeartCharge, is_semistable
from stabkit.lattice import (
    InputError,
    MukaiVector,
    NSLattice,
    basis_vectors,
    exp_class,
    matrix_to_images,
    reflection_matrix,
    exp_action_matrix,
)
from stabkit.quiver import Quiver, enumerate_reps

F = Fraction


@pytest.fixture
def lat1():
    return NSLattice([[2]], [1])


def random_element(rng) -> GLTildeElement:
    while True:
        m = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det > 0:
            return GLTildeElement(m=m)


class TestConstruction:
    def test_identity(self):
        g = GLTildeElement.identity()
        assert g.m == ((1, 0), (0, 1))
        assert g.f0 == F(0)

    def test_rejects_negative_det(self):
        with pytest.raises(InputError):
            GLTildeElement(m=((0, 1), (1, 0)))

    def test_anchor_mod_two(self):
        GLTildeElement(m=((1, 0), (0, 1)), f0=F(2))  # central lift, fine
        with pytest.raises(InputError):
            GLTildeElement(m=((1, 0), (0, 1)), f0=F(1))

    def test_half_integer_rotation_is_matrix(self):
        g = GLTildeElement.rotation(F(1, 2))
        assert g.m == ((0, 1), (-1, 0))
        assert g.f0 == F(-1, 2)

    def test_rotation_json_pins(self):
        # to_json_dict() of rotation(k/8), k in -16..16, recorded before
        # rotation() left its half-integer case to __init__
        quarter_turns = {
            -16: ([["1", "0"], ["0", "1"]], "2"),
            -12: ([["0", "1"], ["-1", "0"]], "3/2"),
            -8: ([["-1", "0"], ["0", "-1"]], "1"),
            -4: ([["0", "-1"], ["1", "0"]], "1/2"),
            0: ([["1", "0"], ["0", "1"]], "0"),
            4: ([["0", "1"], ["-1", "0"]], "-1/2"),
            8: ([["-1", "0"], ["0", "-1"]], "-1"),
            12: ([["0", "-1"], ["1", "0"]], "-3/2"),
            16: ([["1", "0"], ["0", "1"]], "-2"),
        }
        symbolic = {
            -15: "-15/8", -14: "-7/4", -13: "-13/8", -11: "-11/8", -10: "-5/4",
            -9: "-9/8", -7: "-7/8", -6: "-3/4", -5: "-5/8", -3: "-3/8",
            -2: "-1/4", -1: "-1/8", 1: "1/8", 2: "1/4", 3: "3/8", 5: "5/8",
            6: "3/4", 7: "7/8", 9: "9/8", 10: "5/4", 11: "11/8", 13: "13/8",
            14: "7/4", 15: "15/8",
        }
        for k in range(-16, 17):
            got = GLTildeElement.rotation(F(k, 8)).to_json_dict()
            if k in quarter_turns:
                m, f0 = quarter_turns[k]
                assert got == {"M": m, "f0": f0}, k
            else:
                assert got == {"rot": symbolic[k]}, k

    def test_irrational_rotation_symbolic(self):
        g = GLTildeElement.rotation(F(1, 8))
        assert g.rot is not None
        assert g.f0 == F(-1, 8)

    def test_json_roundtrip(self):
        for g in (
            GLTildeElement.identity(),
            GLTildeElement.rotation(F(1, 8)),
            GLTildeElement(m=((2, 1), (1, 1)), f0=None),
            GLTildeElement.central_shift(4),
        ):
            h = GLTildeElement.from_json_dict(g.to_json_dict())
            assert h.m == g.m and h.rot == g.rot and h.f0 == g.f0


class TestFEval:
    def test_identity_is_identity(self):
        g = GLTildeElement.identity()
        for q in (F(0), F(1, 2), F(3, 2), F(-5, 2)):
            assert f_eval(g, q) == q

    def test_central_shift(self):
        g = GLTildeElement.central_shift(2)
        assert f_eval(g, F(1, 2)) == F(5, 2)
        assert f_eval(g, F(-3)) == F(-1)

    def test_quarter_rotation(self):
        g = GLTildeElement.rotation(F(1, 2))  # f(phi) = phi - 1/2
        for q in (F(0), F(1, 2), F(1), F(7, 2)):
            assert f_eval(g, q) == q - F(1, 2)

    def test_direction_phase_input(self):
        g = GLTildeElement(m=((2, 0), (0, 1)))  # squeeze, f0 = 0
        phi = PhaseValue.of_upper(RatComplex(1, 1))  # 1/4
        out = f_eval(g, phi)
        # M(1,1)/sqrt -> direction (2,1): arg smaller than pi/4
        assert (out - phi).sign() < 0
        assert f_eval(g, phi + 1) == out + 1

    def test_quarter_offset_matches_direction_form(self):
        # phi = 1/4 can arrive as a pure rational or as arg(1+i)/pi; both
        # must evaluate identically
        rng = random.Random(21)
        for _ in range(20):
            g = random_element(rng)
            a = f_eval(g, F(1, 4))
            b = f_eval(g, PhaseValue.of_upper(RatComplex(1, 1)))
            assert a == b
            assert f_eval(g, F(-1, 4)) == f_eval(g, PhaseValue.of_upper(RatComplex(-1, 1)) - 1)

    def test_increasing_and_periodic(self):
        rng = random.Random(4)
        for _ in range(50):
            g = random_element(rng)
            points = sorted({F(rng.randint(-16, 16), 4) for _ in range(6)})
            values = [f_eval(g, q) for q in points]
            for (a, va), (b, vb) in zip(
                zip(points, values), zip(points[1:], values[1:])
            ):
                assert (vb - va).sign() > 0
            for q in points:
                assert f_eval(g, q + 1) == f_eval(g, q) + 1


class TestCompose:
    def test_inverse_gives_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_element(rng)
            e = compose(g, inverse(g))
            assert e.m == ((1, 0), (0, 1))
            assert e.f0 == F(0)

    def test_center_adds(self):
        a = compose(GLTildeElement.central_shift(2), GLTildeElement.central_shift(-4))
        assert a.m == ((1, 0), (0, 1))
        assert a.f0 == F(-2)

    def test_two_quarter_rotations(self):
        q = GLTildeElement.rotation(F(1, 2))  # rotation by -pi/2 downstairs
        h = compose(q, q)
        assert h.m == ((-1, 0), (0, -1))
        assert h.f0 == F(-1)  # the lift of -id with f = phi - 1

    def test_associative(self):
        rng = random.Random(11)
        for _ in range(30):
            g1, g2, g3 = (random_element(rng) for _ in range(3))
            a = compose(compose(g1, g2), g3)
            b = compose(g1, compose(g2, g3))
            assert a.m == b.m and a.f0 == b.f0

    def test_rotations_add(self):
        a = compose(GLTildeElement.rotation(F(1, 8)), GLTildeElement.rotation(F(1, 8)))
        assert a.rot == F(1, 4)

    def test_mixed_composition_guarded(self):
        with pytest.raises(ExactnessError):
            compose(GLTildeElement.rotation(F(1, 8)), GLTildeElement.identity())


class TestActOnCharge:
    def test_identity(self, lat1):
        om = exp_class([0], [1], lat1)
        assert act_on_charge(GLTildeElement.identity(), om) == om

    def test_scaling_halves(self):
        zc = CurveCharge.standard()
        g = GLTildeElement(m=((2, 0), (0, 2)))
        out = act_on_charge(g, zc)
        assert out.m == ((0, F(-1, 2)), (F(1, 2), 0))

    def test_quarter_rotation_is_multiplication_by_i(self, lat1):
        om = exp_class([0], [1], lat1)
        g = GLTildeElement.rotation(F(1, 2))  # M clockwise, M^{-1} = mult by i
        out = act_on_charge(g, om)
        assert out.re == -om.im
        assert out.im == om.re

    def test_irrational_rotation_rejected(self, lat1):
        om = exp_class([0], [1], lat1)
        with pytest.raises(ExactnessError):
            act_on_charge(GLTildeElement.rotation(F(1, 8)), om)


class TestActOnHeart:
    @pytest.fixture
    def a2(self):
        return Quiver.a_n(2, p=2)

    @pytest.fixture
    def zc(self):
        return HeartCharge([RatComplex(-1, 1), RatComplex(1, 1)])

    def test_central_shift_moves_labels_only(self, a2, zc):
        res = act_on_heart_stability(GLTildeElement.central_shift(2), zc)
        assert res.phase_shift == -2
        assert res.charge.z == zc.z
        assert res.charge.phase((1, 1)) == zc.phase((1, 1)) - 2
        res_inv = act_on_heart_stability(GLTildeElement.central_shift(-2), zc)
        assert res_inv.charge.phase((1, 1)) == zc.phase((1, 1)) + 2

    def test_small_rotation_shifts_phases(self, a2, zc):
        eps = F(1, 8)
        res = act_on_heart_stability(GLTildeElement.rotation(eps), zc)
        assert res.phase_shift == eps
        for E in enumerate_reps(a2, (2, 2)):
            v_old = is_semistable(E, zc, a2)
            v_new = is_semistable(E, res.charge, a2)
            assert v_old.status == v_new.status
            if v_old.is_semistable():
                assert v_new.phase == v_old.phase + eps

    def test_half_turn_gives_shifted_heart(self, a2, zc):
        g = GLTildeElement.rotation(F(1))  # lift of -id
        res = act_on_heart_stability(g, zc)
        assert res.phase_shift == 1
        assert res.charge.phase((1, 0)) == zc.phase((1, 0)) + 1

    def test_matrix_can_tilt_out(self, a2, zc):
        # shear sending the S2 value 1+i into the lower half plane
        g = GLTildeElement(m=((1, 0), (2, 1)))
        res = act_on_heart_stability(g, zc)
        assert res.charge is None
        assert "tilted heart" in res.note

    def test_matrix_preserving_heart(self, a2, zc):
        g = GLTildeElement(m=((1, 0), (0, 2)))  # squeeze Im, keeps H-bar
        res = act_on_heart_stability(g, zc)
        assert res.charge is not None
        for E in enumerate_reps(a2, (2, 2)):
            assert (
                is_semistable(E, zc, a2).status
                == is_semistable(E, res.charge, a2).status
            )


class TestAutAction:
    def test_identity(self, lat1):
        om = exp_class([0], [1], lat1)
        assert aut_act(basis_vectors(lat1), om, lat1) == om

    def test_reflection_involution(self, lat1):
        om = exp_class([F(1, 3)], [2], lat1)
        d = MukaiVector(1, (0,), 1)
        images = matrix_to_images(reflection_matrix(d, lat1), lat1)
        once = aut_act(images, om, lat1)
        twice = aut_act(images, once, lat1)
        assert twice == om

    def test_tensor_translates_exp(self, lat1):
        om = exp_class([0], [1], lat1)
        images = matrix_to_images(exp_action_matrix([1], lat1), lat1)
        out = aut_act(images, om, lat1)
        assert out == exp_class([1], [1], lat1)

    def test_non_isometry_rejected(self, lat1):
        om = exp_class([0], [1], lat1)
        doubled = [e.scale(2) for e in basis_vectors(lat1)]
        with pytest.raises(InputError):
            aut_act(doubled, om, lat1)


class TestCommute:
    def test_identity_commutes(self, lat1):
        om = exp_class([0], [1], lat1)
        assert commute_check(basis_vectors(lat1), GLTildeElement.identity(), om, lat1)

    def test_reflection_with_quarter_rotation(self, lat1):
        om = exp_class([0], [1], lat1)
        d = MukaiVector(1, (0,), 1)
        images = matrix_to_images(reflection_matrix(d, lat1), lat1)
        g = GLTildeElement.rotation(F(1, 2))
        assert commute_check(images, g, om, lat1)

    def test_random_sweep(self, lat1):
        rng = random.Random(13)
        d = MukaiVector(1, (0,), 1)
        cases = [
            basis_vectors(lat1),
            matrix_to_images(reflection_matrix(d, lat1), lat1),
            matrix_to_images(exp_action_matrix([1], lat1), lat1),
            [-e for e in basis_vectors(lat1)],
        ]
        for _ in range(100):
            g = random_element(rng)
            images = rng.choice(cases)
            om = exp_class(
                [F(rng.randint(-3, 3), rng.randint(1, 2))],
                [F(rng.randint(1, 5), rng.randint(1, 2))],
                lat1,
            )
            assert commute_check(images, g, om, lat1)
