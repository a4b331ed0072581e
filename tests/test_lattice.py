import itertools
import random
from fractions import Fraction

import pytest

from stabkit.lattice import (
    ComplexMukaiVector,
    DeltaBox,
    InputError,
    MukaiVector,
    NSLattice,
    discriminant_group,
    enumerate_delta,
    exp_class,
    exp_action_matrix,
    gamma_membership,
    is_mukai_isometry,
    mat_mul,
    matrix_to_images,
    mukai_pairing,
    mukai_square,
    orientation_component,
    p0_membership,
    perp_sublattice,
    point_class,
    positive_plane_check,
    reflection,
    reflection_matrix,
    smith_normal_form,
    symmetric_signature,
    tensor_line_bundle,
    basis_vectors,
)

F = Fraction


@pytest.fixture
def lat1():
    # NS = Z h with h^2 = 2
    return NSLattice([[2]], [1])


@pytest.fixture
def lat2():
    # rank 2, one declared (-2)-curve
    return NSLattice([[2, 0], [0, -2]], [1, 0], [[0, 1]])


@pytest.fixture
def lat3():
    return NSLattice([[4, 1], [1, -2]], [1, 0])


def brute_force_delta(lat, bounds):
    """Independent triple-loop oracle for the (-2)-class box enumeration."""
    found = []
    rng_l = range(-bounds.l_max, bounds.l_max + 1)
    for r in range(-bounds.r_max, bounds.r_max + 1):
        for l in itertools.product(rng_l, repeat=lat.rank):
            for s in range(-bounds.s_max, bounds.s_max + 1):
                v = MukaiVector(r, l, s)
                if mukai_square(v, lat) == -2:
                    found.append(v)
    return sorted(found, key=lambda v: v.coords())


def random_vec(lat, rng, bound=5):
    return MukaiVector(
        rng.randint(-bound, bound),
        tuple(rng.randint(-bound, bound) for _ in range(lat.rank)),
        rng.randint(-bound, bound),
    )


class TestLatticeValidation:
    def test_signature(self):
        assert symmetric_signature([[2]]) == (1, 0)
        assert symmetric_signature([[2, 0], [0, -2]]) == (1, 1)
        assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1)  # hyperbolic plane

    def test_rejects_bad_gram(self):
        with pytest.raises(InputError):
            NSLattice([[1]], [1])  # odd diagonal
        with pytest.raises(InputError):
            NSLattice([[-2]], [1])  # wrong signature
        with pytest.raises(InputError):
            NSLattice([[2, 1], [0, -2]], [1, 0])  # not symmetric

    def test_rejects_bad_ample_or_curve(self):
        with pytest.raises(InputError):
            NSLattice([[2]], [0])
        with pytest.raises(InputError):
            NSLattice([[2, 0], [0, -2]], [1, 0], [[1, 0]])  # square 2, not -2

    def test_json_roundtrip(self, lat2):
        again = NSLattice.from_json_dict(lat2.to_json_dict())
        assert again == lat2


class TestMukaiPairing:
    def test_known_values(self, lat1):
        v = MukaiVector(1, (0,), 1)
        assert mukai_pairing(v, v, lat1) == -2
        assert mukai_pairing(MukaiVector(0, (0,), 1), MukaiVector(1, (0,), 0), lat1) == -1
        h = MukaiVector(0, (1,), 0)
        assert mukai_pairing(h, h, lat1) == 2

    def test_bilinear_symmetric(self, lat2):
        rng = random.Random(7)
        for _ in range(1000):
            u, v, w = (random_vec(lat2, rng) for _ in range(3))
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            assert mukai_pairing(u, v, lat2) == mukai_pairing(v, u, lat2)
            lhs = mukai_pairing(u.scale(a) + v.scale(b), w, lat2)
            rhs = a * mukai_pairing(u, w, lat2) + b * mukai_pairing(v, w, lat2)
            assert lhs == rhs

    def test_dimension_mismatch(self, lat1, lat2):
        with pytest.raises(InputError):
            mukai_pairing(MukaiVector(0, (1, 0), 0), MukaiVector(0, (1, 0), 0), lat1)


class TestExpClass:
    def test_pure_omega(self, lat1):
        om = exp_class([0], [F(1)], lat1)
        assert om.re == MukaiVector(1, (0,), F(-1))
        assert om.im == MukaiVector(0, (F(1),), 0)

    def test_zero(self, lat1):
        om = exp_class([0], [0], lat1)
        assert om.re == MukaiVector(1, (0,), 0)
        assert om.im.is_zero() is False or om.im == MukaiVector(0, (0,), 0)

    def test_b_equals_omega(self, lat1):
        om = exp_class([1], [1], lat1)
        assert om.re == MukaiVector(1, (1,), 0)
        assert om.im == MukaiVector(0, (1,), 2)

    def test_scaled_omega(self, lat1):
        t = F(3, 2)
        om = exp_class([0], [t], lat1)
        assert om.re.s == -t * t
        assert om.im.l == (t,)


class TestEnumerateDelta:
    def test_unit_box(self, lat1):
        got = list(enumerate_delta(lat1, DeltaBox.cube(1)))
        expected = [MukaiVector(-1, (0,), -1), MukaiVector(1, (0,), 1)]
        assert got == expected

    def test_matches_brute_force(self, lat1, lat2, lat3):
        for lat, box in ((lat1, DeltaBox.cube(3)), (lat2, DeltaBox.cube(2)), (lat3, DeltaBox.cube(2))):
            fast = list(enumerate_delta(lat, box))
            slow = brute_force_delta(lat, box)
            assert fast == slow
            for d in fast:
                assert mukai_square(d, lat) == -2

    def test_empty_box(self, lat1):
        assert len(enumerate_delta(lat1, DeltaBox(0, 0, 0))) == 0

    def test_truncation_flag(self, lat1):
        assert enumerate_delta(lat1, DeltaBox.cube(1)).truncated


class TestPositivePlane:
    def test_exp_form_positive(self, lat1):
        om = exp_class([0], [1], lat1)
        assert positive_plane_check(om, lat1)

    def test_degenerate_im(self, lat1):
        om = ComplexMukaiVector(MukaiVector(1, (0,), 0), MukaiVector(0, (0,), 0))
        assert not positive_plane_check(om, lat1)

    def test_hyperbolic_pair(self, lat1):
        om = ComplexMukaiVector(MukaiVector(0, (0,), 1), MukaiVector(1, (0,), 0))
        assert not positive_plane_check(om, lat1)

    def test_positive_whenever_omega_positive(self, lat2):
        rng = random.Random(3)
        hits = 0
        for _ in range(300):
            B = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            w = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            if lat2.ns_dot(w, w) > 0:
                hits += 1
                assert positive_plane_check(exp_class(B, w, lat2), lat2)
        assert hits > 20


class TestOrientation:
    def test_exp_is_plus(self, lat1):
        for t in (F(1), F(2), F(1, 3)):
            om = exp_class([0], [t], lat1)
            assert orientation_component(om, lat1) == "plus"

    def test_conjugate_is_minus(self, lat1):
        om = exp_class([0], [1], lat1).conj()
        assert orientation_component(om, lat1) == "minus"

    def test_rotation_keeps_plus(self, lat1):
        om = exp_class([0], [1], lat1)
        rotated = ComplexMukaiVector(-om.im, om.re)  # multiply Omega by i
        assert orientation_component(rotated, lat1) == "plus"


class TestP0Membership:
    def test_inside(self, lat1):
        om = exp_class([0], [2], lat1)
        res = p0_membership(om, lat1, DeltaBox.cube(4))
        assert res.status == "inside"
        assert not res.truncated  # rho = 1 kernel is complete

    def test_outside_with_witness(self, lat1):
        om = exp_class([0], [1], lat1)
        res = p0_membership(om, lat1, DeltaBox.cube(4))
        assert res.status == "outside"
        w = res.witness
        assert {abs(w.r), abs(w.s)} == {1} and w.l == (0,)
        assert mukai_pairing(om.re, w, lat1) == 0
        assert mukai_pairing(om.im, w, lat1) == 0

    def test_not_plus(self, lat1):
        om = ComplexMukaiVector(exp_class([0], [1], lat1).re, MukaiVector(0, (0,), 0))
        assert p0_membership(om, lat1, DeltaBox.cube(2)).status == "not_plus"

    def test_perp_kernel_negative_definite(self, lat2):
        om = exp_class([0, 0], [2, 1], lat2)
        for g in perp_sublattice(om, lat2):
            v = MukaiVector.from_coords(g)
            assert mukai_square(v, lat2) < 0

    def test_rank_two_kernel_outside(self, lat2):
        # omega = e1 has square 2: both (1,0,0,1) and the curve class are
        # perpendicular to exp(i e1), and the kernel has rank 2, so the
        # box-scan branch must find a witness
        om = exp_class([0, 0], [1, 0], lat2)
        assert len(perp_sublattice(om, lat2)) == 2
        res = p0_membership(om, lat2, DeltaBox.cube(2))
        assert res.status == "outside"
        w = res.witness
        assert mukai_pairing(om.re, w, lat2) == 0
        assert mukai_pairing(om.im, w, lat2) == 0
        assert mukai_square(w, lat2) == -2

    def test_rank_two_kernel_inside_truncated(self, lat2):
        # omega = 2 e1 + e2: the perpendicular lattice carries the form
        # -6 r^2 - 6 m^2, which never takes the value -2
        om = exp_class([0, 0], [2, 1], lat2)
        res = p0_membership(om, lat2, DeltaBox.cube(3))
        assert res.status == "inside"
        assert res.truncated  # rank-2 kernels cannot certify completeness


class TestReflection:
    def test_known_values(self, lat1):
        d = MukaiVector(1, (0,), 1)
        assert reflection(d, d, lat1) == -d
        v = MukaiVector(0, (0,), 1)
        assert reflection(d, v, lat1) == MukaiVector(-1, (0,), 0)
        h = MukaiVector(0, (1,), 0)  # perpendicular to d
        assert reflection(d, h, lat1) == h

    def test_requires_minus_two(self, lat1):
        with pytest.raises(InputError):
            reflection(MukaiVector(0, (1,), 0), MukaiVector(1, (0,), 0), lat1)

    def test_involution_and_isometry(self, lat2):
        rng = random.Random(11)
        deltas = list(enumerate_delta(lat2, DeltaBox.cube(2)))
        for _ in range(1000):
            d = rng.choice(deltas)
            v, w = random_vec(lat2, rng), random_vec(lat2, rng)
            assert reflection(d, reflection(d, v, lat2), lat2) == v
            assert mukai_pairing(
                reflection(d, v, lat2), reflection(d, w, lat2), lat2
            ) == mukai_pairing(v, w, lat2)


class TestTensorLineBundle:
    def test_known_values(self, lat1):
        v = tensor_line_bundle([1], MukaiVector(1, (0,), 0), lat1)
        assert v == MukaiVector(1, (1,), 1)
        w = MukaiVector(2, (-1,), 3)
        assert tensor_line_bundle([0], w, lat1) == w
        pt = point_class(lat1)
        assert tensor_line_bundle([1], pt, lat1) == pt

    def test_preserves_pairing(self, lat2):
        rng = random.Random(13)
        for _ in range(500):
            B = tuple(rng.randint(-3, 3) for _ in range(2))
            v, w = random_vec(lat2, rng), random_vec(lat2, rng)
            assert mukai_pairing(
                tensor_line_bundle(B, v, lat2), tensor_line_bundle(B, w, lat2), lat2
            ) == mukai_pairing(v, w, lat2)

    def test_integrality(self, lat2):
        rng = random.Random(17)
        for _ in range(200):
            B = tuple(rng.randint(-3, 3) for _ in range(2))
            v = random_vec(lat2, rng)
            assert _is_integral(tensor_line_bundle(B, v, lat2))


def _is_integral(v) -> bool:
    """Every Mukai coordinate of v is an int or a Fraction with denominator 1."""
    return all(
        isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)
        for x in v.coords()
    )


class TestIsometry:
    def test_identity(self, lat1):
        assert is_mukai_isometry(basis_vectors(lat1), lat1)

    def test_reflection_is_isometry(self, lat1):
        d = MukaiVector(1, (0,), 1)
        images = matrix_to_images(reflection_matrix(d, lat1), lat1)
        assert is_mukai_isometry(images, lat1)

    def test_doubling_is_not(self, lat1):
        images = [e.scale(2) for e in basis_vectors(lat1)]
        assert not is_mukai_isometry(images, lat1)

    def test_exp_action_is_isometry(self, lat2):
        images = matrix_to_images(exp_action_matrix([1, 1], lat2), lat2)
        assert is_mukai_isometry(images, lat2)


class TestSmithAndDiscriminant:
    def test_snf_factorization(self):
        mats = [
            [[2, 0], [0, -2]],
            [[0, 1], [1, 0]],
            [[6, 4], [4, 2]],
            [[2, 1, 0], [1, -4, 2], [0, 2, 8]],
        ]
        for m in mats:
            u, d, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == d
            for i in range(len(d)):
                for j in range(len(d[0])):
                    if i != j:
                        assert d[i][j] == 0
            diag = [d[i][i] for i in range(len(d))]
            for a, b in zip(diag, diag[1:]):
                if a != 0:
                    assert b % a == 0

    def test_discriminant_of_h2(self, lat1):
        disc = discriminant_group(lat1)
        assert disc.invariants == (2,)

    def test_gamma_identity(self, lat1):
        assert gamma_membership(basis_vectors(lat1), lat1)

    def test_gamma_minus_id(self, lat1):
        images = [-e for e in basis_vectors(lat1)]
        assert gamma_membership(images, lat1)

    def test_gamma_reflection_hyperbolic_summand(self, lat1):
        d = MukaiVector(1, (0,), 1)
        images = matrix_to_images(reflection_matrix(d, lat1), lat1)
        assert gamma_membership(images, lat1)

    def test_gamma_oracle_inverse_gram(self, lat1, lat2):
        # independent route: trivial discriminant action iff (A - I) G^{-1}
        # is an integer matrix
        from stabkit.lattice import isometry_matrix, mat_inv

        for lat in (lat1, lat2):
            cases = [
                basis_vectors(lat),
                [-e for e in basis_vectors(lat)],
                matrix_to_images(
                    reflection_matrix(MukaiVector(1, (0,) * lat.rank, 1), lat), lat
                ),
                matrix_to_images(exp_action_matrix((1,) + (0,) * (lat.rank - 1), lat), lat),
            ]
            ginv = mat_inv(lat.mukai_gram())
            n = lat.mukai_rank
            for images in cases:
                a = isometry_matrix(images, lat)
                diff = [[a[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
                prod = mat_mul(diff, ginv)
                oracle = all(
                    Fraction(prod[i][j]).denominator == 1
                    for i in range(n)
                    for j in range(n)
                )
                assert gamma_membership(images, lat) == oracle

    def test_gamma_nontrivial_action(self):
        # NS = Z h with h^2 = 4: swapping nothing but negating h acts
        # nontrivially on the Z/4 discriminant summand? -id is always
        # trivial on (Z/4)* = {1,3}: -1 = 3 acts as -id... on Z/4 the
        # map x -> -x is NOT the identity (1 -> 3), so -id must fail.
        lat = NSLattice([[4]], [1])
        images = [-e for e in basis_vectors(lat)]
        assert not gamma_membership(images, lat)
