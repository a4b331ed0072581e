import itertools

import pytest

from stabkit import quiver
from stabkit.lattice import InputError, InvariantError
from stabkit.quiver import (
    Quiver,
    QuiverRep,
    ResourceBound,
    SubobjectLattice,
    _coordinates,
    _extend_basis,
    _hom_combinations,
    count_reps,
    enumerate_matrices,
    enumerate_reps,
    ext1_dim,
    euler_pairing,
    hom_space,
    subspaces_of,
)


@pytest.fixture
def a2():
    return Quiver.a_n(2, p=2)


@pytest.fixture
def S1(a2):
    return QuiverRep.simple(a2, 0)


@pytest.fixture
def S2(a2):
    return QuiverRep.simple(a2, 1)


@pytest.fixture
def P(a2):
    # the indecomposable (k -> k, identity): extension of S1 by S2
    return QuiverRep((1, 1), (((1,),),), a2)


class TestQuiverValidation:
    def test_acyclic_required(self):
        with pytest.raises(InputError):
            Quiver(2, [(0, 1), (1, 0)], 2)

    def test_prime_required(self):
        with pytest.raises(InputError):
            Quiver(1, [], 4)

    def test_kronecker(self):
        Q = Quiver.kronecker(2, 2)
        assert Q.arrows == ((0, 1), (0, 1))

    def test_rep_shape_checked(self, a2):
        with pytest.raises(InputError):
            QuiverRep((1, 1), (((1, 1),),), a2)  # 1x2 instead of 1x1


class TestSubspaces:
    def test_counts_f2(self):
        assert len(subspaces_of(0, 2)) == 1
        assert len(subspaces_of(1, 2)) == 2
        assert len(subspaces_of(2, 2)) == 5
        assert len(subspaces_of(3, 2)) == 16

    def test_counts_f3(self):
        assert len(subspaces_of(2, 3)) == 6
        assert len(subspaces_of(3, 3)) == 28

    def test_basis_dims(self):
        for sp in subspaces_of(3, 2):
            assert len(sp.basis) == sp.dim
            assert len(sp.elems) == 2**sp.dim


class TestHomSpace:
    def test_simples_no_maps(self, a2, S1, S2):
        assert hom_space(S2, S1, a2)[0] == 0
        assert hom_space(S1, S2, a2)[0] == 0

    def test_identity_exists(self, a2, S1, P):
        for E in (S1, P):
            assert hom_space(E, E, a2)[0] >= 1

    def test_projection_to_top(self, a2, P, S1):
        # P has top S1 (quotient by the subobject at the sink)
        assert hom_space(P, S1, a2)[0] == 1

    def test_no_retraction_to_socle(self, a2, P, S2):
        # the extension 0 -> S2 -> P -> S1 -> 0 does not split
        assert hom_space(P, S2, a2)[0] == 0

    def test_socle_inclusion(self, a2, P, S2):
        assert hom_space(S2, P, a2)[0] == 1

    def test_end_of_indecomposable(self, a2, P):
        assert hom_space(P, P, a2)[0] == 1

    def test_combinations_walk_the_nonzero_span(self, a2, S1):
        # End(S1 + S1) is every 2x2 matrix at vertex 0
        SS = S1.direct_sum(S1, a2)
        _, basis = hom_space(SS, SS, a2)
        maps = list(_hom_combinations(basis, a2.p))
        assert len(maps) == len(set(maps)) == 2**4 - 1
        zero = ((0, 0), (0, 0))
        assert set(maps) == {
            (m, ()) for m in enumerate_matrices(2, 2, 2) if m != zero
        }


class TestEulerForm:
    def test_known_values(self, a2):
        assert euler_pairing((1, 0), (0, 1), a2) == -1
        assert euler_pairing((3, 2), (0, 0), a2) == 0
        assert euler_pairing((1, 1), (1, 1), a2) == 1

    def test_ext1_of_simples(self, a2, S1, S2):
        assert ext1_dim(S1, S2, a2) == 1  # the extension P exists
        assert ext1_dim(S2, S1, a2) == 0

    def test_hom_minus_ext_is_euler_exhaustive(self, a2):
        reps = list(enumerate_reps(a2, (2, 2)))
        for E in reps:
            for F in reps:
                lhs = hom_space(E, F, a2)[0] - ext1_dim(E, F, a2)
                assert lhs == euler_pairing(E.dims, F.dims, a2)

    def test_reps_of_another_quiver_rejected(self, a2):
        a3 = Quiver.a_n(3, p=2)
        wrong = (QuiverRep.simple(a3, 0), QuiverRep.simple(a3, 1))
        short = (QuiverRep((1,), ()), QuiverRep((1,), ()))
        for E, F in (wrong, short):
            for fn in (ext1_dim, hom_space):
                with pytest.raises(InputError):
                    fn(E, F, a2)

    def test_hom_minus_ext_is_euler_kronecker(self):
        Q = Quiver.kronecker(2, 2)
        reps = list(enumerate_reps(Q, (1, 1)))
        for E in reps:
            for F in reps:
                lhs = hom_space(E, F, Q)[0] - ext1_dim(E, F, Q)
                assert lhs == euler_pairing(E.dims, F.dims, Q)


class TestSubobjects:
    def test_simple(self, a2, S1):
        lat = SubobjectLattice(S1, a2)
        assert [e.dims for e in lat.entries] == [(0, 0), (1, 0)]

    def test_indecomposable(self, a2, P):
        lat = SubobjectLattice(P, a2)
        assert [e.dims for e in lat.entries] == [(0, 0), (0, 1), (1, 1)]

    def test_square_of_simple(self, a2, S1):
        E = S1.direct_sum(S1, a2)
        lat = SubobjectLattice(E, a2)
        # 0, three lines in F_2^2, and E
        assert len(lat.entries) == 5

    def test_resource_bound(self, a2):
        big = QuiverRep((5, 5), ((tuple((0,) * 5 for _ in range(5)),)), a2)
        with pytest.raises(ResourceBound):
            SubobjectLattice(big, a2)

    def test_sub_and_quotient_reps(self, a2, P):
        lat = SubobjectLattice(P, a2)
        mid = next(i for i, e in enumerate(lat.entries) if e.dims == (0, 1))
        sub = lat.sub_rep(mid)
        quo = lat.quotient_rep(mid)
        assert sub.dims == (0, 1)
        assert quo.dims == (1, 0)

    def test_containment(self, a2, P):
        lat = SubobjectLattice(P, a2)
        assert lat.above[lat.bottom] >> lat.top & 1
        mid = next(i for i, e in enumerate(lat.entries) if e.dims == (0, 1))
        assert lat.above[lat.bottom] >> mid & 1 and lat.above[mid] >> lat.top & 1
        assert not lat.above[lat.top] >> mid & 1


def _span(basis, d, p):
    return frozenset(
        tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) % p for i in range(d))
        for coeffs in itertools.product(range(p), repeat=len(basis))
    )


def _entry_spans(lat):
    """Each entry's element sets, spanned by brute force from its bases."""
    return [
        tuple(_span(b, d, lat.Q.p) for b, d in zip(lat.basis_of(i), lat.E.dims))
        for i in range(len(lat))
    ]


def _reference_order(lat):
    """Strict containment masks from pairwise inclusion of the entries'
    element sets."""
    elems = _entry_spans(lat)
    n = len(elems)
    above, below = [0] * n, [0] * n
    for i, j in itertools.permutations(range(n), 2):
        if all(a <= b for a, b in zip(elems[i], elems[j])):
            above[i] |= 1 << j
            below[j] |= 1 << i
    return above, below


def _closed_tuples(E, Q):
    """The element sets of every tuple of subspaces that each arrow maps
    into its target's, testing every element of the source."""
    p = Q.p
    closed = set()
    for choice in itertools.product(*[subspaces_of(d, p) for d in E.dims]):
        if all(
            tuple(sum(x * y for x, y in zip(row, v)) % p for row in m) in choice[b].elems
            for m, (a, b) in zip(E.mats, Q.arrows)
            for v in choice[a].elems
        ):
            closed.add(tuple(sp.elems for sp in choice))
    return closed


def _zero_map_rep(Q, dims):
    mats = tuple(tuple((0,) * dims[a] for _ in range(dims[b])) for a, b in Q.arrows)
    return QuiverRep(dims, mats, Q)


class TestContainmentMasks:
    @pytest.mark.parametrize(
        "Q, max_dims",
        [
            (Quiver.a_n(2, p=2), (2, 2)),
            (Quiver.a_n(3, p=2), (1, 2, 1)),
            (Quiver.kronecker(2, 2), (2, 2)),
            (Quiver.a_n(2, p=3), (2, 2)),
            (Quiver.kronecker(2, 3), (1, 2)),
            (Quiver(3, [(1, 0), (1, 2)], 2), (2, 2, 1)),
        ],
        ids=["A2", "A3", "K2", "A2-F3", "K2-F3", "A3-middle-source"],
    )
    def test_every_rep_matches_pairwise_reference(self, Q, max_dims):
        for E in enumerate_reps(Q, max_dims):
            lat = SubobjectLattice(E, Q)
            keys = [(e.total, e.dims, e.space_idx) for e in lat.entries]
            assert keys == sorted(keys)
            assert all(e.total == sum(e.dims) for e in lat.entries)
            assert (lat.above, lat.below) == _reference_order(lat)
            spans = set(_entry_spans(lat))
            assert len(spans) == len(lat) and spans == _closed_tuples(E, Q)

    def test_zero_map_kronecker_reps(self):
        Q = Quiver.kronecker(2, 2)
        for dims in itertools.product(range(4), repeat=2):
            lat = SubobjectLattice(_zero_map_rep(Q, dims), Q)
            assert (lat.above, lat.below) == _reference_order(lat)
        assert len(lat) == 16 * 16  # every pair of subspaces of F_2^3


class TestEnumeration:
    def test_counts(self, a2):
        assert count_reps((1, 1), a2) == 2
        assert count_reps((2, 2), a2) == 16
        n = sum(1 for _ in enumerate_reps(a2, (1, 1)))
        assert n == 2 + 1 + 1  # dims (1,1) twice, (1,0), (0,1)

    def test_zero_excluded_by_default(self, a2):
        assert all(not E.is_zero() for E in enumerate_reps(a2, (1, 1)))

    def test_box_past_the_total_bound_raises(self):
        # (3, 3, 3) has total dimension 9 > 8; no rep of the box is dropped
        Q = Quiver(3, [], 2)
        assert sum(1 for _ in enumerate_reps(Q, (2, 3, 3))) == 47
        with pytest.raises(ResourceBound):
            enumerate_reps(Q, (3, 3, 3))


class TestCoordinates:
    @pytest.mark.parametrize("basis", [(), ((1, 0),)], ids=["empty", "line"])
    def test_vector_outside_the_span_raises(self, basis):
        with pytest.raises(InvariantError):
            _coordinates(basis, [(0, 1)], 2)


class TestOneElimination:
    """Each change of basis is one elimination: basis completion makes one
    _echelon call, and a sub or quotient rep at most one per arrow (the
    completions are stored on the subspaces)."""

    @pytest.fixture
    def echelons(self, monkeypatch):
        calls = []
        echelon = quiver._echelon

        def counting(rows, cols, p):
            calls.append(cols)
            return echelon(rows, cols, p)

        monkeypatch.setattr(quiver, "_echelon", counting)
        return calls

    @pytest.mark.parametrize("p,d", [(2, 4), (3, 3), (5, 2)])
    def test_extend_basis_eliminates_once(self, p, d, echelons):
        for sp in subspaces_of(d, p):
            echelons.clear()
            assert len(_extend_basis(sp.basis, d, p)) == d - sp.dim
            assert len(echelons) == 1

    @pytest.mark.parametrize(
        "Q,max_dims",
        [(Quiver.a_n(3), (2, 1, 2)), (Quiver.a_n(2, p=3), (2, 2)), (Quiver.kronecker(2), (2, 2))],
        ids=["A3", "A2-F3", "K2"],
    )
    def test_sub_and_quotient_reps_eliminate_once_per_arrow(self, Q, max_dims, echelons):
        for E in enumerate_reps(Q, max_dims):
            lat = SubobjectLattice(E, Q)
            for i in range(len(lat)):
                echelons.clear()
                lat.sub_rep(i)
                assert len(echelons) <= len(Q.arrows)
                echelons.clear()
                lat.quotient_rep(i)
                assert len(echelons) <= len(Q.arrows)
