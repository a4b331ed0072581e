"""Exact counting identities over F_p that share no code with the routes
they check.

- Orbit-stabilizer: the isomorphism class of E is an orbit of
  G = prod_v GL(d_v, F_p), and its stabilizer is Aut E, the invertible
  elements of End E.  So |class| * |Aut E| = |G| for every class that
  ``quiver.iso_classes`` finds, with |Aut E| counted over the span of
  the ``hom_space(E, E)`` basis.  The orbit search and the elimination
  behind ``hom_space`` share no code, so the identity checks both.  And
  each member of a class has an isomorphism from its first member in the
  span of the ``hom_space`` basis; on A3 over F_3 that needs the move at
  the middle vertex to act on both of its arrows as one base change.
- Stable Kronecker reps from closed points of P^1: Beilinson's
  equivalence sends O(n), O(-n)[1] and the structure sheaves of closed
  points to the stable reps, so in the chamber where the source simple
  has the higher phase the stable reps of dims (a, b) number
  |GL_a| |GL_b| / (p - 1) when |a - b| = 1, N_k(p) |GL_k|^2 / (p^k - 1)
  when a = b = k (N_k closed points of degree k, whose endomorphisms form
  F_{p^k}), and 0 otherwise.  In the other chamber only the two simples
  are stable.

The GL orders, closed-point counts, determinants and the chamber test
are computed here, from their formulas.
"""

import itertools
import random
from fractions import Fraction

import pytest

from stabkit.exact import RatComplex
from stabkit.heart import HeartCharge, is_semistable
from stabkit.lattice import InputError
from stabkit.quiver import Quiver, enumerate_reps, hom_space, iso_classes


def _gl_order(d: int, p: int) -> int:
    order = 1
    for k in range(d):
        order *= p**d - p**k
    return order


def _det(m, p: int) -> int:
    """The determinant mod p, by the Leibniz formula."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total % p


def _isos(E, F, Q):
    """The F_p-combinations of a basis of Hom(E, F) that are invertible at
    every vertex (E and F have one dimension vector), one by one."""
    _, basis = hom_space(E, F, Q)
    for coeffs in itertools.product(range(Q.p), repeat=len(basis)):
        maps = [
            [[sum(c * phi[v][i][j] for c, phi in zip(coeffs, basis)) % Q.p for j in range(d)]
             for i in range(d)]
            for v, d in enumerate(E.dims)
        ]
        if all(_det(m, Q.p) for m in maps):
            yield maps


@pytest.mark.parametrize(
    "Q, box, classes",
    [
        (Quiver.a_n(3, p=2), (2, 2, 2), 73),
        (Quiver.kronecker(2, p=2), (2, 3), 60),
        (Quiver.kronecker(2, p=3), (2, 2), 45),
    ],
    ids=["a3 F_2 <= (2,2,2)", "kronecker F_2 <= (2,3)", "kronecker F_3 <= (2,2)"],
)
def test_orbit_times_stabilizer_is_the_group_order(Q, box, classes):
    reps = list(enumerate_reps(Q, box))
    found = iso_classes(reps, Q)
    assert len(found) == classes
    assert sorted(i for members in found for i in members) == list(range(len(reps)))
    assert [members[0] for members in found] == sorted(members[0] for members in found)
    for members in found:
        E = reps[members[0]]
        assert all(reps[i].dims == E.dims for i in members)
        group = 1
        for d in E.dims:
            group *= _gl_order(d, Q.p)
        assert len(members) * sum(1 for _ in _isos(E, E, Q)) == group, E


def test_a_list_without_the_whole_orbit_is_refused():
    # the nonzero column vectors of F_2^2 form one orbit of three reps
    Q = Quiver.a_n(2, p=2)
    reps = [E for E in enumerate_reps(Q, (1, 2)) if E.dims == (1, 2) and E.mats != (((0,), (0,)),)]
    assert iso_classes(reps, Q) == [[0, 1, 2]]
    with pytest.raises(InputError, match="orbit"):
        iso_classes(reps[1:], Q)


@pytest.mark.parametrize(
    "Q, box",
    [(Quiver.kronecker(2, p=3), (2, 2)), (Quiver.a_n(3, p=3), (1, 3, 1))],
    ids=["kronecker F_3 <= (2,2)", "a3 F_3 <= (1,3,1)"],
)
def test_members_are_isomorphic_to_the_first(Q, box):
    # every fifth member after the first, and the last
    reps = list(enumerate_reps(Q, box))
    for first, *rest in iso_classes(reps, Q):
        for i in rest[::5] + rest[-1:]:
            assert next(_isos(reps[first], reps[i], Q), None), (reps[first], reps[i])


def _mobius(n: int) -> int:
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    return -result if n > 1 else result


def _closed_points(k: int, p: int) -> int:
    """The closed points of degree k on P^1 over F_p."""
    if k == 1:
        return p + 1
    return sum(_mobius(k // e) * p**e for e in range(1, k + 1) if k % e == 0) // k


def _stable_count(a: int, b: int, p: int) -> int:
    """The stable Kronecker reps of dims (a, b) when the source simple has
    the higher phase."""
    if abs(a - b) == 1:
        return _gl_order(a, p) * _gl_order(b, p) // (p - 1)
    if a == b:
        return _closed_points(a, p) * _gl_order(a, p) ** 2 // (p**a - 1)
    return 0


def _kronecker_charges(seed: int) -> list:
    """The charge of configs/kronecker.json and seeded charges on both
    sides of the wall where z_0 and z_1 have one phase, each with the
    sign of the cross product x_0 y_1 - y_0 x_1 of its values, negative
    where the source simple has the higher phase."""
    rng = random.Random(seed)
    values = [(x, y) for x in range(-3, 4) for y in range(4) if y > 0 or x < 0]
    charges = [((-1, 2), (2, 1))]
    while len(charges) < 5:
        z = tuple(rng.choice(values) for _ in range(2))
        if z[0][0] * z[1][1] - z[0][1] * z[1][0] != 0:
            charges.append(z)
    out = []
    for z0, z1 in charges:
        zc = HeartCharge([RatComplex(Fraction(x), Fraction(y)) for x, y in (z0, z1)])
        out.append((zc, z0[0] * z1[1] - z0[1] * z1[0]))
    return out


@pytest.mark.parametrize("p, box", [(2, (2, 3)), (3, (2, 2))], ids=["F_2 <= (2,3)", "F_3 <= (2,2)"])
def test_stable_kronecker_reps_are_counted_by_p1(p, box):
    Q = Quiver.kronecker(2, p=p)
    charges = _kronecker_charges(p)
    assert {cross < 0 for _, cross in charges} == {True, False}
    counts = {}  # (dims, charge index) -> stable reps
    for E in enumerate_reps(Q, box):
        for k, (zc, _) in enumerate(charges):
            if is_semistable(E, zc, Q).status == "stable":
                counts[E.dims, k] = counts.get((E.dims, k), 0) + 1
    for a, b in itertools.product(range(box[0] + 1), range(box[1] + 1)):
        if not a + b:
            continue
        for k, (_, cross) in enumerate(charges):
            if cross < 0:
                expected = _stable_count(a, b, p)
            else:
                expected = int(a + b == 1)
            assert counts.get(((a, b), k), 0) == expected, ((a, b), k)
