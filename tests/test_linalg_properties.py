"""Property tests of the F_p elimination's callers outside Hom and Ext^1,
against routes that share no code with it: invertibility against the
rational determinant, coordinates against recombination and brute-force
spans, and basis completion against brute-force spans in the order of
the vectors of F_p^d, first coordinate fastest."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabkit.lattice import InvariantError, mat_det  # noqa: E402
from stabkit.quiver import (  # noqa: E402
    _coordinates,
    _extend_basis,
    _vectors,
    mat_is_invertible,
)

PRIMES = [2, 3, 5]


def _span(vectors, d: int, p: int) -> set:
    return {
        tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) % p for i in range(d))
        for coeffs in itertools.product(range(p), repeat=len(vectors))
    }


def _code_order(d: int, p: int) -> list:
    return sorted(itertools.product(range(p), repeat=d), key=lambda v: v[::-1])


@st.composite
def square_matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, 4))
    row = st.lists(st.integers(-p, 2 * p - 1), min_size=n, max_size=n)
    return p, draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def independent_families(draw):
    """(p, d, basis): the drawn vectors that lie outside the span of the
    ones kept before them."""
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(0, 4))
    vector = st.tuples(*[st.integers(0, p - 1)] * d)
    basis = []
    for v in draw(st.lists(vector, max_size=d)):
        if v not in _span(basis, d, p):
            basis.append(v)
    return p, d, tuple(basis)


@st.composite
def coordinate_problems(draw):
    """(p, d, basis, targets): combinations of an independent family with
    drawn coefficients, and drawn vectors that may lie outside its span,
    in a drawn order."""
    p, d, basis = draw(independent_families())
    coeffs = st.lists(st.integers(0, p - 1), min_size=len(basis), max_size=len(basis))
    targets = [
        tuple(sum(c * v[i] for c, v in zip(cs, basis)) % p for i in range(d))
        for cs in draw(st.lists(coeffs, max_size=3))
    ]
    targets += draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * d), max_size=2))
    return p, d, basis, draw(st.permutations(targets))


@settings(max_examples=200)
@given(square_matrices())
def test_invertible_iff_the_determinant_is_a_unit(pm):
    p, M = pm
    assert mat_is_invertible(M, p) == (mat_det(M) % p != 0)


@settings(max_examples=200)
@given(independent_families())
def test_extend_basis_adds_the_first_vector_outside_the_span(pdb):
    p, d, basis = pdb
    order = _code_order(d, p)
    assert list(_vectors(d, p)) == order
    current = list(basis)
    for v in _extend_basis(basis, d, p):
        span = _span(current, d, p)
        assert v == next(w for w in order if w not in span)
        current.append(v)
    assert len(current) == d and len(_span(current, d, p)) == p**d


@settings(max_examples=200)
@given(coordinate_problems())
def test_coordinates_recombine_to_the_targets(problem):
    p, d, basis, targets = problem
    span = _span(basis, d, p)
    if any(t not in span for t in targets):
        with pytest.raises(InvariantError):
            _coordinates(basis, targets, p)
        return
    coords = _coordinates(basis, targets, p)
    assert len(coords) == len(targets)
    for c, t in zip(coords, targets):
        assert len(c) == len(basis) and all(0 <= x < p for x in c)
        assert tuple(sum(x * v[i] for x, v in zip(c, basis)) % p for i in range(d)) == t
