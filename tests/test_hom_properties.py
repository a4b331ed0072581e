"""Property test of ``hom_space`` against a brute-force count that shares
no code with the elimination: Hom(E, F) is the set of tuples (phi_v) of
matrices with phi_b E_a = F_a phi_a on every arrow a -> b, a vector space
over F_p, so its dimension is log_p of the number of such tuples."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabkit.quiver import Quiver, QuiverRep, hom_space  # noqa: E402

SHAPES = {"A2": (2, [(0, 1)]), "A3": (3, [(0, 1), (1, 2)]), "K2": (2, [(0, 1), (0, 1)])}
MAX_UNKNOWNS = 6


def _rep(draw, Q: Quiver, dims) -> QuiverRep:
    entry = st.integers(0, Q.p - 1)
    mats = [
        draw(st.lists(st.lists(entry, min_size=dims[a], max_size=dims[a]),
                      min_size=dims[b], max_size=dims[b]))
        for a, b in Q.arrows
    ]
    return QuiverRep(dims, mats, Q)


@st.composite
def rep_pairs(draw):
    n, arrows = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    Q = Quiver(n, arrows, draw(st.sampled_from([2, 3, 5])))
    vector = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    d, e = draw(
        st.tuples(vector, vector).filter(
            lambda de: sum(x * y for x, y in zip(*de)) <= MAX_UNKNOWNS
        )
    )
    return Q, _rep(draw, Q, d), _rep(draw, Q, e)


def _count_homs(E: QuiverRep, F: QuiverRep, Q: Quiver) -> int:
    """The number of tuples (phi_v), phi_v an F.dims[v] x E.dims[v] matrix,
    that make every square commute, by trying them all."""
    p = Q.p
    shapes = [(F.dims[v], E.dims[v]) for v in range(Q.n)]
    count = 0
    for flat in itertools.product(range(p), repeat=sum(r * c for r, c in shapes)):
        phi, pos = [], 0
        for r, c in shapes:
            phi.append([flat[pos + i * c : pos + (i + 1) * c] for i in range(r)])
            pos += r * c
        count += all(
            all(
                (sum(phi[b][i][k] * Ea[k][j] for k in range(E.dims[b]))
                 - sum(Fa[i][k] * phi[a][k][j] for k in range(F.dims[a]))) % p == 0
                for i in range(F.dims[b])
                for j in range(E.dims[a])
            )
            for (a, b), Ea, Fa in zip(Q.arrows, E.mats, F.mats)
        )
    return count


@settings(max_examples=200)
@given(rep_pairs())
def test_hom_dimension_counts_the_commuting_tuples(case):
    Q, E, F = case
    assert Q.p ** hom_space(E, F, Q)[0] == _count_homs(E, F, Q)
