"""The subspace tables of F_p^d, pinned and checked by brute force.

``subspaces_of(d, p)`` fixes the order of every subobject lattice (and
so the greedy HN tie-breaks) and the bases that sub and quotient reps
are written in.  The sha256 of ``[(dim, basis), ...]`` for d <= 4 and
p in {2, 3} was recorded before the tables moved from integer codes to
vector tuples; print the digests again with

    PYTHONPATH=src python tests/test_subspace_pins.py

The other checks share no code with the enumeration: each element set
is the span of its basis, computed by summing every combination; no
span appears twice; each stored completion extends the basis to all of
F_p^d; and the counts are the Gaussian-binomial sums.
"""

import hashlib
import itertools
import json

import pytest

from stabkit.quiver import subspaces_of

TABLES = [(d, p) for p in (2, 3) for d in range(5)]

PINS = {
    (0, 2): "cbf64f7a71e4261b81f12eaa062ea7dca12ebf62e2bfaf85fed5c4ab79b12c06",
    (1, 2): "a52b3183b3c6771e23e325ec0ca35525384e73c3c4282e51f5eb6f8486843bb0",
    (2, 2): "df8f6aa5f01dd57df5e830ec42db719483f3d5684500d0a4102bb87a75163cc2",
    (3, 2): "67b7b843bf90bf6be270de849e52e575e138fbdb13afd377b9ae28551fe7fb74",
    (4, 2): "a9be7cc7bf72c421b5341f8cc46f3eaa1f056959b699065375bc68a38e14335c",
    (0, 3): "cbf64f7a71e4261b81f12eaa062ea7dca12ebf62e2bfaf85fed5c4ab79b12c06",
    (1, 3): "a52b3183b3c6771e23e325ec0ca35525384e73c3c4282e51f5eb6f8486843bb0",
    (2, 3): "0e5ba6d8b5e9aa0fd6da9a647182d8feccf21929c86e4d596631c8acc74e15db",
    (3, 3): "525d39f4fd67ffddbde7ccaacb996417385d1d5e822937161847cd42d1403275",
    (4, 3): "4b6630eab9a3b1315ced48ea12f5e8aa9b9fb0a78f7d16814b5215acceeffc15",
}


def _digest(d: int, p: int) -> str:
    table = [(sp.dim, sp.basis) for sp in subspaces_of(d, p)]
    return hashlib.sha256(json.dumps(table).encode()).hexdigest()


def _span(basis, d: int, p: int) -> frozenset:
    return frozenset(
        tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) % p for i in range(d))
        for coeffs in itertools.product(range(p), repeat=len(basis))
    )


def _gaussian_sum(d: int, p: int) -> int:
    """The number of subspaces of F_p^d: the sum over k of the Gaussian
    binomials [d choose k]_p."""
    total = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (d - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


@pytest.mark.parametrize("d, p", TABLES)
def test_table_is_pinned(d, p):
    assert _digest(d, p) == PINS[(d, p)]


@pytest.mark.parametrize("d, p", TABLES)
def test_elements_are_the_span_of_the_basis(d, p):
    spans = set()
    for sp in subspaces_of(d, p):
        span = _span(sp.basis, d, p)
        assert len(sp.basis) == sp.dim
        assert len(span) == p**sp.dim  # the basis is independent
        assert sp.elems == span
        spans.add(span)
    assert len(spans) == len(subspaces_of(d, p))  # no subspace twice


@pytest.mark.parametrize("d, p", TABLES)
def test_completion_and_basis_span_everything(d, p):
    for sp in subspaces_of(d, p):
        assert len(sp.completion) == d - sp.dim
        assert len(_span(sp.basis + sp.completion, d, p)) == p**d


@pytest.mark.parametrize("d, p", TABLES)
def test_counts_are_gaussian_binomial_sums(d, p):
    assert len(subspaces_of(d, p)) == _gaussian_sum(d, p)


def test_gaussian_sums_known_values():
    assert _gaussian_sum(4, 2) == 67
    assert _gaussian_sum(4, 3) == 212


if __name__ == "__main__":
    for d, p in TABLES:
        print(f"    ({d}, {p}): \"{_digest(d, p)}\",")
