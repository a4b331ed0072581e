"""Hom, Ext^1 and reduced row echelon forms over F_p, pinned.

For every ordered pair (E, F) of reps of each bounded box below, the
(dim, basis) of ``hom_space(E, F)`` and ``ext1_dim(E, F)`` are hashed
with sha256 (one digest per box and kind); ``rref_mod_p`` is pinned on
seeded random matrices for p in {2, 3, 5}.  The digests were recorded
before the elimination moved onto packed rows; reduced row echelon form
is unique, so no change of elimination may move them.  Print them again
with

    PYTHONPATH=src python tests/test_hom_pins.py
"""

import hashlib
import itertools
import json
import random

import pytest

from stabkit.quiver import Quiver, enumerate_reps, ext1_dim, hom_space, rref_mod_p

BOXES = {
    "kronecker F_2 <= (2,1)": (Quiver.kronecker(2, p=2), (2, 1)),
    "a2 F_3 <= (2,2)": (Quiver.a_n(2, p=3), (2, 2)),
    "a2 F_5 <= (1,1)": (Quiver.a_n(2, p=5), (1, 1)),
}

PINS = {
    "kronecker F_2 <= (2,1)": {
        "hom": "edc10d3a869a8a3f501277a4b2e435003049e5384b8c03c8d4c8ff843b341318",
        "ext1": "b4294512f3a76440ff689d7acca9eecbab963827ea8f24482129b570d71bffa3",
    },
    "a2 F_3 <= (2,2)": {
        "hom": "4a245172801eae5bc26599f7cf84f956e3a19edbae7deb0c4f8a7d9b81018402",
        "ext1": "0e2258a2c22d3f34cda95fac95bd64afdb3490de530322f29995be186a7f21b1",
    },
    "a2 F_5 <= (1,1)": {
        "hom": "26b35a6516695444dfc038546ca4493cdaf472e52a58f8bc5fcfe85f986114de",
        "ext1": "cfa4196f2e3a3e1f8a0b6c2774f2f1bfedf37c6f1f53c6b039f790c214f2b02f",
    },
}

RREF_PINS = {
    2: "a2495505367013c983729cc049d802eb3d2b6c35f41fb435813f19b222f8e5f5",
    3: "6580958942bf2b26c9162802d47b83af4a0842b9b45a76a0793b4050b6b2b8e6",
    5: "0034ed8c49d9384b28a0c10e685dafc2f298e0b5196d38f8e60a59480bec1fdc",
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _digests(Q, max_dims) -> dict:
    reps = list(enumerate_reps(Q, max_dims))
    pairs = list(itertools.product(reps, reps))
    return {
        "hom": _sha([hom_space(E, F, Q) for E, F in pairs]),
        "ext1": _sha([ext1_dim(E, F, Q) for E, F in pairs]),
    }


def _random_matrices(p: int) -> list:
    """300 seeded matrices of 0-7 rows and 1-8 columns; every third one
    is a product of two thin factors, so low ranks come up too."""
    rng = random.Random(1000 + p)
    mats = []
    for n in range(300):
        rows, cols = rng.randrange(8), rng.randrange(1, 9)
        if n % 3:
            mats.append([[rng.randrange(-p, 2 * p) for _ in range(cols)] for _ in range(rows)])
            continue
        k = rng.randrange(1, 4)
        A = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
        B = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
        mats.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A])
    return mats


def _rref_digest(p: int) -> str:
    return _sha([rref_mod_p(m, p) for m in _random_matrices(p)])


@pytest.mark.parametrize("name", list(BOXES))
def test_hom_and_ext1_are_pinned(name):
    assert _digests(*BOXES[name]) == PINS[name]


@pytest.mark.parametrize("p", list(RREF_PINS))
def test_rref_is_pinned(p):
    assert _rref_digest(p) == RREF_PINS[p]


if __name__ == "__main__":
    for name, box in BOXES.items():
        print(json.dumps(name), json.dumps(_digests(*box), indent=4))
    print({p: _rref_digest(p) for p in RREF_PINS})
