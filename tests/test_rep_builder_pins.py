"""Sub, quotient and base-changed representations, pinned.

For every rep of each bounded box below, the (dims, mats) of
``sub_rep(i)`` and ``quotient_rep(i)`` for every entry i of its
subobject lattice, and of the iso-closure spot check's base change
``heart._conjugate_rep``, are hashed with sha256 (one digest per box
and kind).  The digests were recorded before the three were moved onto
one per-arrow builder; print them again with

    PYTHONPATH=src python tests/test_rep_builder_pins.py
"""

import hashlib
import json

import pytest

from stabkit import heart
from stabkit.quiver import Quiver, SubobjectLattice, enumerate_reps

BOXES = {
    "a2 F_3 <= (2,2)": (Quiver.a_n(2, p=3), (2, 2)),
    "kronecker F_2 <= (2,2)": (Quiver.kronecker(2, p=2), (2, 2)),
    "a3 F_2 <= (1,2,1)": (Quiver.a_n(3, p=2), (1, 2, 1)),
}

PINS = {
    "a2 F_3 <= (2,2)": {
        "sub": "7ffd526818899c6cd3324e747cd24bc7f0d89ffbb6498e6b35b72038a527fd8a",
        "quotient": "0f8159a82eaa441c38b7a8b8e4ce68672bab3363d2e1c5dd75e6e21f952c1587",
        "conjugate": "b4114ba02b08b13c0c3123b3633dd51413e92e31f49450a89938bb57d38d68dd",
    },
    "kronecker F_2 <= (2,2)": {
        "sub": "26c636302fc5a92d4d2101f1f8d352e97a4c18a0bd984e0753de43bbbb0ae0fa",
        "quotient": "4b20d816c0ca41c363b418d5bc086065f4f0c34cdc1d1ff596a936a374afd956",
        "conjugate": "896a89750b9b9158e81ed74d5c3914a43abb2c3c90c67107acc18155f4c73784",
    },
    "a3 F_2 <= (1,2,1)": {
        "sub": "050a34b5ab0712ac8b3042243aab27b8bfe729da67bb05d213c624fe3776d893",
        "quotient": "e14a12f1615e405f8845f588a3083c67c177940132f0fbe2e078986cbe474f7c",
        "conjugate": "41a09b7dc3de86dad3eeb1c8d45a009441f1f33294908a46f78b4cce1e34093b",
    },
}


def _digests(Q, max_dims) -> dict:
    reps = {"sub": [], "quotient": [], "conjugate": []}
    for E in enumerate_reps(Q, max_dims):
        lat = SubobjectLattice(E, Q)
        for i in range(len(lat)):
            reps["sub"].append(lat.sub_rep(i))
            reps["quotient"].append(lat.quotient_rep(i))
        reps["conjugate"].append(heart._conjugate_rep(E, Q))
    return {
        kind: hashlib.sha256(
            json.dumps([[X.dims, X.mats] for X in xs]).encode()
        ).hexdigest()
        for kind, xs in reps.items()
    }


@pytest.mark.parametrize("name", list(BOXES))
def test_sub_quotient_and_conjugate_reps_are_pinned(name):
    assert _digests(*BOXES[name]) == PINS[name]


if __name__ == "__main__":
    for name, box in BOXES.items():
        print(json.dumps(name), json.dumps(_digests(*box), indent=4))
