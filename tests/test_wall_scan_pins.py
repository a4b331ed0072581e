"""Full wall-scan results on small scans, pinned.

Each scan's ``WallScanResult`` is recorded as its walls
(repr(t), kind, repr(witness coords), repr(detail)), the reprs of its
degenerate witnesses and skipped curve walls, and its truncation flag,
in ``wall_scan_pins.json``.  The scans are chosen so that every branch
of ``wall_scan`` is reached: irrational roots, Im Z identically zero
with real walls at the roots of Re Z, a degenerate witness, curve walls
kept and skipped by ``k_bound``.  Regenerate that file (only when an
output is meant to change) with

    PYTHONPATH=src python tests/test_wall_scan_pins.py
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from stabkit.k3 import AffinePath, wall_scan
from stabkit.lattice import DeltaBox, load_lattice

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "wall_scan_pins.json"
RANK1 = "k3_rank1.json"
RANK2 = "k3_rank2_curve.json"

# name -> (lattice config, B path, omega path, t0, t1, box, k_bound)
SCANS = {
    "irrational walls": (
        RANK2, ([0, F(1, 3)], None), ([0, 0], [1, 0]), F(1, 20), F(3), 4, None),
    "im identically zero, walls at re roots": (
        RANK2, ([0, 0], [0, 1]), ([1, 0], None), F(-3), F(3), 3, None),
    "degenerate witness": (
        RANK1, ([0], None), ([1], None), F(0), F(1), 1, None),
    "curve wall skipped by k_bound": (
        RANK2, ([0, -5], None), ([1, 1], [0, -1]), F(0), F(2), 2, 8),
    "curve and spherical walls": (
        RANK2, ([0, 0], None), ([1, 0], [0, 1]), F(-1), F(1), 2, 3),
    "golden-ratio wall, both paths move": (
        RANK2, ([0, 0], [0, 1]), ([1, 0], [0, 1]), F(0), F(2), 2, None),
    "quadratic im, rank 1": (
        RANK1, ([0], [1]), ([1], [1]), F(0), F(3), 3, None),
    "rank 1, B moves": (
        RANK1, ([0], [1]), ([1], None), F(-3), F(3), 6, None),
    "rank 1, box 16": (
        RANK1, ([0], None), ([0], [1]), F(1, 20), F(3), 16, None),
}


def record(name: str) -> dict:
    config, (b0, b1), (w0, w1), t0, t1, box, k_bound = SCANS[name]
    res = wall_scan(
        load_lattice(ROOT / "configs" / config),
        AffinePath(b0, b1),
        AffinePath(w0, w1),
        t0,
        t1,
        DeltaBox.cube(box),
        k_bound=k_bound,
    )
    return {
        "walls": [
            [repr(w.t), w.kind, repr(w.witness.coords()), repr(w.detail)]
            for w in res.walls
        ],
        "degenerate_witnesses": [repr(d) for d in res.degenerate_witnesses],
        "skipped_k": [repr(s) for s in res.skipped_k],
        "truncated": res.truncated,
    }


@pytest.mark.parametrize("name", list(SCANS))
def test_wall_scan_matches_pin(name):
    assert record(name) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    pins = {name: record(name) for name in SCANS}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} scans to {PINS}", file=sys.stderr)
