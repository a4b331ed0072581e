"""Rank-1 wall scans against a closed form that shares no code with the scan.

Take NS = Zh with h^2 = 2n, B = b(t) h and omega = w(t) h.  A (-2)-class
(r, kh, s) with r > 0 has s = (n k^2 + 1)/r and

    Z_t = 2n k (b + i w) - s - r n (b + i w)^2,

so Im Z_t = 2n w (k - r b) and Re Z_t = 2n b k - s - r n (b^2 - w^2).
Its walls are therefore of two kinds:

- the t with b(t) = k/r, where Re Z_t = r n w^2 - 1/r, so that the
  class gives a wall iff n r^2 w(t)^2 <= 1.  On a constant-B path with
  b = k/r the charge of the class is real for every t, and its walls are
  the boundary points n r^2 w(t)^2 = 1 instead;
- the point w(t) = 0, which lies outside the positive cone.  There every
  class whose Im Z_t is not identically zero is reported, since
  Re Z_t = -(n (k - r b)^2 + 1)/r < 0.

This is the picture of holes at B = k/r in Bridgeland's description of
Stab for K3 surfaces (T. Bridgeland, Stability conditions on K3 surfaces,
Duke Math. J. 141 (2008), arXiv:math/0307164).  The oracle below uses
neither ``enumerate_delta`` nor the Mukai pairing nor the scan's
polynomials; it only shares ``Quad`` for the irrational points
w(t) = +-1/(r sqrt(n)).
"""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from stabkit.exact import Quad
from stabkit.k3 import AffinePath, wall_scan
from stabkit.lattice import DeltaBox, NSLattice, load_lattice

ROOT = Path(__file__).resolve().parent.parent
RANK1 = load_lattice(ROOT / "configs" / "k3_rank1.json")  # h^2 = 2
RANK1_H4 = NSLattice([[4]], [1])


def oracle_walls(n, b, w, t0, t1, box, branches=None):
    """The walls (t, witness coords) of the scan along B = b(t) h,
    omega = w(t) h, with b = (b0, b1) and w = (w0, w1) affine, from the
    closed form above.  The kinds of wall found are added to ``branches``."""
    (b0, b1), (w0, w1) = b, w
    found = {}

    def add(t, cls, branch):
        if isinstance(t, Quad) and t.is_rational():
            t = t.as_fraction()
        if t0 <= t <= t1:
            found[(repr(t), cls)] = t
            if branches is not None:
                branches.add(branch if isinstance(t, F) else "surd")

    for r in range(1, box + 1):
        for k in range(-box, box + 1):
            if (n * k * k + 1) % r != 0 or (n * k * k + 1) // r > box:
                continue
            cls = (r, k, (n * k * k + 1) // r)
            if b1 == 0 and r * b0 == k:
                # Z_t is real along the whole path
                if w1 != 0:
                    for sign in (1, -1):
                        add((Quad(0, F(sign, r * n), n) - w0) / w1, cls, "real B = k/r")
                continue
            if b1 != 0:
                t = (F(k, r) - b0) / b1
                if n * r * r * (w0 + w1 * t) ** 2 <= 1:
                    add(t, cls, "hole")
            if w1 != 0:
                add(-w0 / w1, cls, "omega = 0")
    return [
        (key[0], "A", key[1])
        for key, _ in sorted(found.items(), key=lambda item: (item[1], item[0][1]))
    ]


def scanned_walls(lat, b, w, t0, t1, box):
    res = wall_scan(lat, AffinePath([b[0]], [b[1]]), AffinePath([w[0]], [w[1]]), t0, t1,
                    DeltaBox.cube(box))
    return [(repr(x.t), x.kind, x.witness.coords()) for x in res.walls]


def seeded_paths(seed, count):
    """(b, w, t0, t1, box) on seeded affine paths.  Every third path keeps
    B constant, and some constant B sit at a hole k/r; w never vanishes
    identically."""
    rng = random.Random(seed)
    small = [F(p, q) for p in range(-3, 4) for q in (1, 2, 3, 4)]
    holes = [F(0), F(1, 2), F(-1, 2), F(1, 5), F(2, 5), F(1, 3)]
    out = []
    for i in range(count):
        if i % 3 == 0:
            b = (rng.choice(holes + small), F(0))
        else:
            b = (rng.choice(small), rng.choice([x for x in small if x != 0]))
        w = (rng.choice(small), rng.choice(small))
        if w == (0, 0):
            w = (F(1), F(0))
        t0 = F(rng.randint(-6, 2), rng.choice((1, 2)))
        t1 = t0 + rng.randint(1, 4)
        out.append((b, w, t0, t1, rng.choice((8, 12, 16))))
    return out


@pytest.mark.parametrize("lat,n", [(RANK1, 1), (RANK1_H4, 2)], ids=["h2=2", "h2=4"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_equals_closed_form(lat, n, seed):
    for b, w, t0, t1, box in seeded_paths(seed, 15):
        assert scanned_walls(lat, b, w, t0, t1, box) == oracle_walls(n, b, w, t0, t1, box), (
            b, w, t0, t1, box)


def test_seeded_paths_reach_every_kind_of_wall():
    branches = set()
    for n in (1, 2):
        for seed in (1, 2, 3):
            for path in seeded_paths(seed, 15):
                oracle_walls(n, *path, branches=branches)
    assert branches == {"hole", "omega = 0", "real B = k/r", "surd"}


def test_walls_where_omega_vanishes():
    # B = t/3 h, omega = (1 - t) h: omega = 0 at t = 1, outside the
    # positive cone; the scan reports every boxed positive-rank class there
    b, w = (F(0), F(1, 3)), (F(1), F(-1))
    walls = scanned_walls(RANK1, b, w, F(0), F(2), 8)
    at_one = [cls for t, _, cls in walls if t == "Fraction(1, 1)"]
    assert len(walls) == 16
    assert len(at_one) == 13
    boxed = [
        (r, k, (k * k + 1) // r)
        for r in range(1, 9)
        for k in range(-8, 9)
        if (k * k + 1) % r == 0 and (k * k + 1) // r <= 8
    ]
    assert at_one == boxed
    assert walls == oracle_walls(1, b, w, F(0), F(2), 8)
