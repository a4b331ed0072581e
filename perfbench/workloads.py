"""The three benchmark workloads: their inputs, the library calls one item
makes, and the check of each item's outputs against the golden files.

Every input comes from a pool that is stored, together with the expected
output of each member, in ``golden/<workload>.json``.  A pool is a list
of groups; each group has a quota of items per pass.  A group whose quota
covers all of its records is run whole on every pass; otherwise the seed
draws a stratified sample: the records are sorted by a stratum that
stands for their cost (the number of checked pairs of a sweep, the slot
of a wall-scan path), cut into ``quota`` equal bins, and one record is
drawn per bin.  ``hn_sweep`` runs its whole pool on every pass, and the
seed presents each rep in a random basis instead (``present``).  So every
seed gets different inputs of nearly the same total cost.

The library is reached only through module attributes
(``heart.hn_filtration``, ``report.walls_csv``, ...), so that a traced run
can wrap the functions where the calling module binds them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from stabkit import exact, heart, k3, lattice, quiver, report

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
WORKLOADS = ("hn_sweep", "principles_sweep", "wall_scan")

# Quivers over F_p and, for hn_sweep, the charge each is swept under (the
# charges of acceptance criterion 6; "K2" carries configs/kronecker.json).
QUIVERS = {
    "A2": (2, ((0, 1),), 2),
    "A3": (3, ((0, 1), (1, 2)), 2),
    "K2": (2, ((0, 1), (0, 1)), 2),
    "K3": (2, ((0, 1), (0, 1)), 3),
}
HN_CHARGES = {
    "A2": (("-1", "1"), ("1", "1")),
    "A3": (("-1", "1"), ("0", "1"), ("1", "1")),
    "K2": (("-1", "2"), ("2", "1")),
    "K3": (("-1", "2"), ("2", "1")),
}
# The Neron-Severi lattices of the acceptance tests.
LATTICES = {
    "RHO1": ([[2]], [1], []),
    "RHO2A": ([[2, 0], [0, -2]], [1, 0], [[0, 1]]),
    "RHO2B": ([[4, 1], [1, -2]], [1, 0], []),
}


@dataclass
class Item:
    """One unit of work: ``run(*args)`` makes the library calls, and
    ``expect`` is the golden record its outputs are checked against."""

    key: str
    run: Callable
    args: tuple
    expect: dict


# ---------------------------------------------------------------------------
# decoding pool records


def make_quiver(name: str) -> quiver.Quiver:
    n, arrows, p = QUIVERS[name]
    return quiver.Quiver(n, arrows, p)


def make_charge(pairs) -> heart.HeartCharge:
    return heart.HeartCharge(
        [exact.RatComplex(Fraction(re), Fraction(im)) for re, im in pairs]
    )


def encode_mats(E: quiver.QuiverRep) -> str:
    """Row-major digits of every arrow matrix, arrow after arrow; the
    shapes follow from the dimension vector."""
    return "".join(str(x) for m in E.mats for row in m for x in row)


def decode_rep(Q: quiver.Quiver, dims, digits: str) -> quiver.QuiverRep:
    pos = 0
    mats = []
    for a, b in Q.arrows:
        rows = []
        for _ in range(dims[b]):
            rows.append(tuple(int(c) for c in digits[pos : pos + dims[a]]))
            pos += dims[a]
        mats.append(tuple(rows))
    if pos != len(digits):
        raise ValueError(f"matrix digits {digits!r} do not fit dims {dims}")
    return quiver.QuiverRep(dims, mats, Q)


def _mat_mul(A, B, rows: int, inner: int, cols: int, p: int) -> list:
    return [[sum(A[i][k] * B[k][j] for k in range(inner)) % p for j in range(cols)]
            for i in range(rows)]


def _random_gl(d: int, p: int, rng: random.Random) -> tuple:
    """A random invertible d x d matrix over F_p and its inverse: the
    reduced echelon form of [g | I] is [I | g^-1] when g is invertible."""
    while True:
        g = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        rows, pivots = quiver.rref_mod_p([row + [int(i == j) for j in range(d)]
                                          for i, row in enumerate(g)], p)
        if pivots[:d] == list(range(d)):
            return g, [row[d:] for row in rows]


def change_basis(E: quiver.QuiverRep, Q: quiver.Quiver, rng: random.Random) -> quiver.QuiverRep:
    """An isomorphic copy of E: a random change of basis g_v at every
    vertex, so that arrow a -> b acts by g_b M g_a^-1."""
    p, dims = Q.p, E.dims
    g = [_random_gl(d, p, rng) for d in dims]
    mats = []
    for (a, b), M in zip(Q.arrows, E.mats):
        gM = _mat_mul(g[b][0], M, dims[b], dims[b], dims[a], p)
        mats.append(_mat_mul(gM, g[a][1], dims[b], dims[a], dims[a], p))
    return quiver.QuiverRep(dims, mats, Q)


def make_lattice(name: str) -> lattice.NSLattice:
    gram, ample, curves = LATTICES[name]
    return lattice.NSLattice(gram, ample, curves)


def make_path(const_lin) -> k3.AffinePath:
    const, lin = const_lin
    return k3.AffinePath([Fraction(x) for x in const], [Fraction(x) for x in lin])


# ---------------------------------------------------------------------------
# the library calls of one item


def run_hn(E, zc, Q):
    greedy = heart.hn_filtration(E, zc, Q)
    chains = heart.hn_oracle(E, zc, Q)
    return greedy.chain_dims, chains


def run_principles(zc, zc2, Q, bound):
    gp = heart.hom_principles_check(zc, Q, bound)
    sl = heart.slicing_hom_vanishing(zc, Q, bound)
    dist = heart.slicing_distance(zc, zc2, Q, bound)
    return gp, sl, dist


def run_scan(lat, B, omega, t0, t1, box):
    res = k3.wall_scan(lat, B, omega, t0, t1, box)
    return report.walls_csv(res, lat.rank), report.scan_ticks_svg(res, t0, t1)


def run_chamber(lat, B, omega, u0, u1, t0, t1, box, columns):
    svg = report.chamber_plot_svg(lat, B, omega, u0, u1, t0, t1, box, columns=columns)
    return None, svg


def _decode_hn(rec) -> tuple:
    Q = make_quiver(rec["q"])
    return run_hn, (decode_rep(Q, rec["dims"], rec["mats"]), make_charge(HN_CHARGES[rec["q"]]), Q)


def _decode_principles(rec) -> tuple:
    Q = make_quiver(rec["q"])
    return run_principles, (make_charge(rec["z"]), make_charge(rec["z2"]), Q, tuple(rec["bound"]))


def _decode_wall(rec) -> tuple:
    lat = make_lattice(rec["lat"])
    t0, t1 = (Fraction(x) for x in rec["t"])
    box = lattice.DeltaBox.cube(rec["box"])
    B, omega = make_path(rec["B"]), make_path(rec["omega"])
    if "u" in rec:
        u0, u1 = (Fraction(x) for x in rec["u"])
        return run_chamber, (lat, B, omega, u0, u1, t0, t1, box, rec["columns"])
    return run_scan, (lat, B, omega, t0, t1, box)


DECODERS = {
    "hn_sweep": _decode_hn,
    "principles_sweep": _decode_principles,
    "wall_scan": _decode_wall,
}


def record_key(rec: dict) -> str:
    """Stable identity of a pool record: its input fields, canonically."""
    inputs = {k: v for k, v in rec.items() if k not in ("expect", "stratum")}
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# outputs: canonical form and the golden check


def _dims_text(chain) -> str:
    return " ".join(",".join(str(x) for x in d) for d in chain)


def _jsonable(x):
    if isinstance(x, (tuple, list)):
        return [_jsonable(y) for y in x]
    return x


def expected_output(workload: str, out) -> dict:
    """The golden record of one item's outputs (JSON-serialisable)."""
    if workload == "hn_sweep":
        greedy, chains = out
        return {"chain": _dims_text(greedy), "oracle": [_dims_text(c) for c in chains]}
    if workload == "principles_sweep":
        gp, (checked, failures), dist = out
        return {
            "gp": [gp.ok, gp.checked_pairs, _jsonable(gp.failures)],
            "slicing": [checked, _jsonable(failures)],
            "distance": dist.to_json(),
        }
    csv, svg = out
    return {
        "csv": csv,
        "svg_sha256": hashlib.sha256(svg.encode()).hexdigest(),
        "svg_bytes": len(svg.encode()),
    }


def canonical(workload: str, out) -> str:
    return json.dumps(expected_output(workload, out), sort_keys=True, separators=(",", ":"))


def check(workload: str, out, expect: dict) -> bool:
    """Whether one item's outputs are right: equal to the golden record,
    and, independently of it, consistent with the theorems each workload
    exercises (HN uniqueness and greedy = oracle; no failures in the
    principle sweeps)."""
    got = expected_output(workload, out)
    if workload == "hn_sweep":
        return got["oracle"] == [got["chain"]] and got == expect
    if workload == "principles_sweep":
        gp, (_, failures), dist = out
        if not gp.ok or gp.failures or failures:
            return False
        if got["gp"] != expect["gp"] or got["slicing"] != expect["slicing"]:
            return False
        # compare distances as exact numbers, not as representations
        return dist == exact.PhaseValue.from_json(expect["distance"])
    return got == expect


# ---------------------------------------------------------------------------
# sampling


def load_pool(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def stratified_sample(records: list, quota: int, rng: random.Random) -> list:
    """One record from each of ``quota`` equal bins of the records sorted
    by stratum; all records when the quota covers them."""
    if quota >= len(records):
        return list(records)
    ordered = sorted(records, key=lambda r: (r["stratum"], record_key(r)))
    n = len(ordered)
    return [
        ordered[rng.randrange(i * n // quota, (i + 1) * n // quota)]
        for i in range(quota)
    ]


def sample_records(pool: dict, seed: int) -> list:
    """The pool records of one run, in a seeded order."""
    rng = random.Random(seed)
    chosen = []
    for group in pool["groups"]:
        chosen.extend(stratified_sample(group["records"], group["quota"], rng))
    rng.shuffle(chosen)
    return chosen


def present(workload: str, rec: dict, rng: random.Random, taken: set) -> dict:
    """The record as one run sees it.  An ``hn_sweep`` rep is presented in
    a seeded random basis (``change_basis``): its matrices differ from
    seed to seed, while its subobject lattice and HN filtration, and so
    its cost and its golden output, stay those of the pool record.  Two
    isomorphic pool reps are never presented alike in one run: ``taken``
    holds the presentations already given out."""
    if workload != "hn_sweep":
        return rec
    Q = make_quiver(rec["q"])
    E = decode_rep(Q, rec["dims"], rec["mats"])
    while True:
        shown = (rec["q"], tuple(rec["dims"]), encode_mats(change_basis(E, Q, rng)))
        if shown not in taken:
            taken.add(shown)
            return dict(rec, mats=shown[2])


def generate(workload: str, seed: int) -> list:
    """The items of one run: the sampled records in their seeded
    presentation, decoded into library objects, so that a pass only calls
    the library."""
    if workload not in DECODERS:
        raise ValueError(f"unknown workload {workload!r}")
    decode = DECODERS[workload]
    rng, taken = random.Random(f"{seed}:present"), set()
    items = []
    for rec in sample_records(load_pool(workload), seed):
        rec = present(workload, rec, rng, taken)
        run, args = decode(rec)
        items.append(Item(record_key(rec), run, args, rec["expect"]))
    return items
