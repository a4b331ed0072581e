"""Regenerate the benchmark's input pools and golden outputs.

    python3 perfbench/bless.py [workload ...]

The pools are drawn from a fixed pool seed, so a rerun on unchanged code
reproduces the committed files byte for byte.  The expected outputs are
whatever the library computes now, so bless only after checking that a
change of verdict is intended: the command prints, per workload, how many
records differ from the committed golden file.  A benchmark run never
writes these files.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stabkit import quiver  # noqa: E402

import workloads as wl  # noqa: E402

POOL_SEED = 1111_1745

# -- hn_sweep -----------------------------------------------------------
# Acceptance criterion 6 in miniature.  Criterion 6 checks, for every
# dimension vector with per-vertex dims <= 3 and total <= 6, every rep of
# A2, A3 and K2 over F_2 when there are at most HN_CAP of them, and HN_CAP
# random reps otherwise.  K3 (Kronecker over F_3) adds the vectors below
# under the same rule.  A vector's quota is its share of all those reps
# times HN_ITEMS (largest remainder), so a pass samples criterion 6's reps
# uniformly and spends its time across vectors as criterion 6 does.  A
# vector whose share rounds to 0 is left out.  A vector's pool is drawn
# once, here: from HN_POOL_FACTOR candidate reps per item of its quota
# (every rep if it has fewer), a sample stratified by subobject count,
# whose top stratum always gives the zero-map rep, the rep with the
# largest lattice.  Every pass runs the whole pool; the run's seed only
# changes the basis each rep is written in (workloads.present), so the
# cost of a pass does not depend on the seed.
HN_CAP = 1500
HN_ITEMS = 460
HN_POOL_FACTOR = 4
HN_K3_VECTORS = [(1, 1), (1, 2), (2, 1), (2, 2)]

# -- principles_sweep ---------------------------------------------------
# (quiver, bound, quota) under seeded charges, plus the configs/ charges
# at their largest bounds, each with a seeded second charge for the
# slicing distance; 100 items per pass, so that the p90 of the items'
# latencies has 10 items beyond it.
PR_SEEDED = [
    ("A2", (1, 1), 14), ("K2", (1, 1), 14), ("A3", (1, 1, 1), 13),
    ("A2", (2, 1), 9), ("A2", (1, 2), 9),
    ("K2", (2, 1), 5), ("K2", (1, 2), 5),
    ("A3", (2, 1, 1), 5), ("A3", (1, 2, 1), 5), ("A3", (1, 1, 2), 5),
    ("A2", (2, 2), 11),
    ("K2", (3, 1), 1), ("K2", (1, 3), 1),
]
PR_CONFIG = [  # configs/a2.json and configs/kronecker.json
    ("A2", (("-1", "1"), ("1", "1")), (2, 2)),
    ("A2", (("-1", "1"), ("1", "1")), (3, 2)),
    ("K2", (("-1", "2"), ("2", "1")), (2, 2)),
]
PR_POOL_FACTOR = 4
PR_CONFIG_POOL = 4

# -- wall_scan -------------------------------------------------------------
# The ROADMAP's scan rows: rank 1 at boxes 4, 16 and 64, rank 2 at boxes 4,
# 16 and 32.  Box 32 takes about 10 s per scan, longer than a pass may
# last, so rank 2 stops at box 16; there as at box 32 enumerate_delta takes
# most of the time.  Two box-16 scans per rank-2 lattice take about 60% of
# a pass.  A pass has 100 items or more, so that the p90 of the items'
# latencies has 10 items beyond it.  A percentile that falls between two
# groups of unlike cost jumps between them with machine noise, so the
# cheaper rows are sized to put the median among the rank-1 box-16 scans
# and the p90 among the box-64 scans.  Plus one rank-1 and one rank-2
# chamber plot, which scan the same lattice and box once per column.
# (kind, lattice, box, quota); chamber items add (columns,).  Each of the
# quota slots of a group fixes which path coefficients are nonzero (a
# moving B makes Im Z quadratic in t, and zero coordinates skip work), so
# the cost of a slot does not depend on the seed; the seed picks one of
# the slot's WS_PER_SLOT paths.
WS_GROUPS = [
    ("scan", "RHO1", 4, 34), ("scan", "RHO1", 16, 30), ("scan", "RHO1", 64, 8),
    ("scan", "RHO2A", 4, 12), ("scan", "RHO2A", 16, 2),
    ("scan", "RHO2B", 4, 12), ("scan", "RHO2B", 16, 2),
    ("chamber", "RHO1", 8, 1, 12), ("chamber", "RHO2A", 3, 1, 8),
]
WS_PER_SLOT = 4
# a worked example: 7 walls, 6 of them irrational quadratic surds
WS_EXAMPLE = {"lat": "RHO2A", "B": [["0", "1/3"], ["0", "0"]],
              "omega": [["0", "0"], ["1", "0"]], "t": ["1/20", "3"], "box": 16}
_OFFSETS = ["1/2", "-1/2", "1/3", "-1/3", "1/4", "2/3", "-1/5"]
_SLOPES = ["1/2", "-1/3", "1/4"]


def _hn_vectors() -> list:
    """(quiver, dims, reps checked) for every vector of the population."""
    out = []
    for q in ("A2", "A3", "K2"):
        Q = wl.make_quiver(q)
        for dims in itertools.product(*(range(4) for _ in range(Q.n))):
            if 0 < sum(dims) <= 6:
                out.append((q, dims, min(quiver.count_reps(dims, Q), HN_CAP)))
    K3 = wl.make_quiver("K3")
    out += [("K3", d, min(quiver.count_reps(d, K3), HN_CAP)) for d in HN_K3_VECTORS]
    return out


def _quotas(weights: list, total: int) -> list:
    """Integer quotas proportional to ``weights`` and summing to ``total``
    (largest remainder, ties to the earlier entry)."""
    exact = [w * total / sum(weights) for w in weights]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: (quotas[i] - exact[i], i))
    for i in by_remainder[: total - sum(quotas)]:
        quotas[i] += 1
    return quotas


def _hn_groups(rng: random.Random) -> list:
    vectors = _hn_vectors()
    groups = []
    for (q, dims, n), quota in zip(vectors, _quotas([v[2] for v in vectors], HN_ITEMS)):
        if quota == 0:
            continue
        Q = wl.make_quiver(q)
        size = min(n, HN_POOL_FACTOR * quota)
        if quiver.count_reps(dims, Q) <= HN_CAP:
            reps = list(quiver.enumerate_reps_of_dims(dims, Q))
            reps = rng.sample(reps, size) if size < len(reps) else reps
        else:
            seen, reps = set(), []
            while len(reps) < size:
                E = quiver.random_rep(dims, Q, rng)
                if wl.encode_mats(E) not in seen:
                    seen.add(wl.encode_mats(E))
                    reps.append(E)
        digits = [wl.encode_mats(E) for E in reps]
        zero = "0" * sum(dims[b] * dims[a] for a, b in Q.arrows)
        if zero not in digits:
            digits[-1] = zero
        recs = [{"q": q, "dims": list(dims), "mats": m} for m in digits]
        for rec in recs:
            E = wl.decode_rep(Q, rec["dims"], rec["mats"])
            rec["stratum"] = len(quiver.SubobjectLattice(E, Q))
        zero_rec = next(rec for rec in recs if rec["mats"] == zero)
        recs = wl.stratified_sample(recs, quota, rng)
        if zero_rec not in recs:
            recs[-1] = zero_rec  # the pick of the top stratum
        groups.append({"name": f"{q} {dims}", "quota": quota, "records": recs})
    return groups


def _random_charge(rng: random.Random, n: int) -> list:
    vals = []
    while len(vals) < n:
        re, im = rng.randint(-3, 3), rng.randint(0, 3)
        if im == 0 and re >= 0:
            continue  # outside H-bar minus 0
        vals.append([str(re), str(im)])
    return vals


def _principles_groups(rng: random.Random) -> list:
    groups = []
    for q, z, bound in PR_CONFIG:
        n = wl.QUIVERS[q][0]
        recs = [{"q": q, "z": [list(v) for v in z], "z2": _random_charge(rng, n),
                 "bound": list(bound)} for _ in range(PR_CONFIG_POOL)]
        groups.append({"name": f"{q} config charge {bound}", "quota": 1, "records": recs})
    for q, bound, quota in PR_SEEDED:
        n = wl.QUIVERS[q][0]
        recs = [{"q": q, "z": _random_charge(rng, n), "z2": _random_charge(rng, n),
                 "bound": list(bound)} for _ in range(PR_POOL_FACTOR * quota)]
        groups.append({"name": f"{q} {bound}", "quota": quota, "records": recs})
    return groups


def _path_shape(rng: random.Random, rank: int) -> tuple:
    """Which coefficients of (B const, B slope, omega const, omega slope)
    are nonzero; omega's first slope coordinate always is."""
    return (
        [rng.random() < 0.6 for _ in range(rank)],
        [rng.random() < 0.3 for _ in range(rank)],
        [rng.random() < 0.3] + [False] * (rank - 1),
        [True] + [rng.random() < 0.5 for _ in range(rank - 1)],
    )


def _path_record(rng: random.Random, lat: str, box: int, shape: tuple) -> dict:
    nz_b0, nz_b1, nz_w0, nz_w1 = shape
    b0 = [rng.choice(_OFFSETS) if nz else "0" for nz in nz_b0]
    b1 = [rng.choice(_SLOPES) if nz else "0" for nz in nz_b1]
    w0 = [rng.choice(["1/4", "1/2"]) if nz else "0" for nz in nz_w0]
    w1 = [rng.choice(["1", "2", "3/2"])] + [
        rng.choice(_SLOPES) if nz else "0" for nz in nz_w1[1:]
    ]
    t = [rng.choice(["1/20", "1/10", "1/4", "1/2"]), rng.choice(["2", "5/2", "3"])]
    return {"lat": lat, "B": [b0, b1], "omega": [w0, w1], "t": t, "box": box}


def _wall_groups(rng: random.Random) -> list:
    groups = []
    for kind, lat, box, quota, *rest in WS_GROUPS:
        rank = len(wl.LATTICES[lat][0])
        recs = []
        for slot in range(quota):
            shape = _path_shape(rng, rank)
            if kind == "chamber":  # B moves along u in the first coordinate
                shape = (shape[0], [False] * rank, [False] * rank, shape[3])
            example = (lat, box, kind, slot) == (WS_EXAMPLE["lat"], WS_EXAMPLE["box"], "scan", 0)
            if example:
                shape = ([False, True], [False, False], [False, False], [True, False])
            for k in range(WS_PER_SLOT):
                rec = _path_record(rng, lat, box, shape)
                if example and k == 0:
                    rec = dict(WS_EXAMPLE)
                if kind == "chamber":
                    rec["B"][1] = ["1"] + ["0"] * (rank - 1)
                    rec["u"] = rng.choice([["0", "1"], ["-1/2", "1/2"]])
                    rec["columns"] = rest[0]
                rec["stratum"] = slot
                recs.append(rec)
        groups.append({"name": f"{kind} {lat} box {box}", "quota": quota, "records": recs})
    return groups


GROUP_MAKERS = {
    "hn_sweep": _hn_groups,
    "principles_sweep": _principles_groups,
    "wall_scan": _wall_groups,
}


def bless(workload: str) -> dict:
    rng = random.Random(f"{POOL_SEED}:{workload}")
    groups = GROUP_MAKERS[workload](rng)
    decode = wl.DECODERS[workload]
    for g in groups:
        g.setdefault("quota", len(g["records"]))
        for rec in g["records"]:
            run, args = decode(rec)
            out = run(*args)
            rec["expect"] = wl.expected_output(workload, out)
            if not wl.check(workload, out, rec["expect"]):
                raise SystemExit(f"{workload}: verdict fails its own check at {rec}")
            if workload == "principles_sweep":
                rec["stratum"] = out[0].checked_pairs
    return {"workload": workload, "pool_seed": POOL_SEED, "groups": groups}


def _changed(old: dict, new: dict) -> int:
    def index(pool):
        return {wl.record_key(r): r["expect"] for g in pool["groups"] for r in g["records"]}

    a, b = index(old), index(new)
    return sum(1 for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv: list) -> int:
    names = argv or list(wl.WORKLOADS)
    for name in names:
        started = time.perf_counter()
        pool = bless(name)
        path = wl.GOLDEN_DIR / f"{name}.json"
        changed = _changed(json.loads(path.read_text()), pool) if path.exists() else None
        text = json.dumps(pool, sort_keys=True, indent=0, separators=(",", ":")) + "\n"
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        items = sum(min(g["quota"], len(g["records"])) for g in pool["groups"])
        records = sum(len(g["records"]) for g in pool["groups"])
        print(f"{name}: {records} pool records, {items} items per pass, "
              f"{changed if changed is not None else 'all'} records changed, "
              f"{time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
