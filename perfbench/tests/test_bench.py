"""Tests of the benchmark itself: seeded inputs, the golden check, the
spans of a traced pass, and the contract between run.py and
BENCHMARK.json.  Run with ``python3 -m pytest perfbench/tests``."""

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# cheap records of each workload, so that a test pass takes well under a second
CHEAP = {
    "hn_sweep": lambda r: r["stratum"] <= 12,
    "principles_sweep": lambda r: r["bound"] == [1, 1],
    "wall_scan": lambda r: r["lat"] == "RHO1" and r["box"] == 4 and "u" not in r,
}


def cheap_items(workload, n=6):
    records = [
        r for g in wl.load_pool(workload)["groups"] for r in g["records"] if CHEAP[workload](r)
    ][:n]
    assert len(records) == n
    items = []
    for rec in records:
        fn, args = wl.DECODERS[workload](rec)
        items.append(wl.Item(wl.record_key(rec), fn, args, rec["expect"]))
    return items


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = [item.key for item in wl.generate(workload, 17)]
    again = [item.key for item in wl.generate(workload, 17)]
    assert first == again


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_different_seed_different_inputs(workload):
    one = [item.key for item in wl.generate(workload, 1)]
    two = [item.key for item in wl.generate(workload, 2)]
    assert one != two
    assert sorted(one) != sorted(two)  # not merely another order


def test_hn_seed_changes_the_basis_not_the_rep():
    """Another seed writes a rep in another basis: other matrices, the
    same subobject lattice size and the same golden record."""
    from stabkit import quiver

    pool = {wl.record_key(r): r for g in wl.load_pool("hn_sweep")["groups"] for r in g["records"]}
    rng, taken = random.Random(5), set()
    moved = 0
    for rec in pool.values():
        if rec["q"] == "A2" and sum(rec["dims"]) > 3:
            continue  # keep the test fast
        shown = wl.present("hn_sweep", rec, rng, taken)
        moved += shown["mats"] != rec["mats"]
        run_hn, (E, zc, Q) = wl.DECODERS["hn_sweep"](shown)
        assert len(quiver.SubobjectLattice(E, Q)) == rec["stratum"]
        assert wl.check("hn_sweep", run_hn(E, zc, Q), rec["expect"])
    assert moved > len(pool) // 4


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_sample_keeps_every_quota(workload):
    pool = wl.load_pool(workload)
    per_pass = sum(min(g["quota"], len(g["records"])) for g in pool["groups"])
    assert len(wl.sample_records(pool, 5)) == per_pass


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_golden_check_catches_corrupted_verdict(workload):
    items = cheap_items(workload, n=2)
    _, _, outputs = run.run_pass(items)
    assert run.check_pass(wl, workload, items, outputs)[0] == 0
    bad = copy.deepcopy(items[1].expect)
    if workload == "hn_sweep":
        bad["chain"] = bad["chain"] + " 9,9"
    elif workload == "principles_sweep":
        bad["gp"][1] += 1
    else:
        bad["csv"] = bad["csv"].replace("truncated=true", "truncated=false")
    assert bad != items[1].expect
    items[1] = wl.Item(items[1].key, items[1].run, items[1].args, bad)
    assert run.check_pass(wl, workload, items, outputs)[0] == 1


def test_golden_check_compares_distances_exactly():
    item = cheap_items("principles_sweep", n=1)[0]
    out = item.run(*item.args)
    assert wl.check("principles_sweep", out, item.expect)
    bad = copy.deepcopy(item.expect)
    bad["distance"] = "7/3"  # no slicing distance on these sets reaches it
    assert not wl.check("principles_sweep", out, bad)


def test_hn_check_needs_a_unique_oracle_chain():
    item = cheap_items("hn_sweep", n=1)[0]
    greedy, chains = item.run(*item.args)
    assert wl.check("hn_sweep", (greedy, chains), item.expect)
    assert not wl.check("hn_sweep", (greedy, chains + chains), item.expect)


def test_failed_item_is_counted():
    items = cheap_items("hn_sweep", n=2)
    items[0] = wl.Item(items[0].key, lambda *a: 1 / 0, items[0].args, items[0].expect)
    _, _, outputs = run.run_pass(items)
    assert outputs[0] is None
    assert run.check_pass(wl, "hn_sweep", items, outputs)[0] == 1


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_trace_spans_nest_and_digest_is_unchanged(workload):
    items = cheap_items(workload)
    _, _, plain = run.run_pass(items)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        _, _, traced = run.run_pass(items, tracer)
    finally:
        tracing.uninstall(undo)
    assert run.check_pass(wl, workload, items, plain) == run.check_pass(wl, workload, items, traced)

    n = len(tracer.name)
    assert n > len(items)
    children = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        assert tracer.end[i] >= tracer.start[i]
        if p < 0:
            assert tracer.names[tracer.name[i]] == "bench.item"
            continue
        assert tracer.start[p] <= tracer.start[i] and tracer.end[i] <= tracer.end[p]
        assert tracer.item[i] == tracer.item[p]
        children[p] += tracer.end[i] - tracer.start[i]
    for i in range(n):
        assert children[i] <= tracer.end[i] - tracer.start[i] + 1e-9
        assert tracer.self_time[i] >= -1e-9

    layers = tracing.layer_metrics(tracer)
    assert set(layers) | {"trace.overhead_ratio"} == set(run.PER_LAYER)
    busy = {
        "hn_sweep": "quiver.lattice_builds",
        "principles_sweep": "exact.phase_cmp_calls",
        "wall_scan": "lattice.enumerate_delta_calls",
    }
    assert layers[busy[workload]] > 0


def test_uninstall_restores_the_library():
    from stabkit import exact, heart, k3, report

    before = (heart.hn_filtration, heart.SubobjectLattice, k3.wall_scan,
              report.walls_csv, exact.PhaseValue.__sub__, exact.PhaseValue.sign)
    tracing.uninstall(tracing.install(tracing.Tracer()))
    after = (heart.hn_filtration, heart.SubobjectLattice, k3.wall_scan,
             report.walls_csv, exact.PhaseValue.__sub__, exact.PhaseValue.sign)
    assert before == after


# Appended to a copy of stabkit/heart.py: a module-level memo of the
# subobject lattices, as a build-once change might add.
LATTICE_MEMO = """

_LATTICE_MEMO = {}
LATTICE_MISSES = [0]
_build_lattice = SubobjectLattice


def SubobjectLattice(E, Q, total_bound=None):
    key = (Q.n, tuple(Q.arrows), Q.p, E.dims, E.mats, total_bound)
    if key not in _LATTICE_MEMO:
        LATTICE_MISSES[0] += 1
        _LATTICE_MEMO[key] = _build_lattice(E, Q, total_bound)
    return _LATTICE_MEMO[key]
"""


@pytest.fixture
def memo_library(tmp_path, monkeypatch):
    """stabkit with LATTICE_MEMO on the import path, for one test."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "stabkit", src / "stabkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "stabkit" / "heart.py", "a") as fh:
        fh.write(LATTICE_MEMO)
    saved = {k: v for k, v in sys.modules.items()
             if k in ("stabkit", "workloads") or k.startswith("stabkit.")}
    monkeypatch.syspath_prepend(str(src))
    yield
    for name in [k for k in sys.modules if k in saved or k.startswith("stabkit.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_no_cache_carries_over_between_passes(memo_library):
    """Every pass starts from a fresh import and fresh inputs, so a memo in
    the library serves a pass only what that pass built itself."""
    passes = run.pass_inputs("hn_sweep", 1, [])
    misses, walls = [], []
    for _ in range(2):
        _, items = next(passes)
        heart = sys.modules["stabkit.heart"]
        assert hasattr(heart, "LATTICE_MISSES")
        items = sorted(items, key=lambda it: it.key)[:80]
        before = heart.LATTICE_MISSES[0]
        walls.append(run.run_pass(items)[0])
        misses.append(heart.LATTICE_MISSES[0] - before)
    assert misses[0] == misses[1] > 0  # pass 2 built every lattice again
    assert walls[1] >= 0.75 * walls[0]  # tolerance for machine noise only
    # the control: rerunning the same objects in the same library hits
    before = heart.LATTICE_MISSES[0]
    run.run_pass(items)
    assert heart.LATTICE_MISSES[0] == before


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hn_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
