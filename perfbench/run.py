"""Run one stabkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hn_sweep --seed 1 --seconds 40 --trace 0

Imports stabkit from ``src/`` next to this directory.  Setup (import plus
input generation) is done SETUP_REPEATS times and its median reported.
Then the run makes passes over the items until ``--seconds`` are spent,
and at least MIN_PASSES.  Every pass starts from a fresh setup of its
own, outside its timed region, whose time counts as one more setup
sample: stabkit is imported anew and the items are decoded anew, so a
cache kept in a module or on an input object serves only the traffic
within one pass, never the repeat of a pass.  Every item's outputs are
checked against the golden files after its pass.  The time metrics come
from each item's median latency over the passes.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate, the per-layer metrics come from
the traced ones and the spans are written to ``perfbench/out/``.  The line before it is a JSON record of
the machine, the sample counts and the verdict digest, which must not
depend on ``--trace``.

The harness times only its own process.  It pins no CPU, drops no cache
and changes no machine setting, so noise shows as spread between runs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 11
MIN_PASSES = 3  # untraced passes per run, so each item's median has 3 samples

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "quiver.lattice_builds": "count",
    "quiver.lattice_builds_per_rep": "ratio",
    "quiver.lattice_build_s": "s",
    "quiver.lattice_entries_mean": "count",
    "quiver.lattice_entries_max": "count",
    "heart.hn_calls": "count",
    "heart.hn_self_s": "s",
    "heart.oracle_calls": "count",
    "heart.oracle_self_s": "s",
    "heart.semistable_calls": "count",
    "heart.semistable_self_s": "s",
    "heart.sweep_self_s": "s",
    "exact.phase_cmp_calls": "count",
    "exact.phase_cmp_s": "s",
    "quiver.hom_space_calls": "count",
    "quiver.hom_space_s": "s",
    "quiver.ext1_calls": "count",
    "quiver.ext1_s": "s",
    "quiver.enumerate_reps_s": "s",
    "lattice.enumerate_delta_calls": "count",
    "lattice.enumerate_delta_s": "s",
    "lattice.deltas_enumerated": "count",
    "lattice.deltas_pos_rank_ratio": "ratio",
    "k3.wall_scan_self_s": "s",
    "k3.walls": "count",
    "k3.walls_irrational": "count",
    "report.render_s": "s",
    "report.bytes": "B",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def fresh_setup(workload: str, seed: int):
    """Import stabkit and the workload module from scratch and generate
    the run's inputs; returns (seconds, workloads module, items)."""
    for name in list(sys.modules):
        if name in ("stabkit", "workloads") or name.startswith("stabkit."):
            del sys.modules[name]
    started = perf_counter()
    wl = importlib.import_module("workloads")
    items = wl.generate(workload, seed)
    return perf_counter() - started, wl, items


def pass_inputs(workload: str, seed: int, setup_samples: list):
    """(workloads module, items) for pass after pass, each from its own
    fresh setup, whose time is appended to ``setup_samples``.  So no pass
    sees a library module or an input object that an earlier pass used."""
    while True:
        seconds, wl, items = fresh_setup(workload, seed)
        setup_samples.append(seconds)
        yield wl, items


def run_pass(items: list, tracer=None):
    """Run every item once; returns (wall seconds, latencies, outputs).
    An item that raises yields None, which fails its check."""
    latencies, outputs = [], []
    item_nid = tracer.name_id("bench.item") if tracer else None
    started = perf_counter()
    for idx, item in enumerate(items):
        if tracer:
            tracer.item_id = idx
            tracer.begin(item_nid)
        t0 = perf_counter()
        try:
            out = item.run(*item.args)
        except Exception:  # a failed item is counted, and the run goes on
            traceback.print_exc()
            out = None
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.finish()
        outputs.append(out)
    return perf_counter() - started, latencies, outputs


def check_pass(wl, workload: str, items: list, outputs: list):
    """(failed items, verdict digest) of one pass."""
    failed = 0
    digest = hashlib.sha256()
    for item, out in zip(items, outputs):
        try:
            ok = out is not None and wl.check(workload, out, item.expect)
            text = wl.canonical(workload, out) if out is not None else "error"
        except Exception:
            traceback.print_exc()
            ok, text = False, "error"
        failed += not ok
        digest.update(item.key.encode() + b"\0" + text.encode() + b"\n")
    return failed, digest.hexdigest()


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def git_commit():
    """The commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("hn_sweep", "principles_sweep", "wall_scan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stabkit" / "__init__.py").is_file():
        print(f"perfbench: no stabkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        seconds, wl, items = fresh_setup(args.workload, args.seed)
        setup_samples.append(seconds)
    import stabkit

    if Path(stabkit.__file__).resolve().parent != (SRC / "stabkit").resolve():
        print(f"perfbench: stabkit was imported from {stabkit.__file__}", file=sys.stderr)
        return 2
    import tracing

    walls, pass_latencies, traced_walls, layers, tracers = [], [], [], [], []
    attempted = failed = 0
    digests = set()
    deadline = perf_counter() + args.seconds
    for wl, items in pass_inputs(args.workload, args.seed, setup_samples):
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        tracer = tracing.Tracer() if traced else None
        undo = tracing.install(tracer) if traced else None
        try:
            wall, lat, outputs = run_pass(items, tracer)
        finally:
            if traced:
                tracing.uninstall(undo)
        bad, digest = check_pass(wl, args.workload, items, outputs)
        attempted += len(items)
        failed += bad
        digests.add(digest)
        if traced:
            traced_walls.append(wall)
            layers.append(tracing.layer_metrics(tracer))
            tracers.append(tracer)
        else:
            walls.append(wall)
            pass_latencies.append(lat)
        if args.trace:
            enough = bool(traced_walls)
        else:
            enough = len(walls) >= MIN_PASSES
        if enough and perf_counter() + wall > deadline:
            break

    latencies = [x for lat in pass_latencies for x in lat]
    # each item's median latency over the run's passes: a slow stretch of
    # the shared machine that hits one pass does not shift it
    item_medians = [statistics.median(per_item) for per_item in zip(*pass_latencies)]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "items_per_pass": len(items),
        "passes": len(walls),
        "traced_passes": len(traced_walls),
        "latency_samples": len(latencies),
        "fail_ratio": failed / attempted,
        "verdict_digest": sorted(digests),
        "setup_samples_s": setup_samples,
        "wall_samples_s": walls,
    }
    if args.trace:
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        values = {
            name: statistics.median(pass_layers[name] for pass_layers in layers)
            for name in layers[0]
        }
        values["trace.overhead_ratio"] = overhead
        trace_path = OUT / f"trace_{args.workload}_seed{args.seed}.json.gz"
        tracing.write_spans(trace_path, tracers)
        record["traced_wall_samples_s"] = traced_walls
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": sum(item_medians),
            "item_p50_ms": percentile(item_medians, 0.50) * 1e3,
            "item_p90_ms": percentile(item_medians, 0.90) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:>14.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
