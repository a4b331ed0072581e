"""In-memory spans around the calls each stabkit layer makes into the next.

A traced run replaces library functions *where the calling module binds
them* (``heart.SubobjectLattice``, ``heart.hom_space``,
``k3.enumerate_delta``, ...) by wrappers that record a span: name, start,
end, parent span and item id.  A span's self time is its duration minus
the durations of its child spans.  ``PhaseValue`` subtraction and sign,
which every phase comparison goes through, are wrapped on the class.
Nothing is patched in an untraced run, and ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans of one traced pass, stored column-wise."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack: list = []  # [span id, start, time covered by children]
        self.item_id = -1
        self.counts: Counter = Counter()
        self.entries: list = []  # subobject-lattice sizes
        self.reps: set = set()  # distinct reps a lattice was built for

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, nid: int) -> None:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.item.append(self.item_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self._stack.append([sid, perf_counter(), 0.0])

    def finish(self) -> None:
        t = perf_counter()
        sid, t0, covered = self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t
        self.self_time[sid] = (t - t0) - covered
        if self._stack:
            self._stack[-1][2] += t - t0

    # -- aggregates ----------------------------------------------------

    def summary(self) -> dict:
        """name -> [calls, total duration, total self time]."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for n, s, e, st in zip(self.name, self.start, self.end, self.self_time):
            agg = out[self.names[n]]
            agg[0] += 1
            agg[1] += e - s
            agg[2] += st
        return out

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "parent", "item", "start", "end", "self"],
            "spans": [
                [n, p, it, s, e, st]
                for n, p, it, s, e, st in zip(
                    self.name, self.parent, self.item, self.start, self.end, self.self_time
                )
            ],
        }


def _wrap(tracer: Tracer, name: str, fn, after=None):
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish()
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    """One span per ``next``: the time spent producing each element."""
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            tracer.begin(nid)
            try:
                x = next(it)
            except StopIteration:
                return
            finally:
                tracer.finish()
            yield x

    return traced


def _after_lattice(tracer, args, lat):
    E = args[0]
    tracer.entries.append(len(lat))
    tracer.reps.add((E.dims, E.mats))


def _after_delta(tracer, args, deltas):
    tracer.counts["deltas"] += len(deltas)
    tracer.counts["deltas_pos_rank"] += sum(1 for d in deltas if d.r > 0)


def _after_scan(tracer, args, res):
    tracer.counts["walls"] += len(res.walls)
    tracer.counts["walls_irrational"] += sum(1 for w in res.walls if not w.t_is_rational())


def _after_render(tracer, args, text):
    tracer.counts["report_bytes"] += len(text.encode())


HEART_SPANS = ("hn_filtration", "hn_oracle", "is_semistable")
SWEEP_SPANS = ("hom_principles_check", "slicing_hom_vanishing", "slicing_distance")
REPORT_SPANS = ("walls_csv", "scan_ticks_svg", "chamber_plot_svg")


def install(tracer: Tracer) -> list:
    """Patch the library; returns what ``uninstall`` needs to undo it."""
    from stabkit import exact, heart, k3, report

    patches = [
        (heart, "SubobjectLattice", _wrap(tracer, "quiver.SubobjectLattice", heart.SubobjectLattice, _after_lattice)),
        (heart, "hom_space", _wrap(tracer, "quiver.hom_space", heart.hom_space)),
        (heart, "ext1_dim", _wrap(tracer, "quiver.ext1_dim", heart.ext1_dim)),
        (heart, "enumerate_reps", _wrap_generator(tracer, "quiver.enumerate_reps", heart.enumerate_reps)),
        (exact.PhaseValue, "__sub__", _wrap(tracer, "exact.PhaseValue.__sub__", exact.PhaseValue.__sub__)),
        (exact.PhaseValue, "sign", _wrap(tracer, "exact.PhaseValue.sign", exact.PhaseValue.sign)),
        (k3, "enumerate_delta", _wrap(tracer, "lattice.enumerate_delta", k3.enumerate_delta, _after_delta)),
        (k3, "wall_scan", _wrap(tracer, "k3.wall_scan", k3.wall_scan, _after_scan)),
    ]
    for fn in HEART_SPANS + SWEEP_SPANS:
        patches.append((heart, fn, _wrap(tracer, f"heart.{fn}", getattr(heart, fn))))
    for fn in REPORT_SPANS:
        patches.append((report, fn, _wrap(tracer, f"report.{fn}", getattr(report, fn), _after_render)))
    undo = []
    for owner, attr, wrapper in patches:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer numbers of one traced pass."""
    agg = tracer.summary()

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_total(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    builds = calls("quiver.SubobjectLattice")
    deltas = tracer.counts["deltas"]
    return {
        "quiver.lattice_builds": builds,
        "quiver.lattice_builds_per_rep": builds / len(tracer.reps) if tracer.reps else 0.0,
        "quiver.lattice_build_s": total("quiver.SubobjectLattice"),
        "quiver.lattice_entries_mean": statistics.fmean(tracer.entries) if tracer.entries else 0.0,
        "quiver.lattice_entries_max": max(tracer.entries, default=0),
        "heart.hn_calls": calls("heart.hn_filtration"),
        "heart.hn_self_s": self_total("heart.hn_filtration"),
        "heart.oracle_calls": calls("heart.hn_oracle"),
        "heart.oracle_self_s": self_total("heart.hn_oracle"),
        "heart.semistable_calls": calls("heart.is_semistable"),
        "heart.semistable_self_s": self_total("heart.is_semistable"),
        "heart.sweep_self_s": self_total(*(f"heart.{n}" for n in SWEEP_SPANS)),
        "exact.phase_cmp_calls": calls("exact.PhaseValue.sign"),
        "exact.phase_cmp_s": total("exact.PhaseValue.__sub__", "exact.PhaseValue.sign"),
        "quiver.hom_space_calls": calls("quiver.hom_space"),
        "quiver.hom_space_s": total("quiver.hom_space"),
        "quiver.ext1_calls": calls("quiver.ext1_dim"),
        "quiver.ext1_s": total("quiver.ext1_dim"),
        "quiver.enumerate_reps_s": total("quiver.enumerate_reps"),
        "lattice.enumerate_delta_calls": calls("lattice.enumerate_delta"),
        "lattice.enumerate_delta_s": total("lattice.enumerate_delta"),
        "lattice.deltas_enumerated": deltas,
        "lattice.deltas_pos_rank_ratio": tracer.counts["deltas_pos_rank"] / deltas if deltas else 0.0,
        "k3.wall_scan_self_s": self_total("k3.wall_scan"),
        "k3.walls": tracer.counts["walls"],
        "k3.walls_irrational": tracer.counts["walls_irrational"],
        "report.render_s": self_total(*(f"report.{n}" for n in REPORT_SPANS)),
        "report.bytes": tracer.counts["report_bytes"],
        "trace.spans": len(tracer.name),
    }


def write_spans(path, tracers: list) -> None:
    """All traced passes' spans, one JSON document per pass, gzipped."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump([t.to_json() for t in tracers], fh, separators=(",", ":"))
