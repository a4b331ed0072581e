"""Deterministic report writers: CSV, JSON and SVG.

Data columns carry exact values: rationals as 'p/q', quadratic surds as
'(a)+(b)*sqrt(d)'.  Floats appear only in SVG coordinates.  Outputs are
byte-deterministic for a given input; metadata lives in '#' comment
lines, never timestamps.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from . import k3
from .exact import Quad, frac_str
from .k3 import AffinePath, WallScanResult, spherical_guard, K3CentralCharge
from .lattice import DeltaBox, NSLattice


def t_str(t) -> str:
    if isinstance(t, Quad):
        if t.is_rational():
            return frac_str(t.as_fraction())
        return f"({frac_str(t.a)})+({frac_str(t.b)})*sqrt({t.d})"
    return frac_str(t)


def t_json(t):
    return t.to_json() if isinstance(t, Quad) else frac_str(t)


def _class_json(v) -> dict:
    """A Mukai class as {"r", "l", "s"} with integer entries."""
    return {"r": int(v.r), "l": [int(x) for x in v.l], "s": int(v.s)}


# ---------------------------------------------------------------------------
# wall scans


def walls_csv(result: WallScanResult, rank: int, header_note: str = "") -> str:
    lines = []
    if header_note:
        lines.append(f"# {header_note}")
    lines.append(f"# truncated={str(result.truncated).lower()}")
    cols = ["t", "kind", "r"] + [f"l{i+1}" for i in range(rank)] + ["s", "k"]
    lines.append(",".join(cols))
    for w in result.walls:
        k = "" if w.detail is None else str(w.detail[1])
        row = [t_str(w.t), w.kind, str(w.witness.r)]
        row += [str(x) for x in w.witness.l]
        row += [str(w.witness.s), k]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def walls_json(result: WallScanResult, header_note: str = "") -> str:
    data = {
        "note": header_note,
        "truncated": result.truncated,
        "k_bound": result.k_bound,
        "walls": [
            {
                "t": t_json(w.t),
                "kind": w.kind,
                "witness": _class_json(w.witness),
                "k": None if w.detail is None else w.detail[1],
            }
            for w in result.walls
        ],
        "degenerate_witnesses": [_class_json(d) for d in result.degenerate_witnesses],
        "skipped_k": [
            {"t": t_json(t), "curve": [int(x) for x in c], "k": k}
            for t, c, k in result.skipped_k
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# a tiny SVG builder


class SVG:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.items: list[str] = []

    def rect(self, x, y, w, h, fill):
        self.items.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" fill-opacity="1.00" stroke="none"/>'
        )

    def line(self, x1, y1, x2, y2, stroke="#000", width=1.0):
        self.items.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width:.2f}"/>'
        )

    def polyline(self, points, stroke="#000"):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.items.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.50"/>'
        )

    def circle(self, x, y, r, fill="#000"):
        self.items.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{fill}"/>'
        )

    def text(self, x, y, s, size=11, anchor="start", fill="#000"):
        self.items.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
            f'font-family="monospace" text-anchor="{anchor}" fill="{fill}">{s}</text>'
        )

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
        )
        return head + "\n".join(self.items) + "\n</svg>\n"


_WALL_COLORS = ["#b2182b", "#2166ac", "#1b7837", "#762a83", "#e08214", "#543005"]


def scan_ticks_svg(result: WallScanResult, t0: Fraction, t1: Fraction) -> str:
    """One-parameter scan picture: the t-axis with wall ticks and a legend."""
    width, height = 640.0, 160.0
    pad = 50.0
    svg = SVG(width, height)
    axis_y = 70.0
    svg.line(pad, axis_y, width - pad, axis_y, "#333", 1.5)
    span = float(t1) - float(t0) or 1.0

    def sx(tval: float) -> float:
        return pad + (tval - float(t0)) / span * (width - 2 * pad)

    svg.text(pad, axis_y + 20, f"t={frac_str(t0)}", anchor="middle")
    svg.text(width - pad, axis_y + 20, f"t={frac_str(t1)}", anchor="middle")
    witnesses = []
    for w in result.walls:
        key = (w.kind, w.witness.coords())
        if key not in witnesses:
            witnesses.append(key)
    for w in result.walls:
        key = (w.kind, w.witness.coords())
        color = _WALL_COLORS[witnesses.index(key) % len(_WALL_COLORS)]
        x = sx(float(w.t))
        svg.line(x, axis_y - 18, x, axis_y + 8, color, 2.0)
        svg.text(x, axis_y - 24, t_str(w.t), size=9, anchor="middle", fill=color)
    for i, (kind, coords) in enumerate(witnesses):
        color = _WALL_COLORS[i % len(_WALL_COLORS)]
        y = height - 34 + 12 * (i // 3)
        x = pad + 190 * (i % 3)
        svg.line(x, y - 4, x + 14, y - 4, color, 2.0)
        svg.text(x + 18, y, f"{kind}: {coords}", size=9)
    return svg.render()


def chamber_plot_svg(
    lat: NSLattice,
    B_of_u: AffinePath,
    omega_of_t: AffinePath,
    u0: Fraction,
    u1: Fraction,
    t0: Fraction,
    t1: Fraction,
    bounds: DeltaBox,
    k_bound: Optional[int] = None,
    columns: int = 48,
) -> str:
    """Two-parameter chamber picture over the (u, t) rectangle: B moves
    with u, omega with t.

    Wall curves are traced by running the exact one-parameter t-scan on
    each sampled u-column (no root is ever floated before plotting); the
    columns share one enumeration of the boxed (-2)-classes.  Chambers
    are shaded by how many walls lie below each cell in its column;
    cells where omega leaves the positive cone are gray.
    """
    width, height = 640.0, 560.0
    pad = 56.0
    svg = SVG(width, height)
    uspan = float(u1) - float(u0) or 1.0
    tspan = float(t1) - float(t0) or 1.0

    def sx(uval: float) -> float:
        return pad + (uval - float(u0)) / uspan * (width - 2 * pad)

    def sy(tval: float) -> float:
        return height - pad - (tval - float(t0)) / tspan * (height - 2 * pad)

    # one exact scan per column, reused for shading and wall traces
    lo, hi = k3._check_scan(lat, B_of_u, omega_of_t, t0, t1)
    deltas = k3.enumerate_delta(lat, bounds)
    column_walls = []
    for i in range(columns + 1):
        uc = u0 + (u1 - u0) * Fraction(i, columns)
        B = AffinePath.constant(B_of_u.at(uc))
        res = k3._scan(lat, B, omega_of_t, lo, hi, deltas, k_bound)
        column_walls.append((uc, res.walls))

    shades = ("#f7fbff", "#deebf7", "#c6dbef", "#9ecae1", "#6baed6")
    rows = 24
    for i in range(columns):
        uc, walls = column_walls[i]
        cuts = sorted(float(w.t) for w in walls)
        x0 = sx(float(u0 + (u1 - u0) * Fraction(i, columns)))
        x1_ = sx(float(u0 + (u1 - u0) * Fraction(i + 1, columns)))
        for j in range(rows):
            tc = t0 + (t1 - t0) * Fraction(2 * j + 1, 2 * rows)
            omega = omega_of_t.at(tc)
            if lat.ns_dot(omega, omega) <= 0:
                fill = "#bbbbbb"
            else:
                level = sum(1 for c in cuts if c < float(tc))
                fill = shades[level % len(shades)]
            y1_ = sy(float(t0 + (t1 - t0) * Fraction(j, rows)))
            y0_ = sy(float(t0 + (t1 - t0) * Fraction(j + 1, rows)))
            svg.rect(x0, y0_, x1_ - x0, y1_ - y0_, fill)

    traces: dict = {}
    for uc, walls in column_walls:
        for w in walls:
            key = (w.kind, w.witness.coords())
            traces.setdefault(key, []).append((float(uc), float(w.t)))
    legend = sorted(traces)
    for key in legend:
        pts = sorted(traces[key])
        color = _WALL_COLORS[legend.index(key) % len(_WALL_COLORS)]
        # split into contiguous runs (a wall may enter/leave the window)
        run: list = []
        prev_u = None
        step = uspan / columns
        for u, t in pts:
            if prev_u is not None and u - prev_u > 1.5 * step:
                if len(run) > 1:
                    svg.polyline([(sx(a), sy(b)) for a, b in run], color)
                run = []
            run.append((u, t))
            prev_u = u
        if len(run) > 1:
            svg.polyline([(sx(a), sy(b)) for a, b in run], color)
        elif len(run) == 1:
            svg.circle(sx(run[0][0]), sy(run[0][1]), 2.0, color)

    svg.line(pad, height - pad, width - pad, height - pad, "#333", 1.2)
    svg.line(pad, pad, pad, height - pad, "#333", 1.2)
    svg.text(width / 2, height - pad + 28, "u (B-direction)", anchor="middle")
    svg.text(pad - 40, pad - 14, "t (omega)", size=11)
    svg.text(pad, pad - 34, f"u in [{frac_str(u0)},{frac_str(u1)}]  t in [{frac_str(t0)},{frac_str(t1)}]", size=10)
    for i, key in enumerate(legend):
        color = _WALL_COLORS[i % len(_WALL_COLORS)]
        y = pad + 14 * i
        svg.line(width - pad - 150, y, width - pad - 136, y, color, 2.0)
        svg.text(width - pad - 130, y + 3, f"{key[0]}: {key[1]}", size=9, fill=color)
    return svg.render()


# ---------------------------------------------------------------------------
# misc JSON reports


def heart_image_json(report) -> str:
    data = {
        "note": "",
        "checked": report.checked,
        "ok": report.ok,
        "guard_truncated": report.guard.truncated,
        "violations": [
            {
                "v": _class_json(v),
                "branch": branch,
                "Z": [frac_str(z.re), frac_str(z.im)],
            }
            for v, branch, z in report.violations
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def polygon_csv(poly, note: str = "") -> str:
    lines = []
    if note:
        lines.append(f"# {note}")
    lines.append("re,im")
    for v in poly.vertices:
        lines.append(f"{frac_str(v.re)},{frac_str(v.im)}")
    return "\n".join(lines) + "\n"


def hn_text(hn, zc) -> str:
    """Printable filtration diagram for a heart-engine HN result."""
    lines = []
    chain = " < ".join(str(d) for d in hn.chain_dims)
    lines.append(f"chain: {chain}")
    for i, (cls, phi) in enumerate(hn.factors):
        lines.append(
            f"factor {i + 1}: class {cls}  phase {float(phi):.6f}"
            + (f" (= {frac_str(phi.as_fraction())})" if phi.is_rational() else "")
        )
    return "\n".join(lines) + "\n"
