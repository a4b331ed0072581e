"""Command line front end.

Exit codes: 0 success, 1 mathematical violation or negative verdict,
2 invalid input, 3 internal error (a failed invariant or any other
uncaught exception).  All data outputs are byte-deterministic; metadata goes
into '#' comment lines.  STABKIT_BOUND overrides the default enumeration
bounds.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
import traceback
from fractions import Fraction

from .curve import (
    CurveCharge,
    CurveClass,
    NotInOrbit,
    gl_orbit_decompose,
    hn_polygon,
    phase_order_check,
)
from .exact import ExactnessError, RatComplex, frac_str
from .gl import GLTildeElement, act_on_charge, commute_check, compose
from .heart import (
    HeartCharge,
    deformation_test,
    hn_filtration,
    hom_principles_check,
    is_semistable,
    jh_filtration,
    local_finiteness_probe,
    slicing_hom_vanishing,
    tilt_heart_check,
)
from .k3 import (
    AffinePath,
    GuardViolation,
    K3CentralCharge,
    extract_omega_beta,
    heart_image_check,
    normalize_to_exp_form,
    spherical_guard,
    wall_scan,
)
from .lattice import (
    ComplexMukaiVector,
    DeltaBox,
    InputError,
    MukaiVector,
    NSLattice,
    load_lattice,
    matrix_to_images,
    reflection_matrix,
    exp_action_matrix,
    basis_vectors,
)
from .quiver import Quiver, QuiverRep, ResourceBound, load_quiver_config
from . import report


def default_bound() -> int:
    """STABKIT_BOUND if set, else 4."""
    env = os.environ.get("STABKIT_BOUND")
    try:
        bound = int(env) if env else 4
    except ValueError:
        raise InputError(f"STABKIT_BOUND must be an integer, got {env!r}")
    if bound < 0:
        raise InputError(f"STABKIT_BOUND must be nonnegative, got {env!r}")
    return bound


# ---------------------------------------------------------------------------
# small parsers


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a rational: {text!r}") from None


def _option(name: str, parse, *args):
    """parse(*args) on the value of the option name, which then prefixes
    the message of an InputError."""
    try:
        return parse(*args)
    except InputError as exc:
        raise InputError(f"{name}: {exc}") from None


def _json_file(name: str, load, path):
    """load(path) for the file of option name; a JSON syntax error names both."""
    try:
        return load(path)
    except json.JSONDecodeError as exc:
        raise InputError(f"{name}: {path}: {exc}") from None


def parse_range(text: str) -> tuple[Fraction, Fraction]:
    if ".." in text:
        a, b = text.split("..", 1)
        return parse_rational(a), parse_rational(b)
    v = parse_rational(text)
    return v, v


def _split_outside_brackets(expr: str, seps: str, keep_sep: bool) -> list[str]:
    """Split at the characters of seps that lie outside [...]; a kept
    separator starts the next piece."""
    out = []
    depth = 0
    cur = ""
    for ch in expr:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in seps and depth == 0 and cur.strip():
            out.append(cur)
            cur = ch if keep_sep else ""
        else:
            cur += ch
    if cur.strip():
        out.append(cur)
    return out


def parse_path_expr(expr: str, rank: int, variables=("t", "u")) -> dict:
    """Parse an affine vector expression like 't*h', 'e1 + t*e2', or
    '1/2*[1,0] - u*h' into {None: const, 't': lin_t, 'u': lin_u}."""
    expr = expr.strip()
    zero = tuple(Fraction(0) for _ in range(rank))
    parts = {None: zero, **{v: zero for v in variables}}
    if expr in ("0", ""):
        return parts
    for term in _split_outside_brackets(expr, "+-", keep_sep=True):
        term = term.replace(" ", "")
        sign = Fraction(1)
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        coef = sign
        var = None
        basis = None
        for f in _split_outside_brackets(term, "*", keep_sep=False):
            if f in variables:
                if var is not None:
                    raise InputError(f"term {term!r} is not affine")
                var = f
            elif f == "h":
                if rank != 1 and basis is not None:
                    raise InputError("h is shorthand for e1")
                b = [Fraction(0)] * rank
                b[0] = Fraction(1)
                basis = tuple(b)
            elif re.fullmatch(r"e\d+", f):
                k = int(f[1:])
                if not 1 <= k <= rank:
                    raise InputError(f"basis vector {f} out of range")
                b = [Fraction(0)] * rank
                b[k - 1] = Fraction(1)
                basis = tuple(b)
            elif f.startswith("["):
                vals = f[1:-1].split(",")
                if len(vals) != rank:
                    raise InputError(f"vector {f} has wrong length")
                basis = tuple(parse_rational(x) for x in vals)
            else:
                coef *= parse_rational(f.strip("()"))
        if basis is None:
            raise InputError(f"term {term!r} has no basis vector")
        scaled = tuple(coef * x for x in basis)
        parts[var] = tuple(a + b for a, b in zip(parts[var], scaled))
    return parts


def parse_matrix2(text: str):
    rows = [r for r in text.split(";") if r.strip()]
    return tuple(tuple(parse_rational(x) for x in row.split(",")) for row in rows)


def parse_mukai_vector(text: str, rank: int) -> MukaiVector:
    vals = [parse_rational(x) for x in text.split(",")]
    if len(vals) != rank + 2:
        raise InputError(f"expected {rank + 2} coordinates, got {len(vals)}")
    return MukaiVector.from_coords(tuple(vals))


def _int_array(value, depth: int) -> bool:
    """Whether value is an int (depth 0), or a list or tuple of int arrays
    of depth - 1."""
    if depth == 0:
        return isinstance(value, int)
    return isinstance(value, (list, tuple)) and all(_int_array(v, depth - 1) for v in value)


def parse_rep(spec: str, Q: Quiver) -> QuiverRep:
    fields = {}
    for part in spec.split(";"):
        if not part.strip():
            continue
        key, sep, val = (x.strip() for x in part.partition("="))
        if not sep:
            raise InputError(f"--rep expects dims=[...];f=[...], got {spec!r}")
        if key not in ("dims", "f"):
            raise InputError(f"--rep has no key {key!r}: use dims=[...];f=[...]")
        if key in fields:
            raise InputError(f"--rep names {key} twice")
        try:
            fields[key] = ast.literal_eval(val)
        except (ValueError, TypeError, SyntaxError):
            raise InputError(f"--rep {key} must be a Python literal, got {val!r}") from None
    if "dims" not in fields:
        raise InputError("rep spec needs dims=[...]")
    dims = fields["dims"]
    if not _int_array(dims, 1):
        raise InputError(f"--rep dims must be a list of integers, got {dims!r}")
    if any(d < 0 for d in dims):
        raise InputError(f"--rep dims must be nonnegative, got {dims!r}")
    mats = fields.get("f", [])
    if len(Q.arrows) == 1 and mats and not (
        isinstance(mats, list) and isinstance(mats[0], list) and mats[0]
        and isinstance(mats[0][0], list)
    ):
        mats = [mats]
    if not _int_array(mats, 3):
        raise InputError(f"--rep f must be a list of integer matrices, got {fields['f']!r}")
    if len(mats) != len(Q.arrows):
        raise InputError(
            f"need {len(Q.arrows)} matrices (got {len(mats)}); "
            "for one arrow, f=[[...]] is the matrix itself"
        )
    return QuiverRep(dims, tuple(tuple(tuple(r) for r in m) for m in mats), Q)


def parse_torsion_predicate(spec: str, n: int):
    """The torsion class named by spec, on a quiver with n vertices."""
    spec = spec.strip()
    if spec == "all":
        return lambda E: True
    if spec == "none":
        return lambda E: E.is_zero()
    m = re.fullmatch(r"d(\d+)=0", spec)
    if m:
        idx = int(m.group(1))
        if idx >= n:
            raise InputError(f"torsion class {spec!r}: no vertex {idx} in a quiver with {n}")
        return lambda E: E.dims[idx] == 0
    raise InputError(
        f"unknown torsion class {spec!r}: use 'all', 'none' or 'd<i>=0'"
    )


def parse_iso(spec: str, lat: NSLattice):
    if spec == "identity":
        return basis_vectors(lat)
    if spec == "minus":
        return [-e for e in basis_vectors(lat)]
    if spec.startswith("reflection:"):
        d = parse_mukai_vector(spec.split(":", 1)[1], lat.rank)
        return matrix_to_images(reflection_matrix(d, lat), lat)
    if spec.startswith("tensor:"):
        vals = [parse_rational(x) for x in spec.split(":", 1)[1].split(",")]
        return matrix_to_images(exp_action_matrix(vals, lat), lat)
    raise InputError(
        f"unknown isometry {spec!r}: use identity, minus, reflection:r,l..,s "
        "or tensor:b1,..,bk"
    )


def parse_bound_pair(text: str) -> tuple:
    try:
        bound = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"--bound expects n,n,..., got {text!r}")
    if min(bound) < 0:
        raise InputError(f"--bound entries must be nonnegative, got {text!r}")
    return bound


def _write(path, content: str):
    """Write content to stdout ('-' or None) or to a file.  A regular file
    is written under a temporary name beside it and then moved over the
    target, so a failed write never leaves the target half-written."""
    if path == "-" or path is None:
        sys.stdout.write(content)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:  # a device or a pipe cannot be replaced
            fh.write(content)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _nonnegative(name: str, value: int) -> int:
    if value < 0:
        raise InputError(f"{name} must be nonnegative, got {value}")
    return value


def _box_bound(args) -> int:
    """--bound of a k3 command, else STABKIT_BOUND, else the default."""
    return default_bound() if args.bound is None else _nonnegative("--bound", args.bound)


def _charged_quiver(args):
    Q, zc = _json_file("--config", load_quiver_config, args.config)
    if zc is None:
        raise InputError("quiver config has no charge")
    return Q, zc


def _vertex_bound(args, Q: Quiver) -> tuple:
    """--bound of a quiver sweep, else 2 at every vertex."""
    return parse_bound_pair(args.bound) if args.bound else (2,) * Q.n


def _mukai_charge(args, lat: NSLattice) -> ComplexMukaiVector:
    return ComplexMukaiVector(
        _option("--re", parse_mukai_vector, args.re, lat.rank),
        _option("--im", parse_mukai_vector, args.im, lat.rank),
    )


# ---------------------------------------------------------------------------
# k3 commands


def cmd_k3_scan(args) -> int:
    lat = _json_file("--lattice", load_lattice, args.lattice)
    b_parts = _option("--B", parse_path_expr, args.B, lat.rank)
    w_parts = _option("--omega", parse_path_expr, args.omega, lat.rank)
    t0, t1 = _option("--t", parse_range, args.t)
    k_bound = _nonnegative("--k-bound", args.k_bound)
    bound = _box_bound(args)
    box = DeltaBox.cube(bound)
    note = f"stabkit k3 scan B=({args.B}) omega=({args.omega}) t={args.t} bound={bound}"
    if args.u is not None:
        u0, u1 = _option("--u", parse_range, args.u)
        if any(x != 0 for x in w_parts["u"]) or any(x != 0 for x in b_parts["t"]):
            raise InputError("two-parameter plots need B affine in u and omega in t")
        if not args.svg:
            raise InputError("a two-parameter scan is only emitted as SVG")
        if args.output != "-" or args.json is not None:
            raise InputError("a two-parameter scan (--u) writes only --svg, not -o or --json")
        B_of_u = AffinePath(b_parts[None], b_parts["u"])
        omega_of_t = AffinePath(w_parts[None], w_parts["t"])
        svg = report.chamber_plot_svg(lat, B_of_u, omega_of_t, u0, u1, t0, t1, box, k_bound)
        _write(args.svg, svg)
        return 0
    if any(x != 0 for x in b_parts["u"]) or any(x != 0 for x in w_parts["u"]):
        raise InputError("u appears in the paths but no --u range was given")
    B_path = AffinePath(b_parts[None], b_parts["t"])
    omega_path = AffinePath(w_parts[None], w_parts["t"])
    res = wall_scan(lat, B_path, omega_path, t0, t1, box, k_bound)
    _write(args.output, report.walls_csv(res, lat.rank, note))
    if args.json:
        _write(args.json, report.walls_json(res, note))
    if args.svg:
        _write(args.svg, report.scan_ticks_svg(res, t0, t1))
    return 0


def _charge_at(args, lat) -> K3CentralCharge:
    b_parts = _option("--B", parse_path_expr, args.B, lat.rank, ("t",))
    w_parts = _option("--omega", parse_path_expr, args.omega, lat.rank, ("t",))
    t = _option("--t", parse_rational, args.t) if args.t is not None else Fraction(0)
    B = AffinePath(b_parts[None], b_parts["t"]).at(t)
    omega = AffinePath(w_parts[None], w_parts["t"]).at(t)
    return K3CentralCharge(lat, B, omega)


def cmd_k3_guard(args) -> int:
    lat = _json_file("--lattice", load_lattice, args.lattice)
    zc = _charge_at(args, lat)
    res = spherical_guard(zc, DeltaBox.cube(_box_bound(args)))
    if res.ok:
        print(f"ok (truncated={str(res.truncated).lower()})")
        return 0
    print(f"violation: delta={res.witness} Z={res.witness_value}")
    return 1


def cmd_k3_heart_check(args) -> int:
    lat = _json_file("--lattice", load_lattice, args.lattice)
    zc = _charge_at(args, lat)
    try:
        rep = heart_image_check(zc, DeltaBox.cube(_box_bound(args)))
    except GuardViolation as exc:
        print(f"guard violation: {exc}")
        return 1
    if args.json:
        _write(args.json, report.heart_image_json(rep))
    print(f"checked {rep.checked} classes, violations: {len(rep.violations)}")
    return 0 if rep.ok else 1


def cmd_k3_normalize(args) -> int:
    lat = _json_file("--lattice", load_lattice, args.lattice)
    om = _mukai_charge(args, lat)
    try:
        nf = normalize_to_exp_form(om, lat)
    except InputError as exc:
        print(f"not normalizable: {exc}")
        return 1
    print("M =", [[str(x) for x in row] for row in nf.matrix])
    print("B =", [str(x) for x in nf.B])
    print("omega =", [str(x) for x in nf.omega])
    if args.slope_form:
        form = extract_omega_beta(om, lat)
        print(f"scale = {frac_str(form.scale)}  beta = {frac_str(form.beta)}")
    return 0


# ---------------------------------------------------------------------------
# quiver commands


def cmd_quiver_hn(args) -> int:
    Q, zc = _charged_quiver(args)
    E = parse_rep(args.rep, Q)
    hn = hn_filtration(E, zc, Q)
    sys.stdout.write(report.hn_text(hn, zc))
    return 0


def cmd_quiver_jh(args) -> int:
    Q, zc = _charged_quiver(args)
    E = parse_rep(args.rep, Q)
    verdict = is_semistable(E, zc, Q)
    if not verdict.is_semistable():
        print(f"unstable: witness dims {verdict.witness_dims}")
        return 1
    factors = jh_filtration(E, zc, Q)
    for i, cls in enumerate(factors):
        print(f"stable factor {i + 1}: class {cls}")
    return 0


def cmd_quiver_check(args) -> int:
    Q, zc = _charged_quiver(args)
    bound = _vertex_bound(args, Q)
    if args.suite == "gp":
        rep = hom_principles_check(zc, Q, bound)
        data = {"suite": "gp", "ok": rep.ok, "checked": rep.checked_pairs,
                "failures": [list(map(str, f)) for f in rep.failures]}
    elif args.suite == "slicing":
        checked, failures = slicing_hom_vanishing(zc, Q, bound)
        data = {"suite": "slicing", "ok": not failures, "checked": checked,
                "failures": [list(map(str, f)) for f in failures]}
    else:  # local-finiteness
        eta = _option("--eta", parse_rational, args.eta) if args.eta else Fraction(1, 2)
        rep = local_finiteness_probe(zc, Q, eta, bound)
        data = {"suite": "local-finiteness", "chain_bound": rep.chain_bound,
                "slices": [list(s) for s in rep.slices]}
    out = json.dumps(data, indent=2, sort_keys=True) + "\n"
    _write(args.json, out)
    return 0 if data.get("ok", True) else 1


def cmd_quiver_deform(args) -> int:
    Q, zc = _charged_quiver(args)
    bound = _vertex_bound(args, Q)
    eps = _option("--eps", parse_rational, args.eps)
    if args.rotate is not None and args.perturb is not None:
        raise InputError("give --rotate or --perturb, not both")
    if args.rotate is not None:
        wc = zc.rotated(_option("--rotate", parse_rational, args.rotate))
    elif args.perturb is not None:
        deltas = {}
        for part in args.perturb.split(";"):
            try:
                idx, val = part.split(":")
                re_s, im_s = val.split(",")
                i = int(idx)
            except ValueError:
                raise InputError(f"--perturb expects i:re,im;..., got {part!r}")
            if i in deltas:
                raise InputError(f"--perturb names vertex {i} twice")
            if i not in range(Q.n):
                raise InputError(f"--perturb: no vertex {i} in a quiver with {Q.n}")
            deltas[i] = RatComplex(*(_option("--perturb", parse_rational, x) for x in (re_s, im_s)))
        new_z = [
            z + deltas.get(i, RatComplex(0, 0)) for i, z in enumerate(zc.z)
        ]
        wc = HeartCharge(new_z, zc.rot)
    else:
        raise InputError("give --rotate Q or --perturb 'i:re,im;...'")
    rep = deformation_test(zc, wc, eps, Q, bound)
    if not rep.applicable:
        print(f"not applicable: {rep.note}")
        return 0
    print(
        f"applicable: distance {float(rep.distance):.6f} "
        f"{'<' if rep.ok else '>='} eps {frac_str(eps)}"
    )
    return 0 if rep.ok else 1


def cmd_quiver_tilt(args) -> int:
    Q, _ = _json_file("--config", load_quiver_config, args.config)
    bound = _vertex_bound(args, Q)
    pred = parse_torsion_predicate(args.torsion, Q.n)
    rep = tilt_heart_check(pred, Q, bound)
    if rep.ok:
        tag = {"identity": " (tilt = original heart)", "shift": " (tilt = shifted heart)"}.get(
            rep.degenerate, ""
        )
        print(f"ok{tag}")
        return 0
    print(f"failures: {rep.failures}")
    return 1


# ---------------------------------------------------------------------------
# curve commands


def cmd_curve_decompose(args) -> int:
    zc = CurveCharge(_option("--m", parse_matrix2, args.m))
    try:
        M = gl_orbit_decompose(zc)
    except NotInOrbit as exc:
        print(f"not in orbit: {exc}")
        return 1
    print("M =", [[frac_str(x) for x in row] for row in M])
    return 0


def cmd_curve_polygon(args) -> int:
    zc = CurveCharge(_option("--m", parse_matrix2, args.m)) if args.m else CurveCharge.standard()
    parts = [_option("--parts", CurveClass.parse, p) for p in args.parts.split()]
    poly = hn_polygon(parts, zc)
    _write(args.output, report.polygon_csv(poly, f"stabkit curve polygon {args.parts}"))
    return 0


def cmd_curve_order_check(args) -> int:
    zc = CurveCharge(_option("--m", parse_matrix2, args.m)) if args.m else CurveCharge.standard()
    d0, d1 = _option("--d", parse_range, args.d)
    if d0.denominator != 1 or d1.denominator != 1:
        raise InputError(f"--d expects integer degrees, got {args.d!r}")
    if d0 > d1:
        raise InputError(f"--d is an empty parameter range, got {args.d!r}")
    ok = phase_order_check(zc, range(int(d0), int(d1) + 1))
    print("ok" if ok else "violated")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# group commands


def _element_from(name: str, arg: str) -> GLTildeElement:
    """The group element of option name, a JSON literal or a file."""
    if arg.strip().startswith("{"):
        text = arg
    else:
        with open(arg) as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{name}: {exc}") from None
    return GLTildeElement.from_json_dict(data)


def cmd_group_compose(args) -> int:
    g = _element_from("--g", args.g)
    h = _element_from("--h", args.h)
    print(json.dumps(compose(g, h).to_json_dict(), sort_keys=True))
    return 0


def cmd_group_act(args) -> int:
    g = _element_from("--g", args.g)
    if args.curve_m and (args.lattice, args.re, args.im) != (None, None, None):
        raise InputError("group act takes --curve-m, or --lattice with --re and --im, not both")
    if args.curve_m:
        out = act_on_charge(g, CurveCharge(_option("--curve-m", parse_matrix2, args.curve_m)))
        print("m =", [[frac_str(x) for x in row] for row in out.m])
        return 0
    if None in (args.lattice, args.re, args.im):
        raise InputError("group act needs --curve-m, or --lattice with --re and --im")
    lat = _json_file("--lattice", load_lattice, args.lattice)
    om = _mukai_charge(args, lat)
    out = act_on_charge(g, om)
    print("re =", out.re, " im =", out.im)
    return 0


def cmd_group_commute(args) -> int:
    lat = _json_file("--lattice", load_lattice, args.lattice)
    images = _option("--iso", parse_iso, args.iso, lat)
    g = _element_from("--g", args.g)
    om = _mukai_charge(args, lat)
    ok = commute_check(images, g, om, lat)
    print("commute" if ok else "do not commute")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# wiring


_REQUIRED = {"required": True}
_PATH = [("--lattice", _REQUIRED), ("--B", _REQUIRED), ("--omega", _REQUIRED)]
_POINT_T = ("--t", {"help": "point on the path (default 0)"})
_K3_BOUND = ("--bound", {"type": int})
_CONFIG = ("--config", _REQUIRED)

# group -> (help, {command: (function, help or None, [(flags, add_argument keywords)])})
_COMMANDS = {
    "k3": ("Mukai-lattice stability checks and scans", {
        "scan": (cmd_k3_scan, "wall scan along a (B, omega) path", [
            *_PATH, ("--t", {**_REQUIRED, "help": "range a/b..c/d"}), _K3_BOUND,
            ("--u", {"help": "second parameter range (2-parameter plot)"}),
            ("--k-bound", {"type": int, "default": 8}),
            ("-o --output", {"default": "-"}), ("--json", {}), ("--svg", {}),
        ]),
        "guard": (cmd_k3_guard, "spherical-class positivity guard",
                  [*_PATH, _POINT_T, _K3_BOUND]),
        "heart-check": (cmd_k3_heart_check, "positivity sweep over a class box",
                        [*_PATH, _POINT_T, _K3_BOUND, ("--json", {})]),
        "normalize": (cmd_k3_normalize, "bring a charge vector to exp form", [
            ("--lattice", _REQUIRED), ("--re", {**_REQUIRED, "help": "r,l1,..,s"}),
            ("--im", _REQUIRED), ("--slope-form", {"action": "store_true"}),
        ]),
    }),
    "quiver": ("finite-length heart computations", {
        "hn": (cmd_quiver_hn, "Harder-Narasimhan filtration of a rep",
               [_CONFIG, ("--rep", {**_REQUIRED, "help": "dims=[..];f=[[..]]"})]),
        "jh": (cmd_quiver_jh, "stable factors of a semistable rep",
               [_CONFIG, ("--rep", _REQUIRED)]),
        "check": (cmd_quiver_check, "exhaustive property sweeps", [
            _CONFIG, ("--suite", {**_REQUIRED, "choices": ["gp", "slicing", "local-finiteness"]}),
            ("--bound", {"help": "per-vertex dims, e.g. 2,2"}), ("--eta", {}), ("--json", {}),
        ]),
        "deform": (cmd_quiver_deform, "norm/distance deformation check", [
            _CONFIG, ("--eps", _REQUIRED), ("--bound", {}), ("--rotate", {}),
            ("--perturb", {"help": "'i:re,im;j:re,im'"}),
        ]),
        "tilt": (cmd_quiver_tilt, "torsion pair and tilt verification", [
            _CONFIG, ("--torsion", {**_REQUIRED, "help": "all | none | d<i>=0"}), ("--bound", {}),
        ]),
    }),
    "curve": ("rank/degree lattice stability", {
        "decompose": (cmd_curve_decompose, "normalize a charge to -deg + i rk",
                      [("--m", {**_REQUIRED, "help": "rows 'a,b;c,d'"})]),
        "polygon": (cmd_curve_polygon, "HN polygon of class list", [
            ("--parts", {**_REQUIRED, "help": "'r,d r,d ...'"}), ("--m", {}),
            ("-o --output", {"default": "-"}),
        ]),
        "order-check": (cmd_curve_order_check, "phase window check for line classes",
                        [("--m", {}), ("--d", {**_REQUIRED, "help": "range like -10..10"})]),
    }),
    "group": ("universal-cover and isometry actions", {
        "compose": (cmd_group_compose, None,
                    [("--g", {**_REQUIRED, "help": "JSON literal or file"}), ("--h", _REQUIRED)]),
        "act": (cmd_group_act, None, [
            ("--g", _REQUIRED), ("--lattice", {}), ("--re", {}), ("--im", {}), ("--curve-m", {}),
        ]),
        "commute": (cmd_group_commute, None, [
            ("--lattice", _REQUIRED), ("--iso", _REQUIRED), ("--g", _REQUIRED),
            ("--re", _REQUIRED), ("--im", _REQUIRED),
        ]),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of _COMMANDS; a command listed without help gets none,
    so that it shows in its group's usage only."""
    ap = argparse.ArgumentParser(prog="stabkit", description=__doc__)
    groups = ap.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in _COMMANDS.items():
        sub = groups.add_parser(group, help=group_help)
        subs = sub.add_subparsers(dest="command", required=True)
        for name, (func, help, options) in commands.items():
            cmd = subs.add_parser(name, **({"help": help} if help else {}))
            for flags, kwargs in options:
                cmd.add_argument(*flags.split(), **kwargs)
            cmd.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ResourceBound, ExactnessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InvariantError and every other defect
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
