"""Stability data on K3 numerical classes.

The central charge is Z(v) = <exp(B + i omega), v> for rational classes
B, omega in NS(X) with omega^2 > 0.  This module provides the exact
positivity/discreteness checks for such charges, the classification of
torsion sides for slope-stable classes, the normalization of a general
charge vector to exponential form, and exact wall scans along affine
paths in (B, omega).

Wall parameters are solved from integer quadratics (a scan clears its
denominators once); irrational roots are kept exactly as quadratic
surds, never floated.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Optional

from ._record import record
from .exact import PhaseValue, Quad, RatComplex, as_fraction
from .lattice import (
    ComplexMukaiVector,
    DeltaBox,
    DeltaList,
    InputError,
    InvariantError,
    MukaiVector,
    NSLattice,
    enumerate_delta,
    exp_class,
    mukai_pairing,
    mukai_square,
    point_class,
    positive_plane_check,
    vadd,
    vec,
    vscale,
    vzero,
)


class GuardViolation(InputError):
    """A spherical class with Z in R_{<=0} blocks the requested operation."""


class UndefinedPhase(InputError):
    """Phase requested for 0 or for a value outside H-bar."""


# ---------------------------------------------------------------------------
# the charge


@record
class K3CentralCharge:
    """Z = <exp(B + i omega), .> with rational B, omega and omega^2 > 0."""

    lat: NSLattice
    B: tuple
    omega: tuple
    Om: ComplexMukaiVector
    _uncompared = ("Om",)  # derived from the other fields

    def __init__(self, lat: NSLattice, B, omega):
        B = tuple(as_fraction(x) for x in B)
        omega = tuple(as_fraction(x) for x in omega)
        if lat.ns_dot(omega, omega) <= 0:
            raise InputError("omega must have positive square")
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "Om", exp_class(B, omega, lat))
        pt = central_charge(self, point_class(lat))
        if pt.re != -1 or pt.im != 0:
            raise InvariantError(f"the point class maps to {pt}, not -1")

    @property
    def beta(self) -> Fraction:
        return as_fraction(self.lat.ns_dot(self.B, self.omega))


def central_charge(zc: K3CentralCharge, v: MukaiVector) -> RatComplex:
    """Z(v) = <exp(B + i omega), v>, exactly."""
    lat = zc.lat
    return RatComplex(mukai_pairing(zc.Om.re, v, lat), mukai_pairing(zc.Om.im, v, lat))


def phase(z: RatComplex) -> PhaseValue:
    """Exact phase token in (0, 1] of z in H-bar; errors outside."""
    if z.is_zero():
        raise UndefinedPhase("zero has no phase")
    if not z.in_upper_closure():
        raise UndefinedPhase(
            f"{z} lies outside H-bar; shift the object before asking for a phase"
        )
    return PhaseValue.of_upper(z)


# ---------------------------------------------------------------------------
# guards and desk checks


@record
class GuardResult:
    ok: bool
    witness: Optional[MukaiVector] = None
    witness_value: Optional[RatComplex] = None
    truncated: bool = True

    def __bool__(self) -> bool:
        return self.ok


def _guard_candidates(zc: K3CentralCharge, bounds: DeltaBox):
    """Positive-rank (-2)-classes with Im Z = 0, from the exact reduction:
    omega.l = r beta determines the admissible l per rank r, and the
    square condition then solves s (which is therefore not box-limited)."""
    lat = zc.lat
    beta = zc.beta
    l_range = range(-bounds.l_max, bounds.l_max + 1)
    for r in range(1, bounds.r_max + 1):
        for l in itertools.product(l_range, repeat=lat.rank):
            if lat.ns_dot(zc.omega, l) != r * beta:
                continue
            l2 = lat.ns_dot(l, l)
            if (l2 + 2) % (2 * r) != 0:
                continue
            yield MukaiVector(r, l, (l2 + 2) // (2 * r))


def spherical_guard(zc: K3CentralCharge, bounds: DeltaBox) -> GuardResult:
    """Search for a positive-rank spherical class with Z in R_{<=0}.

    The reduction makes the scan complete for rho = 1 with beta = 0
    (the Im-constraint then forces l = 0 and rs = 1); otherwise the
    'ok' answer is box-truncated.
    """
    complete = zc.lat.rank == 1 and zc.beta == 0 and bounds.r_max >= 1
    for delta in _guard_candidates(zc, bounds):
        z = central_charge(zc, delta)
        if z.im != 0:
            raise InvariantError(f"guard candidate {delta} has Z = {z} off the real line")
        if z.re <= 0:
            return GuardResult(False, witness=delta, witness_value=z, truncated=False)
    return GuardResult(True, truncated=not complete)


def discreteness_check(zc: K3CentralCharge, m: int) -> bool:
    """True iff B, omega lie in (1/m) NS; then m^2 Z(v) lies in Z[i] for
    every integral class v = (r, l, s).  Proof: x = mB and y = m omega are
    integral, m^2 Z(v) = m (x + iy).l - m^2 s - r (x + iy)^2 / 2, and
    (x + iy)^2 / 2 = (x^2 - y^2) / 2 + i x.y is in Z[i], since NSLattice
    rejects an odd Gram diagonal, so x^2 and y^2 are even."""
    if m <= 0:
        raise InputError("m must be positive")
    return all((m * x).denominator == 1 for x in zc.B + zc.omega)


def realpart_identity_check(zc: K3CentralCharge, v: MukaiVector) -> bool:
    """Verify Re Z(v) = (1/2r) ((l^2 - 2rs) + r^2 omega^2 - (l - rB)^2)
    exactly, for r != 0."""
    if v.r == 0:
        raise InputError("identity requires r != 0")
    lat = zc.lat
    lhs = central_charge(zc, v).re
    l_minus_rb = tuple(as_fraction(x) - v.r * b for x, b in zip(v.l, zc.B))
    rhs = (
        mukai_square(v, lat)
        + v.r * v.r * lat.ns_dot(zc.omega, zc.omega)
        - lat.ns_dot(l_minus_rb, l_minus_rb)
    ) / Fraction(2 * v.r)
    return lhs == rhs


def torsion_side(v: MukaiVector, zc: K3CentralCharge) -> str:
    """'T' iff the slope omega.l / r exceeds beta = B.omega, else 'F'.
    Classifies a positive-rank class played by a slope-stable sheaf."""
    if v.r <= 0:
        raise InputError("torsion side is defined for positive rank")
    return "T" if zc.lat.ns_dot(zc.omega, v.l) > v.r * zc.beta else "F"


@record
class HeartImageReport:
    checked: int
    violations: tuple
    guard: GuardResult

    @property
    def ok(self) -> bool:
        return not self.violations


def heart_image_check(zc: K3CentralCharge, bounds: DeltaBox) -> HeartImageReport:
    """Desk-scale positivity sweep: every numerical class in the box that
    can play an object of the tilted heart must map into H-bar.

    Classes with r > 0 and v^2 >= -2 stand for slope-stable torsion-free
    sheaves: the torsion side decides whether v or the shift -v must land
    in H-bar.  Rank-zero classes split into curve-supported (Im > 0) and
    point-supported (Z in R_{<0}) branches.
    """
    guard = spherical_guard(zc, bounds)
    if not guard.ok:
        raise GuardViolation(
            f"stability function degenerates on {guard.witness} "
            f"(Z = {guard.witness_value})"
        )
    lat = zc.lat
    violations = []
    checked = 0
    l_range = range(-bounds.l_max, bounds.l_max + 1)
    for r in range(bounds.r_max + 1):  # every branch needs r >= 0
        for l in itertools.product(l_range, repeat=lat.rank):
            for s in range(-bounds.s_max, bounds.s_max + 1):
                v = MukaiVector(r, l, s)
                if mukai_square(v, lat) < -2:
                    continue
                z = central_charge(zc, v)
                if r > 0:
                    checked += 1
                    side = torsion_side(v, zc)
                    val = z if side == "T" else -z
                    if not val.in_upper_closure():
                        violations.append((v, side, z))
                elif any(x != 0 for x in l):
                    if lat.ns_dot(zc.omega, l) > 0:
                        checked += 1
                        if not z.im > 0:
                            violations.append((v, "curve", z))
                elif s > 0:
                    checked += 1
                    if not (z.im == 0 and z.re < 0):
                        violations.append((v, "point", z))
    return HeartImageReport(checked, tuple(violations), guard)


# ---------------------------------------------------------------------------
# exponential-form extraction and normalization


@record
class OmegaBetaForm:
    """Slope data (0, omega, beta) of a point-normalized charge vector."""

    scale: Fraction
    omega: tuple
    beta: Fraction


def extract_omega_beta(Om: ComplexMukaiVector, lat: NSLattice) -> OmegaBetaForm:
    """Rescale Om so the point class maps to -1 and read the imaginary
    part as (0, omega, beta); omega must pass the positivity certificate."""
    # <Om, (0,..,0,1)> = -re.r - i*im.r
    z = RatComplex(-as_fraction(Om.re.r), -as_fraction(Om.im.r))
    if not (z.im == 0 and z.re < 0):
        raise InputError(
            f"point class maps to {z}, not R_<0: charge is not of slope shape"
        )
    scale = as_fraction(Om.re.r)
    omega = tuple(as_fraction(x) / scale for x in Om.im.l)
    beta = as_fraction(Om.im.s) / scale
    cert = lat.ample_certificate(omega)
    if not cert.certified:
        raise InputError(
            f"extracted omega = {omega} fails positivity "
            f"(square {cert.square}, ample-side {cert.ample_ref_side}, "
            f"curves {cert.curve_pairings})"
        )
    return OmegaBetaForm(scale, omega, beta)


@record
class ExpNormalForm:
    """M (2x2, det > 0, exact entries) with M.(re, im) = exp_class(B, omega).
    Entries are rational whenever the norming square is a perfect square,
    and quadratic surds otherwise."""

    matrix: tuple  # ((m00, m01), (m10, m11))
    B: tuple
    omega: tuple


def normalize_to_exp_form(Om: ComplexMukaiVector, lat: NSLattice) -> ExpNormalForm:
    """The unique positively-oriented change of (re, im) bringing Om to
    exponential form.

    The r-components force the new imaginary part up to scale; the new
    real part is pinned by r = 1 and orthogonality; the scale is then a
    square root fixed by <re', re'> = <im', im'>, with sign chosen so
    det > 0.
    """
    if not positive_plane_check(Om, lat):
        raise InputError("normalize_to_exp_form requires a positive plane")
    re, im = Om.re, Om.im
    r1, r2 = as_fraction(re.r), as_fraction(im.r)
    if r1 == 0 and r2 == 0:
        # impossible for a positive plane: {r = 0} meets it in a line
        raise InvariantError("positive plane orthogonal to the point class")
    c0, d0 = -r2, r1  # kernel of the r-components; scale is absorbed below
    im0 = re.scale(c0) + im.scale(d0)
    p_re_im0 = as_fraction(mukai_pairing(re, im0, lat))
    p_im_im0 = as_fraction(mukai_pairing(im, im0, lat))
    det_sys = r1 * p_im_im0 - r2 * p_re_im0
    if det_sys == 0:
        raise InvariantError("normalization system degenerated on a positive plane")
    a = p_im_im0 / det_sys
    b = -p_re_im0 / det_sys
    re_p = re.scale(a) + im.scale(b)
    re_sq = as_fraction(mukai_pairing(re_p, re_p, lat))
    im0_sq = as_fraction(mukai_pairing(im0, im0, lat))
    ratio = re_sq / im0_sq
    if ratio <= 0:
        raise InputError("normalization produced omega^2 <= 0")
    lam = Quad.sqrt_of(ratio)
    if (Quad(a * d0 - b * c0) * lam).sign() < 0:
        lam = -lam

    def tidy(x):
        if isinstance(x, Quad) and x.is_rational():
            return x.as_fraction()
        return x

    m = tuple(
        tuple(tidy(x) for x in row) for row in ((Quad(a), Quad(b)), (lam * c0, lam * d0))
    )
    B = tuple(re_p.l)  # rational: re' is a rational combination
    omega = tuple(tidy(lam * x) for x in im0.l)
    # exact verification against the canonical exponential class
    target = exp_class(B, omega, lat)
    got_re = re.scale(m[0][0]) + im.scale(m[0][1])
    got_im = re.scale(m[1][0]) + im.scale(m[1][1])
    for got, want in ((got_re, target.re), (got_im, target.im)):
        if not all(x - y == 0 for x, y in zip(got.coords(), want.coords())):
            raise InvariantError("exp-form round trip missed exp(B + i omega)")
    return ExpNormalForm(m, B, omega)


# ---------------------------------------------------------------------------
# wall scans


# types.UnionType, not typing.Union: typing's process-wide cache would keep
# this Quad class, and its module's globals, alive after a re-import
TParam = Fraction | Quad


@record
class AffinePath:
    """t |-> const + t * lin, with rational vector coefficients."""

    const: tuple
    lin: tuple

    def __init__(self, const, lin=None):
        const = tuple(as_fraction(x) for x in const)
        lin = tuple(as_fraction(x) for x in lin) if lin is not None else vzero(len(const))
        if len(const) != len(lin):
            raise InputError("path coefficient dimensions disagree")
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "lin", lin)

    def at(self, t):
        return vadd(self.const, vscale(t, self.lin))

    @staticmethod
    def constant(v) -> "AffinePath":
        v = vec(v)
        return AffinePath(v, vzero(len(v)))


@record
class Wall:
    """A wall point on a scan path.

    kind 'A': a positive-rank (-2)-class degenerates (Im Z = 0, Re Z <= 0).
    kind 'C': omega hits a declared curve with integral (B.C) = k; detail
    carries (curve class, k).
    """

    t: TParam
    witness: MukaiVector
    kind: str
    detail: Optional[tuple] = None

    def t_is_rational(self) -> bool:
        return not isinstance(self.t, Quad) or self.t.is_rational()


@record
class WallScanResult:
    walls: tuple
    truncated: bool
    degenerate_witnesses: tuple = ()
    k_bound: Optional[int] = None
    skipped_k: tuple = ()


class _Poly2:
    """Quadratic polynomial c0 + c1 t + c2 t^2 with integer coefficients."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0: int, c1: int, c2: int):
        self.c0, self.c1, self.c2 = c0, c1, c2

    def __call__(self, t):
        return self.c0 + self.c1 * t + self.c2 * t * t

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def _solve(self) -> tuple[list, int]:
        """(rational roots, 0), or ([], disc) when the two roots are the
        irrational (-c1 -+ sqrt(disc)) / (2 c2)."""
        c0, c1, c2 = self.c0, self.c1, self.c2
        if c2 == 0:
            return ([] if c1 == 0 else [Fraction(-c0, c1)]), 0
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return [], 0
        r = math.isqrt(disc)
        if r * r != disc:
            return [], disc
        return sorted({Fraction(-c1 - r, 2 * c2), Fraction(-c1 + r, 2 * c2)}), 0

    def _surd_root(self, i: int, disc: int) -> Quad:
        """The smaller (i = 0) or larger (i = 1) irrational root; with
        c2 < 0 the root with +sqrt(disc) is the smaller one."""
        den = 2 * self.c2
        sign = 1 if den > 0 else -1
        return Quad(Fraction(-self.c1, den), Fraction(sign * (2 * i - 1), den), disc)

    def _roots_below(self, x: Fraction, v: int) -> int:
        """How many roots of P lie below the rational x, given v = q^2 P(x)
        != 0 and c2 != 0 (0 or 2 by the side of the vertex if P has none).
        With the sign of c2 divided out, P is negative exactly between the
        roots, and outside them the vertex -c1 / (2 c2) tells the sides apart."""
        lead = 1 if self.c2 > 0 else -1
        if lead * v < 0:
            return 1
        return 0 if lead * (2 * self.c2 * x.numerator + self.c1 * x.denominator) < 0 else 2

    def roots(self) -> list:
        """Exact real roots in increasing order, as Fractions or Quads."""
        rational, disc = self._solve()
        if disc:
            return [self._surd_root(0, disc), self._surd_root(1, disc)]
        return rational

    def roots_in(self, t0: Fraction, t1: Fraction) -> list:
        """The roots in [t0, t1], increasing.  Integer signs at t0 and t1
        and the side of the vertex place the roots before any is solved:
        with one strict sign at both ends and as many roots below each, or
        a line, none lies inside.  Only irrational roots inside become Quads."""
        c0, c1, c2 = self.c0, self.c1, self.c2
        p, q = t0.numerator, t0.denominator
        v0 = c0 * q * q + c1 * p * q + c2 * p * p  # q^2 P(t0): the sign of P(t0)
        p, q = t1.numerator, t1.denominator
        v1 = c0 * q * q + c1 * p * q + c2 * p * p
        if v0 * v1 > 0:
            if c2 == 0 or self._roots_below(t0, v0) == self._roots_below(t1, v1):
                return []
        rational, disc = self._solve()
        if disc:
            lo, hi = self._roots_below(t0, v0), self._roots_below(t1, v1)
            return [self._surd_root(i, disc) for i in range(lo, hi)]
        return [t for t in rational if t0 <= t <= t1]

    def sign_at_root_of(self, im: "_Poly2", t: TParam) -> int:
        """The sign of P at a root t of im.  At an irrational root
        t = (-c1 + e sqrt(disc)) / (2 c2) of im, reducing P modulo im
        gives c2 P = alpha + beta t, so 2 c2^2 P(t) = A + e beta sqrt(disc)
        with integers A and beta, signed without building a Quad."""
        if not isinstance(t, Quad):
            p, q = t.numerator, t.denominator
            v = self.c0 * q * q + self.c1 * p * q + self.c2 * p * p
            return (v > 0) - (v < 0)
        c0, c1, c2 = im.c0, im.c1, im.c2
        alpha, beta = c2 * self.c0 - self.c2 * c0, c2 * self.c1 - self.c2 * c1
        a, b = 2 * c2 * alpha - beta * c1, beta if (t.b > 0) == (c2 > 0) else -beta
        if (a >= 0 and b >= 0) or (a <= 0 and b <= 0):
            return (a > 0 or b > 0) - (a < 0 or b < 0)
        # opposite signs: a^2 = b^2 disc would make sqrt(disc) rational
        return 1 if (a * a > b * b * (c1 * c1 - 4 * c2 * c0)) == (a > 0) else -1


def _integer_forms(lat: NSLattice, B_path: AffinePath, omega_path: AffinePath) -> tuple:
    """Integer linear forms (F0, F1, F2, G0, G1, G2) on the coordinates
    (r, l, s) with D Z_t(d) = (F0 + F1 t + F2 t^2)(d) + i (G0 + G1 t + G2 t^2)(d)
    for one positive integer D, which moves no root and no sign.

    Z_t(d) = beta_t.l - s - r beta_t^2 / 2 with beta_t = B_t + i omega_t.  For n
    the lcm of the path's denominators, n beta_t = (b0 + i w0) + t (b1 + i w1) is
    integral, and D = n^2 clears the rest (squares are even in the even Gram)."""
    paths = (B_path.const, omega_path.const, B_path.lin, omega_path.lin)
    n = math.lcm(*(x.denominator for v in paths for x in v))
    b0, w0, b1, w1 = ([int(x * n) for x in v] for v in paths)
    dot, zero = lat.ns_dot, (0,) * lat.rank

    def form(r, u, s=0):
        return (r, *(n * sum(map(mul, row, u)) for row in lat.gram), s)

    return (
        form((dot(w0, w0) - dot(b0, b0)) // 2, b0, -n * n),
        form(dot(w0, w1) - dot(b0, b1), b1),
        form((dot(w1, w1) - dot(b1, b1)) // 2, zero),
        form(-dot(b0, w0), w0),
        form(-dot(b0, w1) - dot(w0, b1), w1),
        form(-dot(b1, w1), zero),
    )


def _check_scan(lat: NSLattice, B_path: AffinePath, omega_path: AffinePath, t0, t1) -> tuple:
    """The parameter range as Fractions, after validating the scan input."""
    t0, t1 = as_fraction(t0), as_fraction(t1)
    if t0 > t1:
        raise InputError("empty parameter range")
    if len(B_path.const) != lat.rank or len(omega_path.const) != lat.rank:
        raise InputError("path dimension disagrees with the lattice rank")
    return t0, t1


def wall_scan(
    lat: NSLattice,
    B_path: AffinePath,
    omega_path: AffinePath,
    t0,
    t1,
    bounds: DeltaBox,
    k_bound: Optional[int] = None,
) -> WallScanResult:
    """Exact wall scan over t in [t0, t1].

    Type A: for each boxed (-2)-class of positive rank, Im Z_t is an
    exact quadratic in t; its isolated roots with Re Z_t <= 0 are walls.
    If Im Z_t vanishes identically, the class stays real along the whole
    path and the walls are the boundary points Re Z_t = 0; a class with
    Z_t identically zero is reported as a degenerate witness.

    A t with omega_t = 0 lies outside the positive cone, but the scan
    reports it all the same: there Im Z_t vanishes on every class, so
    each boxed class whose Im Z_t is not identically zero and whose
    Re Z_t <= 0 gives a wall at that t.

    Type C: (omega_t . C) = 0 is affine in t; at its root the pairing
    against (0, C, k) vanishes iff k = (B_t . C) is an integer.

    No sampling grid is involved, so the output cannot depend on one.
    """
    t0, t1 = _check_scan(lat, B_path, omega_path, t0, t1)
    deltas = enumerate_delta(lat, bounds)
    return _scan(lat, B_path, omega_path, t0, t1, deltas, k_bound)


def _scan(
    lat: NSLattice,
    B_path: AffinePath,
    omega_path: AffinePath,
    t0: Fraction,
    t1: Fraction,
    deltas: DeltaList,
    k_bound: Optional[int],
) -> WallScanResult:
    """The body of ``wall_scan`` over already enumerated (-2)-classes and
    a range checked by ``_check_scan``."""
    walls: list[Wall] = []
    degenerate = []

    re0, re1, re2, im0, im1, im2 = _integer_forms(lat, B_path, omega_path)
    # Im Z_t has no s term, and its t^2 term is a multiple of r
    (h0, *g0), (h1, *g1), h2 = im0[:-1], im1[:-1], im2[0]
    for d in deltas:
        r = d.r
        if r <= 0:
            continue
        im = _Poly2(h0 * r + sum(map(mul, g0, d.l)), h1 * r + sum(map(mul, g1, d.l)), h2 * r)
        ts = im.roots_in(t0, t1)
        if not ts and not im.is_zero():
            continue
        x = d.coords()
        re = _Poly2(sum(map(mul, re0, x)), sum(map(mul, re1, x)), sum(map(mul, re2, x)))
        if ts:
            walls.extend(Wall(t, d, "A") for t in ts if re.sign_at_root_of(im, t) <= 0)
        elif re.is_zero():
            degenerate.append(d)
        else:
            walls.extend(Wall(t, d, "A") for t in re.roots_in(t0, t1))

    b0, b1 = B_path.const, B_path.lin
    w0, w1 = omega_path.const, omega_path.lin

    def dot(u, v):
        return as_fraction(lat.ns_dot(u, v))

    skipped_k = []
    for C in lat.neg2_curves:
        lin = dot(w1, C)
        const = dot(w0, C)
        if lin == 0:
            if const == 0:
                degenerate.append(MukaiVector(0, C, 0))
            continue
        t_star = -const / lin
        if not t0 <= t_star <= t1:
            continue
        bc = dot(b0, C) + t_star * dot(b1, C)
        if bc.denominator != 1:
            continue  # no integral k: not a wall of the perpendicular type
        k = int(bc)
        if k_bound is not None and abs(k) > k_bound:
            skipped_k.append((t_star, tuple(C), k))
            continue
        walls.append(Wall(t_star, MukaiVector(0, C, k), "C", detail=(tuple(C), k)))

    seen = set()
    unique = []
    for w in sorted(walls, key=lambda w: (w.t, w.kind, w.witness.coords())):
        key = (repr(w.t), w.kind, w.witness.coords())
        if key not in seen:
            seen.add(key)
            unique.append(w)
    return WallScanResult(
        walls=tuple(unique),
        truncated=deltas.truncated,
        degenerate_witnesses=tuple(degenerate),
        k_bound=k_bound,
        skipped_k=tuple(skipped_k),
    )
