"""Stability on the rank/degree lattice Z^2 of a curve.

The numerical class of a sheaf is (rank, degree); the standard charge is
-deg + i rk, under which the point class (0,1) goes to -1.  Any charge
given by an orientation-preserving rational matrix is carried back to
the standard one by an exact 2x2 change of frame; orientation-reversing
charges are rejected.

The lattice carries no genus: positive genus is what makes every such
charge come from an actual stability condition, but none of the
arithmetic below depends on it, so it is a documented assumption rather
than an enforced invariant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from ._record import record
from .exact import PhaseValue, Quad, RatComplex, as_fraction, cot_pi
from .lattice import InputError, mat_det, mat_inv, mat_mul


class NotInOrbit(InputError):
    """The charge is not in the orientation-preserving orbit of -deg + i rk."""


@record
class CurveClass:
    r: int
    d: int

    def __add__(self, other: "CurveClass") -> "CurveClass":
        return CurveClass(self.r + other.r, self.d + other.d)

    @staticmethod
    def parse(text: str) -> "CurveClass":
        try:
            r, d = (int(x) for x in text.split(","))
        except ValueError:
            raise InputError(f"a curve class is two integers r,d, got {text!r}") from None
        return CurveClass(r, d)


STD_MATRIX = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))


@record
class CurveCharge:
    """Charge (r, d) |-> m . (r, d) read as (Re Z, Im Z); m invertible."""

    m: tuple

    def __init__(self, m):
        m = tuple(tuple(as_fraction(x) for x in row) for row in m)
        if len(m) != 2 or any(len(row) != 2 for row in m):
            raise InputError("curve charge needs a 2x2 matrix")
        if mat_det(m) == 0:
            raise InputError("curve charge matrix must be invertible")
        object.__setattr__(self, "m", m)

    def __call__(self, c: CurveClass) -> RatComplex:
        re = self.m[0][0] * c.r + self.m[0][1] * c.d
        im = self.m[1][0] * c.r + self.m[1][1] * c.d
        return RatComplex(re, im)

    @staticmethod
    def standard() -> "CurveCharge":
        return CurveCharge(STD_MATRIX)


def z_standard(c: CurveClass) -> RatComplex:
    """-deg + i rk."""
    return RatComplex(-c.d, c.r)


def slope_phase(mu) -> PhaseValue:
    """Phase in (0, 1) of a finite slope: the phase of -mu + i."""
    mu = as_fraction(mu)
    return PhaseValue.of_upper(RatComplex(-mu, 1))


def phase_to_slope(phi: PhaseValue) -> Union[Fraction, Quad]:
    """-cot(pi phi), exactly.

    For phases carrying a direction this is rational: cot is
    pi-periodic, so only the direction matters and cot(arg) = x/y.
    For purely rational phases the cotangent table applies; phi = 1 has
    no finite slope.
    """
    if not isinstance(phi, PhaseValue):
        phi = PhaseValue.rational(phi)
    if phi.y != 0:
        return Fraction(-phi.x, phi.y)
    q = phi.offset % 1
    if q == 0:
        raise InputError("phase 1 has no finite slope")
    return -cot_pi(q)


def gl_orbit_decompose(zc: CurveCharge):
    """The exact matrix M = std o zc.m^{-1} with zc = M^{-1} o Z_std.
    Rejects orientation-reversing charges."""
    if mat_det(zc.m) <= 0:
        raise NotInOrbit(
            f"det {mat_det(zc.m)} <= 0: charge is not in the oriented orbit"
        )
    m_inv = mat_inv(zc.m)
    M = mat_mul(STD_MATRIX, m_inv)
    return tuple(tuple(x for x in row) for row in M)


def phase_order_check(zc: CurveCharge, d_range: Sequence[int]) -> bool:
    """After normalizing to the standard frame, every line-bundle class
    (1, d) must have phase strictly between phi_point - 1 and phi_point."""
    M = gl_orbit_decompose(zc)
    normalized = CurveCharge(mat_mul(M, zc.m))
    zp = normalized(CurveClass(0, 1))
    if not (zp.im == 0 and zp.re < 0):
        raise NotInOrbit("normalized charge does not send the point class to R_<0")
    phi_point = PhaseValue.of_upper(zp)  # = 1
    for d in d_range:
        z = normalized(CurveClass(1, d))
        if not z.in_upper_closure():
            return False
        phi = PhaseValue.of_upper(z)
        if not (phi_point - 1 < phi < phi_point):
            return False
    return True


@record
class HNPolygon:
    """Cumulative charge path of phase-ordered parts.

    vertices: RatComplex corner points from 0 to Z(total); factors: the
    merged (class, charge, phase) triples in strictly decreasing phase.
    """

    vertices: tuple
    factors: tuple

    @property
    def total(self) -> RatComplex:
        return self.vertices[-1]


def hn_polygon(parts: Sequence[CurveClass], zc: CurveCharge) -> HNPolygon:
    """Sort the parts by strictly decreasing phase, merging equal phases
    into one semistable factor, and lay out the cumulative charge path."""
    evaluated = []
    for c in parts:
        z = zc(c)
        if z.is_zero():
            raise InputError(f"class {c} has zero charge")
        if not z.in_upper_closure():
            raise InputError(f"charge of {c} lies outside H-bar")
        evaluated.append((c, z, PhaseValue.of_upper(z)))
    evaluated.sort(key=lambda e: e[2], reverse=True)  # stable: ties keep order
    merged = []
    for c, z, phi in evaluated:
        if merged and merged[-1][2] == phi:
            c0, z0, phi0 = merged[-1]
            merged[-1] = (c0 + c, z0 + z, phi0)
        else:
            merged.append((c, z, phi))
    vertices = [RatComplex(0, 0)]
    for _, z, _ in merged:
        vertices.append(vertices[-1] + z)
    return HNPolygon(tuple(vertices), tuple(merged))
