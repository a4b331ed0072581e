"""The universal cover of GL+(2,R) and its actions on stability data.

An element is a pair (M, f): an orientation-preserving matrix together
with the increasing lift f of its circle action, pinned down by the
anchor f(0).  The center consists of even phase shifts; a pure rotation
by pi*q is stored symbolically so that rational rotation amounts act
exactly on phases even when the matrix itself would be irrational.

Conventions: acting on a charge gives Z' = M^{-1} Z, and an object that
was semistable of phase psi becomes semistable of phase f^{-1}(psi); in
particular rotation(q) (with f(phi) = phi - q) raises all phases by q
and central_shift(2k) (with f(phi) = phi + 2k) lowers them by 2k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from ._record import record
from .exact import ExactnessError, PhaseValue, RatComplex, as_fraction, frac_str
from .heart import HeartCharge
from .k3 import K3CentralCharge
from .curve import CurveCharge
from .lattice import (
    ComplexMukaiVector,
    InputError,
    InvariantError,
    MukaiVector,
    NSLattice,
    apply_isometry,
    is_mukai_isometry,
    isometry_matrix,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    rational_list,
    rational_value,
    require_keys,
    require_list,
)

_HALF = Fraction(1, 2)


def _rot_matrix_half_integer(q: Fraction) -> tuple:
    """Clockwise rotation by pi*q for half-integer q (exact entries)."""
    n = int(q / _HALF)
    c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][n % 4]  # cos, sin of pi*n/2
    # clockwise by pi*q: [[cos, sin], [-sin, cos]]
    return ((Fraction(c), Fraction(s)), (Fraction(-s), Fraction(c)))


@record
class GLTildeElement:
    """(M, f) with f encoded by the anchor f(0).

    Exactly one of `m` (rational 2x2 matrix, det > 0) or `rot` (pure
    rotation amount q, meaning f(phi) = phi - q) is stored; rotations by
    half-integer q are normalized to their rational matrices.
    """

    m: Optional[tuple]
    f0: PhaseValue
    rot: Optional[Fraction] = None

    def __init__(self, m=None, f0=None, rot=None):
        if (m is None) == (rot is None):
            raise InputError("give either a matrix or a rotation amount")
        if rot is not None:
            rot = as_fraction(rot)
            if rot % _HALF == 0:
                # half-integer rotations have exact matrices
                m, f0, rot = (
                    _rot_matrix_half_integer(rot),
                    PhaseValue.rational(-rot),
                    None,
                )
            else:
                object.__setattr__(self, "m", None)
                object.__setattr__(self, "rot", rot)
                object.__setattr__(self, "f0", PhaseValue.rational(-rot))
                return
        mat = tuple(tuple(as_fraction(x) for x in row) for row in m)
        if len(mat) != 2 or any(len(r) != 2 for r in mat):
            raise InputError("need a 2x2 matrix")
        if mat_det(mat) <= 0:
            raise InputError("the matrix must have positive determinant")
        base = PhaseValue((mat[0][0], mat[1][0]))  # direction of M.(1,0)
        if f0 is None:
            f0 = base
        else:
            if not isinstance(f0, PhaseValue):
                f0 = PhaseValue.rational(as_fraction(f0))
            diff = f0 - base
            if not diff.is_rational() or diff.as_fraction() % 2 != 0:
                raise InputError(
                    "anchor f(0) must agree with the direction of M.(1,0) "
                    "modulo 2"
                )
        object.__setattr__(self, "m", mat)
        object.__setattr__(self, "rot", None)
        object.__setattr__(self, "f0", f0)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity() -> "GLTildeElement":
        return GLTildeElement(m=((1, 0), (0, 1)))

    @staticmethod
    def rotation(q) -> "GLTildeElement":
        """The lift rotating every phase up by q: f(phi) = phi - q."""
        return GLTildeElement(rot=q)

    @staticmethod
    def central_shift(two_k: int) -> "GLTildeElement":
        """The central element (id, phi + 2k)."""
        if two_k % 2 != 0:
            raise InputError("central shifts are even")
        return GLTildeElement(
            m=((1, 0), (0, 1)), f0=PhaseValue.rational(Fraction(two_k))
        )

    @staticmethod
    def from_json_dict(data: dict) -> "GLTildeElement":
        if isinstance(data, dict) and "rot" in data:
            return GLTildeElement.rotation(rational_value(data["rot"], "group element 'rot'"))
        require_keys(data, ("M", "f0"), "group element")
        f0 = data["f0"]
        if isinstance(f0, (str, int)):
            f0 = PhaseValue.rational(rational_value(f0, "group element 'f0'"))
        else:
            require_keys(f0, ("offset", "dir"), "f0")
            direction = tuple(rational_list(f0["dir"], "f0 'dir'", 2))
            if not any(direction):
                raise InputError(f"f0 'dir' must be a nonzero vector, got {f0['dir']!r}")
            f0 = PhaseValue(direction, rational_value(f0["offset"], "f0 'offset'"))
        require_list(data["M"], "group element 'M'", 2)
        m = tuple(tuple(rational_list(row, "group element 'M' row", 2)) for row in data["M"])
        return GLTildeElement(m=m, f0=f0)

    def to_json_dict(self) -> dict:
        if self.rot is not None:
            return {"rot": frac_str(self.rot)}
        return {
            "M": [[frac_str(x) for x in row] for row in self.m],
            "f0": self.f0.to_json(),
        }


def f_eval(g: GLTildeElement, phi: Union[PhaseValue, Fraction, int]) -> PhaseValue:
    """The lift f at phi: the unique value congruent to the direction
    phase of M exp(i pi phi) mod 2 that keeps f increasing with
    f(phi + 1) = f(phi) + 1."""
    if not isinstance(phi, PhaseValue):
        phi = PhaseValue.rational(as_fraction(phi))
    if g.rot is not None:
        return phi - g.rot
    phi0, k = phi.mod2_split()
    # exact direction of exp(i pi phi0): directions are rays, so the
    # rational offset can be folded in by exact eighth turns
    # ((x,y) -> (x-y, x+y) rotates a ray by pi/4)
    offset = phi0.offset
    x, y = Fraction(phi0.x), Fraction(phi0.y)
    if offset % Fraction(1, 4) == 0 and offset % _HALF != 0:
        x, y = x - y, x + y
        offset -= Fraction(1, 4)
    if offset % _HALF != 0:
        raise ExactnessError(
            "f_eval needs phases whose rational part is a multiple of 1/4 "
            "(rational-direction inputs); use rotation elements otherwise"
        )
    quarters = int(offset / _HALF) % 4
    for _ in range(quarters):
        x, y = -y, x
    w = mat_vec(g.m, (x, y))
    a = PhaseValue((w[0], w[1]))
    # slide by even integers into [f0, f0 + 2); the float guess is only a
    # bracketing hint, membership is decided exactly
    guess = math.floor((float(g.f0) - float(a)) / 2)
    for mshift in (guess - 1, guess, guess + 1, guess + 2):
        cand = a + Fraction(2 * mshift)
        if g.f0 <= cand < g.f0 + 2:
            return cand + Fraction(2 * k)
    raise InvariantError("branch selection failed")


def compose(g1: GLTildeElement, g2: GLTildeElement) -> GLTildeElement:
    """(M1 M2, f1 o f2); the anchor of the composite is f1(f2(0))."""
    if g1.rot is not None and g2.rot is not None:
        return GLTildeElement.rotation(g1.rot + g2.rot)
    if g1.rot is not None or g2.rot is not None:
        raise ExactnessError(
            "cannot compose an irrational rotation with a general matrix "
            "exactly; use half-integer rotations for mixed products"
        )
    return GLTildeElement(m=mat_mul(g1.m, g2.m), f0=f_eval(g1, g2.f0))


def inverse(g: GLTildeElement) -> GLTildeElement:
    if g.rot is not None:
        return GLTildeElement.rotation(-g.rot)
    minv = mat_inv(g.m)
    a = PhaseValue((minv[0][0], minv[1][0]))  # direction of M^{-1}.(1,0)
    # pick the even shift making f(f^{-1}(0)) = 0
    val = f_eval(g, a)
    if not (val.is_rational() and val.as_fraction() % 2 == 0):
        raise InvariantError(f"f(f^-1(0)) shift {val} is not an even integer")
    f0 = a - val.as_fraction()
    return GLTildeElement(m=minv, f0=f0)


def act_on_charge(g: GLTildeElement, Z):
    """Z' = M^{-1} o Z for a curve charge or a charge vector Omega."""
    if g.rot is not None:
        raise ExactnessError(
            "irrational rotations act exactly only on heart charges; "
            "use act_on_heart_stability"
        )
    minv = mat_inv(g.m)
    if isinstance(Z, CurveCharge):
        return CurveCharge(mat_mul(minv, Z.m))
    if isinstance(Z, K3CentralCharge):
        Z = Z.Om
    if isinstance(Z, ComplexMukaiVector):
        re = Z.re.scale(minv[0][0]) + Z.im.scale(minv[0][1])
        im = Z.re.scale(minv[1][0]) + Z.im.scale(minv[1][1])
        return ComplexMukaiVector(re, im)
    raise InputError(f"cannot act on {type(Z).__name__}")


@record
class HeartActionResult:
    """Outcome of acting on a heart charge: the relabeled slicing always
    exists (phases move by f^{-1}); `charge` carries the new heart when
    the rotated simples still span a single unit interval, else None."""

    charge: Optional[HeartCharge]
    phase_shift: Optional[Fraction]  # for rotations: the exact shift
    note: str = ""


def act_on_heart_stability(g: GLTildeElement, zc: HeartCharge) -> HeartActionResult:
    """Apply the group element to a heart charge.

    Rotation elements act purely on the phase labels (verdicts cannot
    change); a general rational matrix produces new charge values
    M^{-1} z_v, which form a heart charge iff they all land in H-bar.
    """
    if g.rot is not None:
        return HeartActionResult(zc.rotated(g.rot), g.rot)
    # unit-rotation matrices (including central elements) only relabel:
    # f(phi) = phi + f0, so phases move by -f0 and values rotate with them
    unit_rotations = (
        ((1, 0), (0, 1)),
        ((0, 1), (-1, 0)),
        ((-1, 0), (0, -1)),
        ((0, -1), (1, 0)),
    )
    if g.m in unit_rotations:
        shift = -g.f0.as_fraction()
        return HeartActionResult(zc.rotated(shift), shift)
    if zc.rot != 0:
        raise ExactnessError(
            "matrix actions on rotated heart charges are not exactly "
            "representable; apply the rotation afterwards instead"
        )
    minv = mat_inv(g.m)
    new_z = []
    for zv in zc.z:
        w = RatComplex(
            minv[0][0] * zv.re + minv[0][1] * zv.im,
            minv[1][0] * zv.re + minv[1][1] * zv.im,
        )
        new_z.append(w)
    if all((not w.is_zero()) and w.in_upper_closure() for w in new_z):
        return HeartActionResult(HeartCharge(new_z), None)
    return HeartActionResult(
        None,
        None,
        "tilted heart: the transformed simples leave H-bar, so the slicing "
        "is relabeled but no single heart charge represents it",
    )


def aut_act(images: Sequence[MukaiVector], Om: ComplexMukaiVector, lat: NSLattice) -> ComplexMukaiVector:
    """The (left) action of a Mukai isometry on a charge vector:
    Z o Phi^{-1} is represented by Phi applied to the vector, because an
    isometry's inverse-transpose with respect to the pairing is itself."""
    if not is_mukai_isometry(images, lat):
        raise InputError("aut_act expects a Mukai isometry")
    mat = isometry_matrix(images, lat)
    return ComplexMukaiVector(apply_isometry(mat, Om.re), apply_isometry(mat, Om.im))


def commute_check(
    images: Sequence[MukaiVector],
    g: GLTildeElement,
    Om: ComplexMukaiVector,
    lat: NSLattice,
) -> bool:
    """The left isometry action and the right GL+ action commute; verify
    the identity exactly on the given data."""
    lhs = aut_act(images, act_on_charge(g, Om), lat)
    rhs = act_on_charge(g, aut_act(images, Om, lat))
    return lhs == rhs
