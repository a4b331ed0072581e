"""Exact arithmetic on the extended Neron-Severi lattice Z + NS(X) + Z.

A class is stored as a triple (r, l, s) with l a vector in NS(X); the
pairing is <(r,l,s),(r',l',s')> = l.l' - r s' - r' s, computed with the
NS Gram matrix.  Everything here is pure and exact; enumerations over
the infinite set of (-2)-classes carry an explicit truncation flag, and
perpendicularity scans reduce constraints exactly first, so that small
Picard ranks get complete answers.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import InvariantError, as_fraction, frac_str


class InputError(ValueError):
    """Invalid user input (dimension mismatch, bad invariants, ...)."""


def require_keys(data, keys: Sequence[str], what: str) -> None:
    """Raise InputError unless data is a JSON object holding every key."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise InputError(f"{what} has no {key!r} key")


def require_list(data, what: str, length: Optional[int]) -> None:
    """Raise InputError unless data is a JSON list, of `length` values
    unless that is None."""
    if not isinstance(data, list) or length is not None and len(data) != length:
        shape = "a list" if length is None else f"a list of {length} values"
        raise InputError(f"{what} must be {shape}, got {data!r}")


def require_int(data, what: str) -> None:
    """Raise InputError unless data is a JSON integer (not a boolean)."""
    if type(data) is not int:
        raise InputError(f"{what} must be an integer, got {data!r}")


def rational_value(data, what: str) -> Fraction:
    """The JSON value data as an exact rational; raises InputError naming
    `what` unless it is a number or a rational string."""
    try:
        return Fraction(str(data))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{what} must be a number or a rational string, got {data!r}") from None


def rational_list(data, what: str, length: Optional[int]) -> list:
    """The JSON list data, of `length` values unless that is None, as exact
    rationals; raises InputError naming `what` unless every entry is a
    number or a rational string."""
    require_list(data, what, length)
    try:
        return [Fraction(str(x)) for x in data]
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{what} must hold numbers or rational strings, got {data!r}") from None


def _halve(x):
    """Exact x/2 for int, Fraction or any exact field element."""
    if isinstance(x, int):
        return Fraction(x, 2)
    return x / 2


# ---------------------------------------------------------------------------
# small exact linear algebra helpers (vectors are tuples)


def vec(entries) -> tuple:
    return tuple(entries)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def vzero(n: int) -> tuple:
    return (Fraction(0),) * n


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)
    ]


def mat_det(m) -> Fraction:
    m = [[as_fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [m[r][j] - f * m[col][j] for j in range(n)]
    return det


def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q and its pivot columns."""
    mat = [[as_fraction(x) for x in row] for row in rows]
    width = len(mat[0]) if mat else 0
    pivots = []
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat, pivots


def mat_inv(m):
    n = len(m)
    aug, pivots = _rref([list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)])
    if pivots != list(range(n)):
        raise InputError("singular matrix")
    return [row[n:] for row in aug]


def symmetric_signature(gram) -> tuple[int, int]:
    """Inertia (n_plus, n_minus) of a nondegenerate symmetric matrix,
    by exact congruence diagonalization."""
    m = [[as_fraction(x) for x in row] for row in gram]
    pos = neg = 0
    while m:
        k = len(m)
        piv = next((i for i in range(k) if m[i][i] != 0), None)
        if piv is None:
            ij = next(
                ((i, j) for i in range(k) for j in range(k) if m[i][j] != 0), None
            )
            if ij is None:
                raise InputError("degenerate Gram matrix")
            i, j = ij
            # congruence: row/col i += row/col j turns the diagonal entry
            # into 2*m[i][j] != 0
            for t in range(k):
                m[i][t] = m[i][t] + m[j][t]
            for t in range(k):
                m[t][i] = m[t][i] + m[t][j]
            piv = i
        d = m[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        rest = [r for r in range(k) if r != piv]
        m = [[m[a][b] - m[a][piv] * m[piv][b] / d for b in rest] for a in rest]
    return pos, neg


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class NSLattice:
    """The Neron-Severi lattice: even Gram matrix of signature (1, rho-1),
    a reference positive class, and user-declared (-2)-curve classes."""

    rank: int
    gram: tuple
    ample_ref: tuple
    neg2_curves: tuple = ()

    def __init__(self, gram, ample_ref, neg2_curves=()):
        gram = tuple(tuple(as_fraction(x) for x in row) for row in gram)
        rho = len(gram)
        if rho == 0 or any(len(row) != rho for row in gram):
            raise InputError("gram must be square and nonempty")
        for i in range(rho):
            for j in range(rho):
                if gram[i][j] != gram[j][i]:
                    raise InputError("gram must be symmetric")
                if gram[i][j].denominator != 1:
                    raise InputError("gram entries must be integers")
            if gram[i][i] % 2 != 0:
                raise InputError("gram diagonal must be even")
        pos, negs = symmetric_signature(gram)
        if (pos, negs) != (1, rho - 1):
            raise InputError(
                f"gram must have signature (1,{rho - 1}), got ({pos},{negs})"
            )
        ample_ref = tuple(as_fraction(x) for x in ample_ref)
        if len(ample_ref) != rho:
            raise InputError("ample_ref has wrong length")
        curves = tuple(tuple(as_fraction(x) for x in c) for c in neg2_curves)
        object.__setattr__(self, "rank", rho)
        object.__setattr__(self, "gram", tuple(tuple(int(x) for x in row) for row in gram))
        object.__setattr__(self, "ample_ref", ample_ref)
        object.__setattr__(self, "neg2_curves", curves)
        if self.ns_dot(ample_ref, ample_ref) <= 0:
            raise InputError("ample_ref must have positive square")
        for c in curves:
            if any(x.denominator != 1 for x in c):
                raise InputError("curve classes must be integral")
            if self.ns_dot(c, c) != -2:
                raise InputError(f"declared curve {c} does not have square -2")

    def ns_dot(self, u, v):
        """NS intersection number u.v (exact, generic over the entry type)."""
        if len(u) != self.rank or len(v) != self.rank:
            raise InputError("NS vector has wrong length")
        total = 0
        for i in range(self.rank):
            if u[i] == 0:
                continue
            row = self.gram[i]
            for j in range(self.rank):
                if v[j] != 0:
                    total = total + u[i] * row[j] * v[j]
        return total

    @property
    def mukai_rank(self) -> int:
        return self.rank + 2

    def mukai_gram(self) -> list[list[int]]:
        """Gram matrix of Z + NS + Z in the coordinate order (r, l..., s)."""
        n = self.mukai_rank
        g = [[0] * n for _ in range(n)]
        g[0][n - 1] = g[n - 1][0] = -1
        for i in range(self.rank):
            for j in range(self.rank):
                g[1 + i][1 + j] = self.gram[i][j]
        return g

    def ample_certificate(self, omega) -> "AmpleCertificate":
        """Positivity evidence for omega, complete only relative to the
        declared curve list (unconditionally complete when rho = 1)."""
        sq = self.ns_dot(omega, omega)
        ref_side = self.ns_dot(omega, self.ample_ref)
        curve_vals = tuple(self.ns_dot(omega, c) for c in self.neg2_curves)
        return AmpleCertificate(
            square=sq,
            positive_square=sq > 0,
            ample_ref_side=ref_side > 0,
            curve_pairings=curve_vals,
            positive_on_declared_curves=all(x > 0 for x in curve_vals),
            complete=self.rank == 1,
        )

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "gram": [list(row) for row in self.gram],
            "ample_ref": [frac_str(x) for x in self.ample_ref],
            "neg2_curves": [[int(x) for x in c] for c in self.neg2_curves],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "NSLattice":
        require_keys(data, ("gram", "ample_ref"), "lattice file")
        require_list(data["gram"], "lattice file 'gram'", None)
        gram = [rational_list(row, "lattice file 'gram' row", None) for row in data["gram"]]
        ample_ref = rational_list(data["ample_ref"], "lattice file 'ample_ref'", None)
        curves = data.get("neg2_curves", [])
        require_list(curves, "lattice file 'neg2_curves'", None)
        curves = [rational_list(c, "lattice file 'neg2_curves' entry", None) for c in curves]
        if "rank" in data:
            require_int(data["rank"], "lattice file 'rank'")
            if len(gram) != data["rank"]:
                raise InputError("rank disagrees with gram size")
        return NSLattice(gram, ample_ref, curves)


@dataclass(frozen=True)
class AmpleCertificate:
    """What the lattice can certify about positivity of omega.  Whether
    'positive on all declared curves' means nef or ample cannot be decided
    from lattice data; both readings are recorded, neither asserted."""

    square: object
    positive_square: bool
    ample_ref_side: bool
    curve_pairings: tuple
    positive_on_declared_curves: bool
    complete: bool

    @property
    def certified(self) -> bool:
        return (
            self.positive_square
            and self.ample_ref_side
            and self.positive_on_declared_curves
        )


def load_lattice(path) -> NSLattice:
    with open(path) as fh:
        return NSLattice.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class MukaiVector:
    """Class (r, l, s) in Z + NS(X) + Z; entries may be rational."""

    r: object
    l: tuple
    s: object

    def __init__(self, r, l, s):
        object.__setattr__(self, "r", Fraction(r) if isinstance(r, str) else r)
        object.__setattr__(
            self, "l", tuple(Fraction(x) if isinstance(x, str) else x for x in l)
        )
        object.__setattr__(self, "s", Fraction(s) if isinstance(s, str) else s)

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, vadd(self.l, other.l), self.s + other.s)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r - other.r, vsub(self.l, other.l), self.s - other.s)

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, vscale(-1, self.l), -self.s)

    def scale(self, c) -> "MukaiVector":
        return MukaiVector(c * self.r, vscale(c, self.l), c * self.s)

    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0 and all(x == 0 for x in self.l)

    def coords(self) -> tuple:
        return (self.r, *self.l, self.s)

    @staticmethod
    def from_coords(c) -> "MukaiVector":
        return MukaiVector(c[0], tuple(c[1:-1]), c[-1])

    def __repr__(self):
        ls = ",".join(str(x) for x in self.l)
        return f"({self.r},[{ls}],{self.s})"


def point_class(lat: NSLattice) -> MukaiVector:
    return MukaiVector(0, vzero(lat.rank), 1)


def basis_vectors(lat: NSLattice) -> list[MukaiVector]:
    n = lat.mukai_rank
    return [
        MukaiVector.from_coords(tuple(1 if i == k else 0 for i in range(n)))
        for k in range(n)
    ]


@dataclass(frozen=True)
class ComplexMukaiVector:
    """Central-charge datum Omega = re + i*im in N(X) x C, stored as two
    rational Mukai vectors."""

    re: MukaiVector
    im: MukaiVector

    def __post_init__(self):
        if self.re.is_zero() and self.im.is_zero():
            raise InputError("Omega must be nonzero")

    def conj(self) -> "ComplexMukaiVector":
        return ComplexMukaiVector(self.re, -self.im)

    def scale(self, c) -> "ComplexMukaiVector":
        return ComplexMukaiVector(self.re.scale(c), self.im.scale(c))


# ---------------------------------------------------------------------------
# operations


def mukai_pairing(v: MukaiVector, w: MukaiVector, lat: NSLattice):
    """<v, w> = l.l' - r s' - r' s.  Bilinear, symmetric; integral on
    integral classes."""
    if len(v.l) != lat.rank or len(w.l) != lat.rank:
        raise InputError("Mukai vector has wrong NS dimension")
    return lat.ns_dot(v.l, w.l) - v.r * w.s - w.r * v.s


def mukai_square(v: MukaiVector, lat: NSLattice):
    return mukai_pairing(v, v, lat)


def exp_class(B, omega, lat: NSLattice) -> ComplexMukaiVector:
    """exp(B + i omega) = (1, B + i omega, (B^2 - omega^2)/2 + i (B.omega))."""
    B, omega = vec(B), vec(omega)
    if len(B) != lat.rank or len(omega) != lat.rank:
        raise InputError("B or omega has wrong dimension")
    re = MukaiVector(1, B, _halve(lat.ns_dot(B, B) - lat.ns_dot(omega, omega)))
    im = MukaiVector(0, omega, lat.ns_dot(B, omega))
    return ComplexMukaiVector(re, im)


@dataclass(frozen=True)
class DeltaBox:
    """Finite search box |r| <= r_max, |l_i| <= l_max, |s| <= s_max."""

    r_max: int
    l_max: int
    s_max: int

    def __post_init__(self):
        if min(self.r_max, self.l_max, self.s_max) < 0:
            raise InputError("box bounds must be nonnegative")

    @staticmethod
    def cube(b: int) -> "DeltaBox":
        return DeltaBox(b, b, b)


@dataclass(frozen=True)
class DeltaList:
    """Result of a (-2)-class enumeration; always box-truncated since
    the full set is infinite."""

    vectors: tuple
    truncated: bool = True

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)


def enumerate_delta(lat: NSLattice, bounds: DeltaBox) -> DeltaList:
    """All delta = (r, l, s) in the box with delta^2 = -2, in lexicographic
    coordinate order.  For r != 0 the s-coordinate is solved from the
    square condition instead of scanned."""
    l_range = range(-bounds.l_max, bounds.l_max + 1)
    s_range = range(-bounds.s_max, bounds.s_max + 1)
    # l^2 - 2rs = -2  =>  s = (l^2 + 2)/(2r); each l is squared once
    nums = [(l, lat.ns_dot(l, l) + 2) for l in itertools.product(l_range, repeat=lat.rank)]
    out = []
    # r, then l in product order, then s: the output is lexicographic as built
    for r in range(-bounds.r_max, bounds.r_max + 1):
        if r == 0:
            for l, num in nums:
                if num == 0:
                    out.extend(MukaiVector(0, l, s) for s in s_range)
            continue
        two_r = 2 * r
        for l, num in nums:
            if num % two_r == 0 and abs(num // two_r) <= bounds.s_max:
                out.append(MukaiVector(r, l, num // two_r))
    return DeltaList(tuple(out), truncated=True)


def positive_plane_check(Om: ComplexMukaiVector, lat: NSLattice) -> bool:
    """True iff span(Re Om, Im Om) is a positive-definite plane for the
    Mukai pairing (exact 2x2 definiteness test)."""
    a = mukai_pairing(Om.re, Om.re, lat)
    b = mukai_pairing(Om.re, Om.im, lat)
    c = mukai_pairing(Om.im, Om.im, lat)
    return a > 0 and a * c - b * b > 0


def _reference_plane(lat: NSLattice) -> ComplexMukaiVector:
    return exp_class(vzero(lat.rank), lat.ample_ref, lat)


def orientation_component(Om: ComplexMukaiVector, lat: NSLattice) -> str:
    """'plus' or 'minus': orientation of span(re, im) relative to the plane
    of exp(i * ample_ref), compared through orthogonal projection."""
    if not positive_plane_check(Om, lat):
        raise InputError("orientation is defined only for positive planes")
    ref = _reference_plane(lat)
    p1, p2 = ref.re, ref.im
    g11 = mukai_pairing(p1, p1, lat)
    g12 = mukai_pairing(p1, p2, lat)
    g22 = mukai_pairing(p2, p2, lat)
    det_ref = g11 * g22 - g12 * g12

    def proj_coeffs(v):
        b1 = mukai_pairing(v, p1, lat)
        b2 = mukai_pairing(v, p2, lat)
        return (b1 * g22 - b2 * g12) / det_ref, (b2 * g11 - b1 * g12) / det_ref

    c1 = proj_coeffs(Om.re)
    c2 = proj_coeffs(Om.im)
    det = c1[0] * c2[1] - c1[1] * c2[0]
    # between two positive planes in signature (2, rho) the projection is
    # an isomorphism; a vanishing determinant would be a logic error
    if det == 0:
        raise InvariantError("degenerate projection between positive planes")
    return "plus" if det > 0 else "minus"


@dataclass(frozen=True)
class P0Result:
    status: str  # 'inside' | 'outside' | 'not_plus'
    witness: Optional[MukaiVector] = None
    truncated: bool = False


def perp_sublattice(Om: ComplexMukaiVector, lat: NSLattice) -> list[tuple]:
    """Primitive integral basis of {d in N : <d, re> = <d, im> = 0},
    via exact row reduction of the two pairing constraints."""
    n = lat.mukai_rank
    mat, pivots = _rref(
        [mukai_pairing(part, e, lat) for e in basis_vectors(lat)] for part in (Om.re, Om.im)
    )
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        den = 1
        for x in v:
            den = math.lcm(den, x.denominator)
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints) if any(ints) else 1
        basis.append(tuple(x // g for x in ints))
    return basis


def p0_membership(Om: ComplexMukaiVector, lat: NSLattice, bounds: DeltaBox) -> P0Result:
    """Decide membership of Om in the plus component with all
    (-2)-perpendiculars removed.

    Both pairing conditions are solved exactly first: their integral
    kernel K is negative definite (orthogonal complement of a positive
    plane), so for rk K <= 1 the verdict is complete and unflagged;
    larger kernels are scanned inside the box and flagged truncated.
    """
    if not positive_plane_check(Om, lat):
        return P0Result("not_plus")
    if orientation_component(Om, lat) != "plus":
        return P0Result("not_plus")
    kernel = perp_sublattice(Om, lat)
    if len(kernel) == 0:
        return P0Result("inside", truncated=False)
    if len(kernel) == 1:
        g = MukaiVector.from_coords(kernel[0])
        # integral perpendicular classes are k*g; (k g)^2 = -2 needs g^2 = -2
        if mukai_square(g, lat) == -2:
            return P0Result("outside", witness=g)
        return P0Result("inside", truncated=False)
    coeff_bound = max(bounds.r_max, bounds.l_max, bounds.s_max)
    rng = range(-coeff_bound, coeff_bound + 1)
    best = None
    for coeffs in itertools.product(rng, repeat=len(kernel)):
        if all(c == 0 for c in coeffs):
            continue
        cand = vzero(lat.mukai_rank)
        for c, g in zip(coeffs, kernel):
            cand = vadd(cand, vscale(c, g))
        dv = MukaiVector.from_coords(cand)
        if mukai_square(dv, lat) == -2:
            if best is None or dv.coords() < best.coords():
                best = dv
    if best is not None:
        return P0Result("outside", witness=best)
    return P0Result("inside", truncated=True)


def reflection(delta: MukaiVector, v: MukaiVector, lat: NSLattice) -> MukaiVector:
    """Reflection in the hyperplane perpendicular to a (-2)-class:
    v |-> v + <v, delta> delta."""
    if mukai_square(delta, lat) != -2:
        raise InputError("reflection requires a class of square -2")
    return v + delta.scale(mukai_pairing(v, delta, lat))


def tensor_line_bundle(B, v: MukaiVector, lat: NSLattice) -> MukaiVector:
    """Multiplication with exp(B) for an integral NS class B:
    (r, l, s) |-> (r, l + rB, s + B.l + r B^2/2).  Integral in, integral
    out, because the Gram diagonal is even."""
    B = vec(B)
    if len(B) != lat.rank:
        raise InputError("B has wrong dimension")
    if any(as_fraction(x).denominator != 1 for x in B):
        raise InputError("tensor_line_bundle needs an integral class")
    s_new = v.s + lat.ns_dot(B, v.l) + v.r * _halve(lat.ns_dot(B, B))
    if isinstance(s_new, Fraction) and s_new.denominator == 1:
        s_new = int(s_new)
    return MukaiVector(v.r, vadd(v.l, vscale(v.r, B)), s_new)


def exp_action_matrix(B, lat: NSLattice) -> list[list]:
    """Matrix of tensor_line_bundle(B, .) on N(X); columns are basis images."""
    return isometry_matrix([tensor_line_bundle(B, e, lat) for e in basis_vectors(lat)], lat)


def reflection_matrix(delta: MukaiVector, lat: NSLattice) -> list[list]:
    return isometry_matrix([reflection(delta, e, lat) for e in basis_vectors(lat)], lat)


def is_mukai_isometry(images: Sequence[MukaiVector], lat: NSLattice) -> bool:
    """True iff the basis-image list defines a pairing-preserving map,
    A^T G A = G.  Its determinant is then +-1 with no further check:
    det(A)^2 det(G) = det(G), and G is nondegenerate."""
    n = lat.mukai_rank
    if len(images) != n:
        raise InputError("need one image per basis vector")
    basis = basis_vectors(lat)
    for i in range(n):
        for j in range(i, n):
            if mukai_pairing(images[i], images[j], lat) != mukai_pairing(
                basis[i], basis[j], lat
            ):
                return False
    return True


def isometry_matrix(images: Sequence[MukaiVector], lat: NSLattice) -> list[list]:
    n = lat.mukai_rank
    return [[as_fraction(images[j].coords()[i]) for j in range(n)] for i in range(n)]


def matrix_to_images(mat, lat: NSLattice) -> list[MukaiVector]:
    n = lat.mukai_rank
    return [MukaiVector.from_coords(tuple(mat[i][j] for i in range(n))) for j in range(n)]


def apply_isometry(mat, v: MukaiVector) -> MukaiVector:
    return MukaiVector.from_coords(mat_vec(mat, v.coords()))


def gamma_membership(images: Sequence[MukaiVector], lat: NSLattice) -> bool:
    """True iff the isometry A acts as the identity on N*/N.

    N* is spanned by the columns of G^{-1}, so A fixes every class of
    N*/N iff (A - I) G^{-1} is an integer matrix.  Since G is integral,
    that forces A to be integral: an isometry with rational entries is
    not in Gamma.
    """
    if not is_mukai_isometry(images, lat):
        raise InputError("gamma_membership expects a Mukai isometry")
    mat = isometry_matrix(images, lat)
    shift = [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(mat)]
    moved = mat_mul(shift, mat_inv(lat.mukai_gram()))
    return all(x.denominator == 1 for row in moved for x in row)
