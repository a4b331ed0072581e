"""Representations of acyclic quivers over small prime fields.

This is the concrete finite-length hereditary abelian category in which
every filtration statement of the package is checked by exhaustive
enumeration: subobject lattices are finite and computed as mask sets,
Hom spaces are kernels of exact linear systems over F_p, and Ext^1 is
read off a projective resolution (the category is hereditary, so there
is nothing above Ext^1).

Everything is exact integer arithmetic mod p; the enumeration cost is
controlled by a hard resource bound on the total dimension.  A vector of
F_p^d is a tuple, and a subspace holds its vectors and a basis.  Every
rank, kernel, change of basis and basis completion comes from one
elimination on packed rows, one Python int per nonzero value of F_p (a
single bit plane over F_2).  A subobject lattice tests each tuple of
subspaces with one bit per arrow, from per-arrow inclusion masks read off
a cached order table per (d, p), and fixes its containment order on
first read, so a semistability verdict never builds it.  The isomorphism
classes of a box are the orbits of the base changes, found by a search
over elementary row and column operations.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import json
from dataclasses import dataclass
from operator import getitem, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .exact import InvariantError, RatComplex
from .lattice import InputError, rational_list, require_int, require_keys, require_list


class ResourceBound(RuntimeError):
    """An exhaustive enumeration was requested beyond the configured bound."""


DEFAULT_TOTAL_DIM = 8
DEFAULT_MAX_P = 3
MAX_VERTEX_DIM = 4  # subspace counts explode beyond F_p^4


# ---------------------------------------------------------------------------
# linear algebra over F_p, on packed rows
#
# A row over F_p is packed into a tuple of p - 1 Python ints, its bit
# planes: bit c of plane v - 1 is set iff the entry in column c is v.
# The planes are disjoint, so their sum is the support of the row.  Over
# F_2 a row is a single plane, and adding two rows XORs it.


@functools.lru_cache(maxsize=None)
def _field(p: int) -> tuple:
    """F_p on bit planes: (inv, perm, sums).  inv[v] = 1/v; the planes of
    g times a row x are x[perm[g][0]], x[perm[g][1]], ...; and sums[k]
    lists the pairs (i, j) of planes whose values add up to that of
    plane k."""
    planes = range(p - 1)
    inv = [0] + [pow(v, p - 2, p) for v in range(1, p)]
    perm = [()] + [tuple((k + 1) * inv[g] % p - 1 for k in planes) for g in range(1, p)]
    sums = tuple(
        tuple((i, j) for i in planes for j in planes if (i + 1 + j + 1) % p == k + 1)
        for k in planes
    )
    return inv, perm, sums


def _pack(row: Sequence[int], p: int) -> tuple:
    planes = [0] * (p - 1)
    for c, x in enumerate(row):
        if x % p:
            planes[x % p - 1] |= 1 << c
    return tuple(planes)


def _entry(x: tuple, bit: int) -> int:
    """The entry of the packed row x in the column of the single bit."""
    for v, plane in enumerate(x, 1):
        if plane & bit:
            return v
    return 0


def _unpack(x: tuple, cols: int) -> list:
    return [_entry(x, 1 << c) for c in range(cols)]


def _axpy(x: tuple, g: int, y: tuple, perm, sums) -> tuple:
    """x + g * y.  Scaling permutes the planes of y.  A column where one
    of x and g * y is zero keeps the other's value; where both are
    nonzero, plane k collects the plane pairs whose values add up to its
    own."""
    if g != 1:
        y = tuple([y[k] for k in perm[g]])
    one = ~(sum(x) & sum(y))
    out = []
    for a, b, pairs in zip(x, y, sums):
        a = (a | b) & one
        for i, j in pairs:
            a |= x[i] & y[j]
        out.append(a)
    return tuple(out)


def _echelon(rows: Iterable[tuple], cols: int, p: int) -> dict:
    """Row echelon form of packed rows with cols columns, as a dict from
    the bit of each pivot column to its pivot row, which has a 1 there
    and zeros in the columns before it; its size is the rank.

    Each row is cleared at the pivot columns found so far, lowest first;
    what is left, if nonzero, is scaled to a leading 1 and becomes the
    pivot row of its lowest column.  Stops once every column has a pivot.
    """
    inv, perm, sums = _field(p)
    pivots = {}
    mask = 0  # the bits of the pivot columns
    for x in rows:
        support = sum(x)
        hit = support & mask
        while hit:
            low = hit & -hit
            f = 1 if x[0] & low else _entry(x, low)  # plane 0 holds the 1s
            x = _axpy(x, p - f, pivots[low], perm, sums)
            support = sum(x)
            hit = support & mask
        if not support:
            continue
        low = support & -support
        if not x[0] & low:
            x = tuple([x[k] for k in perm[inv[_entry(x, low)]]])
        pivots[low] = x
        mask |= low
        if len(pivots) == cols:
            break
    return pivots


def _reduced(pivots: dict, p: int) -> tuple[list, list]:
    """The reduced row echelon form from the pivot rows of _echelon, as
    (rows, pivot columns) in the order of the pivots: each pivot row, last
    first, is cleared out of the rows above it (in place)."""
    _, perm, sums = _field(p)
    bits = sorted(pivots)
    for n in range(len(bits) - 1, 0, -1):
        low = bits[n]
        y = pivots[low]
        for above in bits[:n]:
            f = _entry(pivots[above], low)
            if f:
                pivots[above] = _axpy(pivots[above], p - f, y, perm, sums)
    return [pivots[bit] for bit in bits], [bit.bit_length() - 1 for bit in bits]


def _kernel(pivots: dict, cols: int, p: int) -> list[list[int]]:
    """Basis of the kernel from the pivot rows of _echelon: one vector per
    free column of the reduced form, 1 there and minus that column of the
    form at the pivots."""
    if len(pivots) == cols:
        return []
    red, pivot_cols = _reduced(pivots, p)
    basis = []
    for fc in range(cols):
        if fc in pivot_cols:
            continue
        v = [0] * cols
        v[fc] = 1
        for x, pc in zip(red, pivot_cols):
            f = _entry(x, 1 << fc)
            if f:
                v[pc] = p - f
        basis.append(v)
    return basis


def rref_mod_p(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (rows, pivot columns)."""
    if not rows:
        return [], []
    cols = len(rows[0])
    red, pivots = _reduced(_echelon([_pack(row, p) for row in rows], cols, p), p)
    return [_unpack(x, cols) for x in red], pivots


def mat_apply(mat: Sequence[Sequence[int]], v: Sequence[int], p: int) -> tuple:
    return tuple([sum(map(mul, row, v)) % p for row in mat])


def mat_is_invertible(mat: Sequence[Sequence[int]], p: int) -> bool:
    n = len(mat)
    if n == 0:
        return True
    if any(len(row) != n for row in mat):
        return False
    return len(_echelon([_pack(row, p) for row in mat], n, p)) == n


# ---------------------------------------------------------------------------
# subspaces of F_p^d, globally cached per (p, d)


@functools.lru_cache(maxsize=None)
def _vectors(d: int, p: int) -> tuple:
    """F_p^d as tuples, the first coordinate changing fastest."""
    return tuple(v[::-1] for v in itertools.product(range(p), repeat=d))


@dataclass(frozen=True)
class Subspace:
    dim: int
    elems: frozenset  # its vectors
    basis: tuple  # tuple of vector tuples
    completion: tuple  # the vectors _extend_basis adds to the basis


@functools.lru_cache(maxsize=None)
def subspaces_of(d: int, p: int) -> tuple:
    """All subspaces of F_p^d, ordered by dim and then by the sorted
    element set, each vector read last coordinate first.  Each basis
    extends a basis of lower dimension by the first vector of
    _vectors(d, p) that leads to a new subspace."""
    vectors = _vectors(d, p)
    zero = Subspace(0, frozenset(vectors[:1]), (), _extend_basis((), d, p))
    found = {zero.elems: zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for sp in frontier:
            covered = set(sp.elems)  # v in an extension found from sp gives it again
            for v in vectors:
                if v in covered:
                    continue
                key = frozenset(
                    tuple((a + c * b) % p for a, b in zip(w, v))
                    for w in sp.elems
                    for c in range(p)
                )
                covered |= key
                if key not in found:
                    basis = sp.basis + (v,)
                    new = Subspace(sp.dim + 1, key, basis, _extend_basis(basis, d, p))
                    found[key] = new
                    nxt.append(new)
        frontier = nxt
    return tuple(
        sorted(found.values(), key=lambda s: (s.dim, sorted(v[::-1] for v in s.elems)))
    )


@functools.lru_cache(maxsize=None)
def _subspace_order(d: int, p: int) -> tuple:
    """The containment order of subspaces_of(d, p) by index: (index,
    up_masks, ups, downs, by_dim).  index maps element sets to indices; bit
    j of up_masks[i] is set iff subspace i lies in j; ups[i] and downs[i]
    list the j above and below i, i included; by_dim[k] ranges over dim k."""
    spaces = subspaces_of(d, p)
    ups = tuple(tuple(j for j, b in enumerate(spaces) if a.elems <= b.elems) for a in spaces)
    downs = tuple(tuple(j for j, b in enumerate(spaces) if b.elems <= a.elems) for a in spaces)
    dims = [sp.dim for sp in spaces]
    by_dim = tuple(range(dims.index(k), dims.index(k) + dims.count(k)) for k in range(d + 1))
    index = {sp.elems: i for i, sp in enumerate(spaces)}
    return index, tuple(sum(1 << j for j in js) for js in ups), ups, downs, by_dim


# ---------------------------------------------------------------------------
# quivers and representations


@dataclass(frozen=True)
class Quiver:
    """Finite acyclic quiver with a field size; vertices are 0..n-1."""

    n: int
    arrows: tuple
    p: int

    def __init__(self, n: int, arrows, p: int):
        arrows = tuple((int(a), int(b)) for a, b in arrows)
        if n <= 0:
            raise InputError("need at least one vertex")
        for a, b in arrows:
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"arrow ({a},{b}) out of range")
        if p < 2 or any(p % q == 0 for q in range(2, p)):
            raise InputError("p must be prime")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "p", p)
        order = graphlib.TopologicalSorter()
        for a, b in arrows:
            order.add(b, a)
        try:
            order.prepare()
        except graphlib.CycleError:
            raise InputError("quiver must be acyclic")

    @staticmethod
    def a_n(n: int, p: int = 2) -> "Quiver":
        """Linear orientation 0 -> 1 -> ... -> n-1."""
        return Quiver(n, [(i, i + 1) for i in range(n - 1)], p)

    @staticmethod
    def kronecker(arrows: int = 2, p: int = 2) -> "Quiver":
        return Quiver(2, [(0, 1)] * arrows, p)

    @staticmethod
    def from_json_dict(data: dict) -> "Quiver":
        require_keys(data, ("vertices", "arrows", "p"), "quiver config")
        for key in ("vertices", "p"):
            require_int(data[key], f"quiver config {key!r}")
        require_list(data["arrows"], "quiver config 'arrows'", None)
        for arrow in data["arrows"]:
            require_list(arrow, "quiver config 'arrows' entry", 2)
        return Quiver(data["vertices"], [tuple(a) for a in data["arrows"]], data["p"])

    def to_json_dict(self) -> dict:
        return {"vertices": self.n, "arrows": [list(a) for a in self.arrows], "p": self.p}


@dataclass(frozen=True)
class QuiverRep:
    """dims[v] and one matrix per arrow, shaped dims[target] x dims[source]."""

    dims: tuple
    mats: tuple

    def __init__(self, dims, mats, quiver: Optional[Quiver] = None):
        dims = tuple(int(d) for d in dims)
        mats = tuple(tuple(tuple(int(x) for x in row) for row in m) for m in mats)
        if quiver is not None:
            if len(dims) != quiver.n or len(mats) != len(quiver.arrows):
                raise InputError("rep shape disagrees with the quiver")
            for (a, b), m in zip(quiver.arrows, mats):
                if len(m) != dims[b] or any(len(row) != dims[a] for row in m):
                    raise InputError(
                        f"matrix for arrow ({a},{b}) must be {dims[b]}x{dims[a]}"
                    )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mats", mats)

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    @staticmethod
    def zero(Q: Quiver) -> "QuiverRep":
        return QuiverRep((0,) * Q.n, tuple(() for _ in Q.arrows), Q)

    @staticmethod
    def simple(Q: Quiver, v: int) -> "QuiverRep":
        dims = tuple(1 if i == v else 0 for i in range(Q.n))
        mats = []
        for a, b in Q.arrows:
            mats.append(
                tuple(tuple(0 for _ in range(dims[a])) for _ in range(dims[b]))
            )
        return QuiverRep(dims, tuple(mats), Q)

    def direct_sum(self, other: "QuiverRep", Q: Quiver) -> "QuiverRep":
        dims = tuple(a + b for a, b in zip(self.dims, other.dims))
        mats = []
        for idx, (a, b) in enumerate(Q.arrows):
            m1, m2 = self.mats[idx], other.mats[idx]
            rows = []
            for r in range(self.dims[b]):
                rows.append(tuple(m1[r]) + (0,) * other.dims[a])
            for r in range(other.dims[b]):
                rows.append((0,) * self.dims[a] + tuple(m2[r]))
            mats.append(tuple(rows))
        return QuiverRep(dims, tuple(mats), Q)


def check_resource(E: QuiverRep, Q: Quiver, total_bound: int = DEFAULT_TOTAL_DIM):
    if E.total_dim() > total_bound:
        raise ResourceBound(
            f"total dimension {E.total_dim()} exceeds the bound {total_bound}"
        )
    if any(d > MAX_VERTEX_DIM for d in E.dims):
        raise ResourceBound(
            f"vertex dimension above {MAX_VERTEX_DIM} makes subspace "
            "enumeration intractable"
        )
    if Q.p > DEFAULT_MAX_P:
        raise ResourceBound(f"field size {Q.p} exceeds the bound {DEFAULT_MAX_P}")


# ---------------------------------------------------------------------------
# Hom, Ext^1, Euler form


def _commuting_square_rows(E: QuiverRep, F: QuiverRep, Q: Quiver) -> tuple:
    """The linear map (phi_v) |-> (phi_tgt o E_a - F_a o phi_src) over F_p,
    as packed rows: one per arrow a and entry of its target block.  The
    unknowns are the entries of phi_v, row-major, v = 0..n-1; returns
    (rows, offsets) with phi_v[i][j] at column offsets[v] + i * E.dims[v] + j
    and offsets[-1] the number of unknowns."""
    arrows = Q.arrows
    if not (len(E.dims) == len(F.dims) == Q.n and len(E.mats) == len(F.mats) == len(arrows)):
        raise InputError("representations do not live on this quiver")
    p = Q.p
    offsets = [0]
    for f, e in zip(F.dims, E.dims):
        offsets.append(offsets[-1] + f * e)
    # the row of arrow a and (i, j), i < F.dims[b] and j < E.dims[a], is
    #   sum_k phi_b[i][k] Ea[k][j] - sum_k Fa[i][k] phi_a[k][j]:
    # column j of Ea from phi_b[i][0] on, and row i of -Fa with stride
    # E.dims[a] from phi_a[0][j] on; plane by plane, then zipped into rows
    planes = []
    for v in range(1, p):
        plane = []
        for (a, b), Ea, Fa in zip(arrows, E.mats, F.mats):
            ea = E.dims[a]
            if not (ea and Fa):
                continue
            cols_e = [0] * ea
            bit = 1
            for row in Ea:
                for j in range(ea):
                    if row[j] % p == v:
                        cols_e[j] |= bit
                bit <<= 1
            shift = offsets[b]
            for row in Fa:
                row_f = 0
                bit = 1 << offsets[a]
                for x in row:
                    if -x % p == v:
                        row_f |= bit
                    bit <<= ea
                for col_e in cols_e:
                    plane.append(col_e << shift | row_f)
                    row_f <<= 1
                shift += E.dims[b]
        planes.append(plane)
    return list(zip(*planes)), offsets


def hom_space(E: QuiverRep, F: QuiverRep, Q: Quiver) -> tuple[int, list]:
    """Dimension and basis of Hom(E, F): solutions of the commuting-square
    system  phi_tgt o E_a = F_a o phi_src  over F_p.

    A basis element is a tuple of matrices (phi_v), one per vertex.
    """
    rows, offsets = _commuting_square_rows(E, F, Q)
    cols = offsets[-1]
    kernel = _kernel(_echelon(rows, cols, Q.p), cols, Q.p)
    basis = []
    for kv in kernel:
        phis = []
        for v in range(Q.n):
            col = offsets[v]
            mat = tuple(
                tuple(kv[col + i * E.dims[v] + j] for j in range(E.dims[v]))
                for i in range(F.dims[v])
            )
            phis.append(mat)
        basis.append(tuple(phis))
    return len(kernel), basis


def _hom_combinations(basis: Sequence[tuple], p: int) -> Iterator[tuple]:
    """Every nonzero F_p-combination of a hom_space basis, as a tuple of
    matrices (phi_v).  The basis is linearly independent, so none of them
    is the zero map."""
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        if not any(coeffs):
            continue
        yield tuple(
            tuple(
                tuple(sum(c * x for c, x in zip(coeffs, xs)) % p for xs in zip(*rows))
                for rows in zip(*mats)
            )
            for mats in zip(*basis)
        )


def ext1_dim(E: QuiverRep, F: QuiverRep, Q: Quiver) -> int:
    """dim Ext^1(E, F), from the two-term resolution: the cokernel of
    (phi_v) |-> (F_a phi_src - phi_tgt E_a), rows minus rank.  hom_space
    is columns minus the same rank, so hom - ext^1 = <dim E, dim F> holds
    whatever the rank is: the Euler form checks the system's shape, not
    its elimination."""
    rows, offsets = _commuting_square_rows(E, F, Q)
    return len(rows) - len(_echelon(rows, offsets[-1], Q.p))


def euler_pairing(d: Sequence[int], e: Sequence[int], Q: Quiver) -> int:
    """<d, e> = sum_v d_v e_v - sum_{a: i->j} d_i e_j (hereditary Euler
    form; equals hom - ext^1 on dimension vectors)."""
    if len(d) != Q.n or len(e) != Q.n:
        raise InputError("dimension vector length mismatch")
    total = sum(int(x) * int(y) for x, y in zip(d, e))
    for a, b in Q.arrows:
        total -= int(d[a]) * int(e[b])
    return total


# ---------------------------------------------------------------------------
# subobject lattices


class SubobjectEntry(NamedTuple):
    """One arrow-closed tuple of subspaces: its total, dimension vector and
    indices into subspaces_of(d, p) per vertex, in the lattice's order."""

    total: int
    dims: tuple
    space_idx: tuple


class SubobjectLattice:
    """All subrepresentations of a rep, in a deterministic order (zero
    first, E last), with their containment order as bitmasks, fixed on
    first read: the verdict of a rep needs only the entries and their
    classes, since the zero subobject lies below every entry."""

    def __init__(self, E: QuiverRep, Q: Quiver, total_bound: int = DEFAULT_TOTAL_DIM):
        check_resource(E, Q, total_bound)
        self.E, self.Q = E, Q
        p = Q.p
        per_vertex = [subspaces_of(d, p) for d in E.dims]
        self._per_vertex = per_vertex
        tables = [_subspace_order(d, p) for d in E.dims]
        # for each arrow and each source subspace s, the bitmask of the
        # target subspaces that contain the image of s: the image's
        # element set names the least of them in the target's table
        checks = []
        for mat, (a, b) in zip(E.mats, Q.arrows):
            image = {v: mat_apply(mat, v, p) for v in _vectors(E.dims[a], p)}
            index, up_masks = tables[b][:2]
            images = [frozenset([image[v] for v in sp.elems]) for sp in per_vertex[a]]
            checks.append(([up_masks[index[s]] for s in images], a, b))
        # the subspaces of each dimension vector in turn, by total and then
        # dims (a stable sort of the product), give the lattice order
        by_dim = [t[4] for t in tables]
        entries = []
        for dims in sorted(itertools.product(*[range(d + 1) for d in E.dims]), key=sum):
            total = sum(dims)
            for choice in itertools.product(*map(getitem, by_dim, dims)):
                for masks, a, b in checks:
                    if not masks[choice[a]] >> choice[b] & 1:
                        break
                else:
                    entries.append(SubobjectEntry(total, dims, choice))
        self.entries = entries
        self.bottom, self.top = 0, len(entries) - 1

    @functools.cached_property
    def above(self) -> list:
        """above[i] has bit j set iff entry i is strictly contained in
        entry j.  Built with below on first read."""
        above, self.below = self._containment_masks()
        return above

    @functools.cached_property
    def below(self) -> list:
        """below[j] has bit i set iff entry i is strictly contained in
        entry j.  Built with above on first read."""
        self.above, below = self._containment_masks()
        return below

    def _containment_masks(self) -> tuple[list, list]:
        """(above, below).  Per vertex, the entries are grouped by their
        subspace there; containment is the AND over the vertices of the
        unions of the groups whose subspaces contain (or lie in) it."""
        n = len(self.entries)
        above = [(1 << n) - 1] * n
        below = list(above)
        for v, d in enumerate(self.E.dims):
            up_lists, down_lists = _subspace_order(d, self.Q.p)[2:4]
            col = [ent.space_idx[v] for ent in self.entries]
            groups = [0] * len(up_lists)
            for i, s in enumerate(col):
                groups[s] |= 1 << i
            # the groups are disjoint bit sets, so their sum is their union
            used = set(col)
            ups = {s: sum([groups[t] for t in up_lists[s]]) for s in used}
            downs = {s: sum([groups[t] for t in down_lists[s]]) for s in used}
            above = [m & ups[s] for m, s in zip(above, col)]
            below = [m & downs[s] for m, s in zip(below, col)]
        for i in range(n):
            above[i] ^= 1 << i
            below[i] ^= 1 << i
        return above, below

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def _spaces(self, i: int) -> list:
        """Per-vertex subspaces of the subobject."""
        return [sub[s] for sub, s in zip(self._per_vertex, self.entries[i].space_idx)]

    def basis_of(self, i: int) -> tuple:
        """Per-vertex bases of the subobject (tuples of vectors)."""
        return tuple(sp.basis for sp in self._spaces(i))

    def sub_rep(self, i: int) -> QuiverRep:
        """The subobject as a representation, in its own basis."""
        return _rep_in_bases(self.E, self.Q, self.basis_of(i))

    def quotient_rep(self, i: int) -> QuiverRep:
        """E modulo the subobject, in the completion of the subobject's basis."""
        spaces = self._spaces(i)
        added = [sp.completion for sp in spaces]
        return _rep_in_bases(self.E, self.Q, added, [sp.basis for sp in spaces])

    def interval_quotient_class(self, lo: int, hi: int) -> tuple:
        """Dimension vector of entries[hi]/entries[lo] (assumes lo <= hi)."""
        a, b = self.entries[lo], self.entries[hi]
        return tuple(y - x for x, y in zip(a.dims, b.dims))


def _coordinates(basis: Sequence[tuple], targets: Sequence[tuple], p: int) -> list:
    """Coordinates of each target vector in the independent family basis,
    from one elimination on the columns [basis | targets], whose pivots are
    the basis columns unless a target lies outside the span."""
    if not targets:
        return []
    k = len(basis)
    pivots = _echelon([_pack(row, p) for row in zip(*basis, *targets)], k + len(targets), p)
    if sum(pivots) != (1 << k) - 1:
        raise InvariantError("vector outside subspace")
    red, _ = _reduced(pivots, p)
    return [[_entry(x, 1 << (k + j)) for x in red] for j in range(len(targets))]


def _rep_in_bases(
    E: QuiverRep, Q: Quiver, bases: Sequence[tuple], dropped=None
) -> QuiverRep:
    """E written in the vectors bases[v] at each vertex v, modulo the span
    of dropped[v] (nothing by default).  Each arrow a -> b takes bases[a]
    through E_a, reads the coordinates of the images in the basis
    dropped[b] + bases[b] and drops the leading len(dropped[b]) of them;
    the images must lie in that span."""
    p = Q.p
    if dropped is None:
        dropped = [()] * Q.n
    mats = []
    for idx, (a, b) in enumerate(Q.arrows):
        images = [mat_apply(E.mats[idx], v, p) for v in bases[a]]
        cols = _coordinates(tuple(dropped[b]) + tuple(bases[b]), images, p)
        skip = len(dropped[b])
        mats.append(tuple(tuple(c[skip + i] for c in cols) for i in range(len(bases[b]))))
    return QuiverRep(tuple(len(x) for x in bases), tuple(mats), Q)


def _extend_basis(basis: Sequence[tuple], d: int, p: int) -> tuple:
    """Complete a basis of a subspace S to a basis of F_p^d; returns the
    added vectors, each the first of _vectors(d, p) outside the span so
    far.  The vectors before the first one outside S, last nonzero
    coordinate m, lie in S, so S holds e_0, ..., e_{m-1} and that vector
    is e_m.  So the added vectors are the e_m for which no vector of S has
    its last nonzero coordinate at m: the columns without a pivot when the
    basis is eliminated last coordinate first."""
    pivots = _echelon([_pack(v[::-1], p) for v in basis], d, p)
    last = {d - bit.bit_length() for bit in pivots}
    return tuple(tuple(int(i == m) for i in range(d)) for m in range(d) if m not in last)


# ---------------------------------------------------------------------------
# enumeration of representations


def enumerate_matrices(rows: int, cols: int, p: int) -> Iterator[tuple]:
    entries = rows * cols
    for flat in itertools.product(range(p), repeat=entries):
        yield tuple(
            tuple(flat[r * cols + c] for c in range(cols)) for r in range(rows)
        )


def count_reps(dims: Sequence[int], Q: Quiver) -> int:
    total = 1
    for a, b in Q.arrows:
        total *= Q.p ** (dims[b] * dims[a])
    return total


def enumerate_reps_of_dims(dims: Sequence[int], Q: Quiver) -> Iterator[QuiverRep]:
    dims = tuple(dims)
    gens = [enumerate_matrices(dims[b], dims[a], Q.p) for a, b in Q.arrows]
    for mats in itertools.product(*[list(g) for g in gens]):
        yield QuiverRep(dims, mats, Q)


def enumerate_reps(Q: Quiver, max_dims: Sequence[int]) -> Iterator[QuiverRep]:
    """All nonzero representations with dims[v] <= max_dims[v], in
    deterministic order.

    Raises ResourceBound at the call, before any rep is made, when the box
    reaches past total dimension DEFAULT_TOTAL_DIM, the bound every
    subobject lattice is built under; no rep of the box is dropped.
    """
    max_dims = tuple(int(x) for x in max_dims)
    if len(max_dims) != Q.n:
        raise InputError("max_dims length disagrees with the quiver")
    if sum(max_dims) > DEFAULT_TOTAL_DIM:
        raise ResourceBound(
            f"box {list(max_dims)} has total dimension {sum(max_dims)}, "
            f"above the bound {DEFAULT_TOTAL_DIM}"
        )
    boxes = itertools.product(*[range(m + 1) for m in max_dims])
    return itertools.chain.from_iterable(
        enumerate_reps_of_dims(dims, Q) for dims in boxes if any(dims)
    )


def _elementary_moves(dims: tuple, p: int) -> list:
    """The elementary generators of prod_v GL(dims[v], F_p), each as
    (v, i, j, c, c'): g_v = I + c E_ij, so that g_v M adds c times row j
    to row i and M g_v^-1 adds c' times column i to column j.  They are
    the transvections (i != j, c = 1, c' = -1) and, over p > 2, the
    scaling of coordinate 0 by a generator g of F_p^* (c = g - 1,
    c' = 1/g - 1); together they generate the group."""
    g = next((g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1), 1)
    moves = []
    for v, d in enumerate(dims):
        moves.extend((v, i, j, 1, p - 1) for i in range(d) for j in range(d) if i != j)
        if g != 1 and d:
            moves.append((v, 0, 0, g - 1, pow(g, p - 2, p) - 1))
    return moves


def _moved(mats: tuple, arrows: tuple, move: tuple, p: int) -> tuple:
    """The matrices of a rep after the base change of one elementary move:
    M_a becomes g_t M_a g_s^-1, a row operation on the matrices into v and
    a column operation on those out of it (no arrow is a loop)."""
    v, i, j, c, ci = move
    out = []
    for (s, t), M in zip(arrows, mats):
        if t == v:
            rows = list(M)
            rows[i] = tuple([(x + c * y) % p for x, y in zip(M[i], M[j])])
            M = tuple(rows)
        elif s == v:
            M = tuple([row[:j] + ((row[j] + ci * row[i]) % p,) + row[j + 1:] for row in M])
        out.append(M)
    return tuple(out)


def iso_classes(reps: Sequence[QuiverRep], Q: Quiver) -> list[list[int]]:
    """The isomorphism classes of reps, as lists of their indices in
    increasing order, ordered by their first member.  reps must hold the
    whole orbit of each member, as every box of enumerate_reps does.

    prod_v GL(d_v, F_p) acts by M_a -> g_t M_a g_s^-1, and its orbits are
    the isomorphism classes.  The group is finite and generated by the
    elementary moves, so an orbit is the closure of one member under
    them: a breadth-first search from the first member not yet placed.
    """
    index = {(E.dims, E.mats): i for i, E in enumerate(reps)}
    placed = [False] * len(reps)
    classes = []
    moves = {}
    for first, E in enumerate(reps):
        if placed[first]:
            continue
        if E.dims not in moves:
            moves[E.dims] = _elementary_moves(E.dims, Q.p)
        placed[first] = True
        members, frontier = [first], [E.mats]
        while frontier:
            found = []
            for mats in frontier:
                for move in moves[E.dims]:
                    image = _moved(mats, Q.arrows, move, Q.p)
                    i = index.get((E.dims, image))
                    if i is None:
                        raise InputError("the reps do not hold every orbit they meet")
                    if not placed[i]:
                        placed[i] = True
                        members.append(i)
                        found.append(image)
            frontier = found
        classes.append(sorted(members))
    return classes


def random_rep(dims: Sequence[int], Q: Quiver, rng) -> QuiverRep:
    mats = []
    for a, b in Q.arrows:
        mats.append(
            tuple(
                tuple(rng.randrange(Q.p) for _ in range(dims[a]))
                for _ in range(dims[b])
            )
        )
    return QuiverRep(tuple(dims), tuple(mats), Q)


# ---------------------------------------------------------------------------
# config files


def load_quiver_config(path) -> tuple[Quiver, "object"]:
    """Read {"vertices", "arrows", "p", "charge"} JSON; returns (Quiver,
    HeartCharge).  Imported lazily to avoid a module cycle."""
    from .heart import HeartCharge

    with open(path) as fh:
        data = json.load(fh)
    Q = Quiver.from_json_dict(data)
    charge = data.get("charge")
    if charge is None:
        return Q, None
    require_list(charge, "quiver config 'charge'", None)
    entries = (rational_list(z, "quiver config 'charge' entry", 2) for z in charge)
    return Q, HeartCharge(RatComplex(re, im) for re, im in entries)
