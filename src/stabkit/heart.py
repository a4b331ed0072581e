"""Stability, filtrations, torsion pairs and slicing geometry on quiver
representations.

A charge assigns to each vertex an exact complex number in
H-bar = {Im > 0} u R_{<0}; the charge of a representation is the pairing
with its dimension vector, so phases of subquotients depend only on
classes and the whole Harder-Narasimhan theory runs on the finite
subobject lattice.

Charges may carry a common rational rotation offset: rotating a charge
by pi * q changes every phase by exactly q and no semistability verdict,
which is what makes the slicing-distance and deformation checks exact.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction
from functools import cached_property, cmp_to_key
from operator import mul
from typing import Callable, Optional, Sequence

from ._record import record
from .exact import (
    ExactnessError,
    PhaseValue,
    Quad,
    RatComplex,
    SqrtSum,
    as_fraction,
    sin2_pi,
)
from .lattice import InputError, InvariantError
from .quiver import (
    DEFAULT_TOTAL_DIM,
    Quiver,
    QuiverRep,
    SubobjectLattice,
    _hom_combinations,
    enumerate_reps,
    ext1_dim,  # no caller here: perfbench/tracing.py wraps heart.ext1_dim
    hom_space,
    iso_classes,
    mat_is_invertible,
)


_SLOT = threading.local()


def _lattice(E: QuiverRep, Q: Quiver) -> SubobjectLattice:
    """E's subobject lattice, from a one-slot memo per thread: calls made
    in a row on one rep (greedy HN then its oracle, a verdict then
    Jordan-Holder) share one lattice and its masks.  The slot holds E, so
    no other rep can take E's id while it is matched by identity."""
    last = getattr(_SLOT, "last", None)
    if last is not None and last[0] is E and last[1] == Q:
        return last[2]
    lat = SubobjectLattice(E, Q, DEFAULT_TOTAL_DIM)
    _SLOT.last = E, Q, lat, None, None
    return lat


class _Catalog:
    """The bounded nonzero reps of one (quiver, bound) in enumeration
    order and their isomorphism classes, filled on first use with the
    subobject lattice and class profile of each class's first member and
    one bit per pair of classes whose Hom vanishes.  None of it depends
    on a charge.

    Every sweep verdict (status, HN factors, Hom dimensions) is an
    isomorphism invariant, so the sweeps decide it once per class and
    weight it by the class sizes.  A failure names reps only by their
    dimension vectors, so member_dims and member_pairs expand it over the
    members in enumeration order, the order of a sweep over every rep.
    """

    def __init__(self, Q: Quiver, max_dims: tuple):
        self.key = Q, max_dims
        self.reps = list(enumerate_reps(Q, max_dims))
        self.members = iso_classes(self.reps, Q)
        self.first = [self.reps[m[0]] for m in self.members]
        self.of = [0] * len(self.reps)  # the class of each rep
        for c, members in enumerate(self.members):
            for i in members:
                self.of[i] = c
        self._lattices = [None] * len(self.members)
        self._zero = [0] * len(self.members)  # bit d of _zero[c]: Hom(class c, class d) = 0

    def lattice(self, c: int) -> SubobjectLattice:
        if self._lattices[c] is None:
            self._lattices[c] = SubobjectLattice(self.first[c], self.key[0], DEFAULT_TOTAL_DIM)
        return self._lattices[c]

    @cached_property
    def profiles(self) -> list:
        """The class profile of each class."""
        return [_profile(self.lattice(c)) for c in range(len(self.members))]

    def hom_vanishes(self, c: int, d: int) -> bool:
        """Whether Hom from class c to class d vanishes.  Only vanishing ones
        are kept, one bit each: the sweeps ask for quadratically many
        pairs, nearly all 0."""
        if not self._zero[c] >> d & 1:
            if hom_space(self.first[c], self.first[d], self.key[0])[0]:
                return False
            self._zero[c] |= 1 << d
        return True

    def judged(self, zc: HeartCharge) -> list:
        """(class, status, charge value, destabilizer class) per class
        under zc."""
        return [(c, *_class_verdict(profile, zc)[:3]) for c, profile in enumerate(self.profiles)]

    def member_dims(self, classes) -> list:
        """The dims of every member of the given classes, in enumeration
        order."""
        classes = set(classes)
        return [E.dims for E, c in zip(self.reps, self.of) if c in classes]

    def member_pairs(self, bad: set) -> list:
        """(E.dims, F.dims) for every pair of reps whose classes make a pair
        (c, d) in bad, E and then F in enumeration order."""
        lefts, rights = {c for c, _ in bad}, {d for _, d in bad}
        es = [(E.dims, c) for E, c in zip(self.reps, self.of) if c in lefts]
        fs = [(E.dims, d) for E, d in zip(self.reps, self.of) if d in rights]
        return [(e, f) for e, c in es for f, d in fs if (c, d) in bad]


def _catalog(Q: Quiver, max_dims: Sequence[int]) -> _Catalog:
    """The catalog of (Q, max_dims), from a one-slot memo per thread matched
    by equality, so that sweeps called in a row on one box share it."""
    key = Q, tuple(int(x) for x in max_dims)
    cat = getattr(_SLOT, "catalog", None)
    if cat is None or cat.key != key:
        _SLOT.catalog = None  # the old catalog goes before the new one is built
        cat = _SLOT.catalog = _Catalog(*key)
    return cat


def _charge_values(lat: SubobjectLattice, zc: HeartCharge) -> tuple:
    """The integer charge value (x, y) of every lattice entry, so that
    every phase comparison inside the HN machinery is a single integer
    cross product: phi(a) < phi(b) iff a.x b.y - a.y b.x > 0 on H-bar.
    Every entry has the length of lat.E.dims, so that is checked once.

    The values on the slot's lattice ride in the slot, matched by the
    identity of (lat, zc), which it holds: greedy HN and its oracle
    compute them once.
    """
    last = getattr(_SLOT, "last", None)
    if last is not None and last[2] is lat and last[3] is zc:
        return last[4]
    if len(lat.E.dims) != len(zc._zint):
        raise InputError("dimension vector length disagrees with the charge")
    dims = [ent.dims for ent in lat.entries]
    by_dims = {}
    for d in set(dims):
        x = y = 0
        for k, (zx, zy) in zip(d, zc._zint):
            x += k * zx
            y += k * zy
        by_dims[d] = x, y
    values = tuple(map(by_dims.__getitem__, dims))
    if last is not None and last[2] is lat:
        _SLOT.last = *last[:3], zc, values
    return values


def _profile(lat: SubobjectLattice) -> tuple:
    """The class profile of lat.E: the distinct dims of the lattice entries
    in lattice order, zero first and E's own last.  By King's criterion
    E's status and its HN extremes depend on E only through it."""
    return tuple(dict.fromkeys(ent.dims for ent in lat.entries))


def _cls(values: list, lo: int, hi: int) -> tuple:
    """Integer charge value of the subquotient entries[hi] / entries[lo]."""
    a, b = values[lo], values[hi]
    return (b[0] - a[0], b[1] - a[1])


def _cross(a: tuple, b: tuple) -> int:
    """phi(a) < phi(b) iff positive, for nonzero values in H-bar."""
    return a[0] * b[1] - a[1] * b[0]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# charges


@record
class HeartCharge:
    """One value z_v in H-bar \\ {0} per vertex, plus a common rotation.

    The effective charge is exp(i pi rot) * sum(dims[v] * z[v]).  The
    base values must lie in H-bar so that every nonzero effective class
    has a well-defined phase; the rotation relabels phases exactly.

    The denominators of the z[v] are cleared once, at construction, into
    one integer pair per vertex: a common positive scale moves no phase,
    so phases and their order are read off integer values.
    """

    z: tuple
    rot: Fraction = Fraction(0)

    def __init__(self, z, rot=Fraction(0)):
        z = tuple(z)
        for zv in z:
            if not isinstance(zv, RatComplex):
                raise InputError("charge entries must be exact complex numbers")
            if zv.is_zero() or not zv.in_upper_closure():
                raise InputError(f"charge value {zv} is not in H-bar minus 0")
        den = math.lcm(*(c.denominator for zv in z for c in (zv.re, zv.im)))
        zint = tuple((int(zv.re * den), int(zv.im * den)) for zv in z)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "rot", as_fraction(rot))
        object.__setattr__(self, "_zint", zint)

    @property
    def n(self) -> int:
        return len(self.z)

    def base_value(self, dims: Sequence[int]) -> RatComplex:
        if len(dims) != len(self.z):
            raise InputError("dimension vector length disagrees with the charge")
        total = RatComplex(0, 0)
        for d, zv in zip(dims, self.z):
            if d:
                total = total + zv.scale(d)
        return total

    def phase(self, dims: Sequence[int]) -> PhaseValue:
        if len(dims) != len(self._zint):
            raise InputError("dimension vector length disagrees with the charge")
        # the base value of dims times the cleared denominator
        x = sum(d * zv[0] for d, zv in zip(dims, self._zint))
        y = sum(d * zv[1] for d, zv in zip(dims, self._zint))
        if x == 0 and y == 0:
            raise InputError("zero class has no phase")
        if y < 0 or (y == 0 and x > 0):
            raise ValueError(f"class {tuple(dims)} lies outside H-bar")
        return PhaseValue((x, y), self.rot)

    def abs2(self, dims: Sequence[int]) -> Fraction:
        return self.base_value(dims).abs2()

    def rotated(self, eps) -> "HeartCharge":
        """The charge composed with rotation by pi*eps (phases shift by
        +eps, magnitudes and all verdicts unchanged)."""
        return HeartCharge(self.z, self.rot + as_fraction(eps))


# ---------------------------------------------------------------------------
# semistability and filtrations


@record
class SemistabilityVerdict:
    status: str  # 'stable' | 'semistable' | 'unstable'
    phase: PhaseValue
    witness: Optional[QuiverRep] = None
    witness_dims: Optional[tuple] = None

    def is_semistable(self) -> bool:
        return self.status in ("stable", "semistable")


def _max_destabilizer(lat: SubobjectLattice, values: list, current: int) -> int:
    """The subobject strictly above `current` whose quotient class has
    maximal phase, ties broken by maximal total dimension and then the
    deterministic lattice order.  Above the zero subobject lies every
    other entry, so that scan reads no containment mask."""
    if current == lat.bottom:
        above = range(lat.bottom + 1, lat.top + 1)
    else:
        above = _bits(lat.above[current])
    best = None
    best_cls = None
    for j in above:
        cv = _cls(values, current, j)
        if best is None:
            best, best_cls = j, cv
            continue
        c = _cross(best_cls, cv)  # > 0 iff phi(best) < phi(j)
        if c > 0 or (c == 0 and lat.entries[j].total > lat.entries[best].total):
            best, best_cls = j, cv
    if best is None:
        raise InvariantError("no subobject above a proper subobject")
    return best


def _class_verdict(profile: tuple, zc: HeartCharge) -> tuple:
    """The status of a rep E with class profile `profile` ('stable',
    'semistable' or 'unstable'), E's charge value and the classes of E's
    first and last HN factors, equal iff E is semistable.  The first is
    E's maximal destabilizer: the unique class of maximal phase and then
    maximal total dimension, so the witness of instability is the one
    entry of its class.  The last is E/S for the HN kernel S = E_{k-1}:
    it lies in every S whose quotient has least phase, so it comes first
    in lattice order among them."""
    if len(profile[-1]) != zc.n:
        raise InputError("dimension vector length disagrees with the charge")
    xs, ys = zip(*zc._zint)
    values = [(sum(map(mul, dims, xs)), sum(map(mul, dims, ys))) for dims in profile]
    tx, ty = top = values[-1]
    first = 1
    for j in range(2, len(values)):
        c = _cross(values[first], values[j])  # > 0 iff phi(first) < phi(j)
        if c > 0 or (c == 0 and sum(profile[j]) > sum(profile[first])):
            first = j
    if _cross(top, values[first]) <= 0:  # phi(first) = phi(E): first is E
        stable = all(tx * y - ty * x != 0 for x, y in values[1:-1])  # _cross(top, v)
        return "stable" if stable else "semistable", top, profile[-1], profile[-1]
    last, low = top, 0
    for j in range(1, len(values) - 1):
        q = (tx - values[j][0], ty - values[j][1])
        if _cross(q, last) > 0:  # phi(q) < phi(last)
            last, low = q, j
    if _cross(last, values[first]) <= 0:
        raise InvariantError("HN phases must strictly decrease")
    return "unstable", top, profile[first], tuple(a - b for a, b in zip(profile[-1], profile[low]))


def _entry_of(lat: SubobjectLattice, dims: tuple) -> int:
    """The index of the first lattice entry of class dims."""
    return next(k for k, ent in enumerate(lat.entries) if ent.dims == dims)


def is_semistable(E: QuiverRep, zc: HeartCharge, Q: Quiver) -> SemistabilityVerdict:
    """Exhaustive check over all proper nonzero subobjects."""
    if E.is_zero():
        raise InputError("the zero representation has no stability verdict")
    lat = _lattice(E, Q)
    status, _, first, _ = _class_verdict(_profile(lat), zc)
    phi = zc.phase(E.dims)
    if status == "unstable":
        return SemistabilityVerdict(status, phi, lat.sub_rep(_entry_of(lat, first)), first)
    return SemistabilityVerdict(status, phi)


@record
class HNResult:
    """Chain of subobject dimension vectors 0 = d_0 < ... < d_k = dims(E)
    together with the factor classes and their strictly decreasing phases."""

    chain_dims: tuple
    factors: tuple  # ((class, phase), ...)


def _hn_chain(lat: SubobjectLattice, values: list) -> list:
    """Entry indices of the greedy HN chain, bottom to top.  Every step
    but the first reads lat.above (in _max_destabilizer)."""
    current = lat.bottom
    chain = [current]
    prev_cls = None
    while current != lat.top:
        best = _max_destabilizer(lat, values, current)
        cls_val = _cls(values, current, best)
        if prev_cls is not None and _cross(cls_val, prev_cls) <= 0:
            raise InvariantError("HN phases must strictly decrease")
        prev_cls = cls_val
        chain.append(best)
        current = best
    return chain


def hn_filtration(E: QuiverRep, zc: HeartCharge, Q: Quiver) -> HNResult:
    """Greedy Harder-Narasimhan filtration: repeatedly take the maximal
    destabilizer of the current quotient (maximal phase, then maximal
    total dimension, then first in the deterministic lattice order).

    The greedy rule is guarded by the exhaustive all-filtrations oracle
    in the test suite for every shipped configuration.
    """
    if E.is_zero():
        raise InputError("the zero representation has no HN filtration")
    lat = _lattice(E, Q)
    chain = _hn_chain(lat, _charge_values(lat, zc))
    factors = []
    for lo, hi in zip(chain, chain[1:]):
        cls = lat.interval_quotient_class(lo, hi)
        factors.append((cls, zc.phase(cls)))
    return HNResult(tuple(lat.entries[i].dims for i in chain), tuple(factors))


def _phases(zc: HeartCharge, classes) -> dict:
    """class -> zc.phase(class), each distinct class once."""
    return {cls: zc.phase(cls) for cls in dict.fromkeys(classes)}


def hn_oracle(E: QuiverRep, zc: HeartCharge, Q: Quiver) -> list:
    """All filtrations with semistable factors of strictly decreasing
    phase, found by brute force over the subobject lattice.  Returns the
    list of chains (as tuples of dimension vectors); Harder-Narasimhan
    uniqueness says there is exactly one."""
    lat = _lattice(E, Q)
    values = _charge_values(lat, zc)
    above, below, top = lat.above, lat.below, lat.top
    results = []

    def extend(current: int, chain: list, px, py):
        """Append every completion of chain, which ends at current, whose
        next factor has phase below that of the last factor's value
        (px, py), or any phase if px is None."""
        if current == top:
            results.append(tuple(lat.entries[i].dims for i in chain))
            return
        cx, cy = values[current]
        up = rest = above[current]
        while rest:
            low = rest & -rest
            rest ^= low
            nxt = low.bit_length() - 1
            nx, ny = values[nxt]
            fx, fy = nx - cx, ny - cy
            if px is not None and fx * py - fy * px <= 0:
                continue  # phases must strictly decrease along the chain
            # the factor is semistable iff no subobject of it has higher phase
            mids = up & below[nxt]
            while mids:
                low = mids & -mids
                mids ^= low
                mx, my = values[low.bit_length() - 1]
                if fx * (my - cy) - fy * (mx - cx) > 0:
                    break
            else:
                extend(nxt, chain + [nxt], fx, fy)

    extend(lat.bottom, [lat.bottom], None, None)
    return results


def jh_filtration(E: QuiverRep, zc: HeartCharge, Q: Quiver) -> list:
    """Stable factors (with multiplicity) of a semistable representation,
    all of the same phase; the multiset is unique, the chain is not."""
    if not is_semistable(E, zc, Q).is_semistable():
        raise InputError("Jordan-Holder refinement needs a semistable input")
    lat = _lattice(E, Q)
    values = _charge_values(lat, zc)
    top_val = values[lat.top]
    above = lat.above
    factors = []
    current = lat.bottom
    while current != lat.top:
        # the minimal same-phase extension is a stable factor
        same_phase = [
            nxt
            for nxt in _bits(above[current])
            if _cross(_cls(values, current, nxt), top_val) == 0
        ]
        if not same_phase:
            raise InvariantError("a semistable object must refine to stable factors")
        best = min(same_phase, key=lambda i: lat.entries[i].total)
        factors.append(lat.interval_quotient_class(current, best))
        current = best
    return factors


def jh_oracle(E: QuiverRep, zc: HeartCharge, Q: Quiver) -> set:
    """The set of stable-factor multisets over all maximal same-phase
    chains (should be a single multiset)."""
    if not is_semistable(E, zc, Q).is_semistable():
        raise InputError("oracle needs a semistable input")
    lat = _lattice(E, Q)
    values = _charge_values(lat, zc)
    top_val = values[lat.top]
    above, below = lat.above, lat.below
    multisets = set()

    def minimal_extensions(lo: int):
        out = []
        for hi in _bits(above[lo]):
            if _cross(_cls(values, lo, hi), top_val) != 0:
                continue
            minimal = True
            for mid in _bits(above[lo] & below[hi]):
                if _cross(_cls(values, lo, mid), top_val) == 0:
                    minimal = False
                    break
            if minimal:
                out.append(hi)
        return out

    def walk(current: int, acc: list):
        if current == lat.top:
            multisets.add(tuple(sorted(acc)))
            return
        for nxt in minimal_extensions(current):
            walk(nxt, acc + [lat.interval_quotient_class(current, nxt)])

    walk(lat.bottom, [])
    return multisets


# ---------------------------------------------------------------------------
# torsion pairs and tilts


@record
class TorsionCut:
    """0 -> E' -> E -> E'' -> 0 with phases(E') > phi0 >= phases(E'')."""

    sub: QuiverRep
    sub_dims: tuple
    quotient: QuiverRep
    quotient_dims: tuple
    hom_vanishes: bool


def torsion_cut(
    E: QuiverRep,
    phi0: PhaseValue,
    zc: HeartCharge,
    Q: Quiver,
) -> TorsionCut:
    """Split E along its HN filtration at phase phi0: E' collects the
    factors of phase > phi0.  Uniqueness is certified by Hom(E',E'') = 0."""
    if not isinstance(phi0, PhaseValue):
        phi0 = PhaseValue.rational(phi0)
    if E.is_zero():
        zero = QuiverRep.zero(Q)
        return TorsionCut(zero, zero.dims, zero, zero.dims, True)
    lat = _lattice(E, Q)
    chain = _hn_chain(lat, _charge_values(lat, zc))
    cut = 0
    for lo, hi in zip(chain, chain[1:]):
        if zc.phase(lat.interval_quotient_class(lo, hi)) > phi0:
            cut += 1
        else:
            break
    sub = lat.sub_rep(chain[cut])
    quo = lat.quotient_rep(chain[cut])
    hom_dim, _ = hom_space(sub, quo, Q)
    return TorsionCut(sub, sub.dims, quo, quo.dims, hom_dim == 0)


@record
class TorsionPairReport:
    ok: bool
    witness: Optional[QuiverRep] = None
    axiom: Optional[str] = None
    detail: str = ""


def torsion_pair_verify(
    t_predicate: Callable[[QuiverRep], bool],
    Q: Quiver,
    max_dims: Sequence[int],
) -> TorsionPairReport:
    """Check that (T, T-perp) decomposes every representation up to the
    bound: for each E there must be a subobject in T whose quotient is
    left perpendicular to all of T.

    The predicate must be isomorphism-closed: it is evaluated on every
    bounded rep, and a class of isomorphic reps that it splits fails, with
    the first rep of T (in enumeration order) in such a class as the
    witness.
    """
    return _torsion_pair(t_predicate, Q, max_dims)[0]


def _torsion_pair(
    t_predicate: Callable[[QuiverRep], bool],
    Q: Quiver,
    max_dims: Sequence[int],
) -> tuple:
    """The torsion-pair report, the catalog of the bounded nonzero reps it
    was decided on and the catalog classes in T.

    The predicate is evaluated on every rep.  A class on which it is not
    constant fails iso-closure, with the first rep of T in such a class as
    the witness.  So T is a union of classes, and the decomposition is
    decided on the first member of each class, whose subobjects and
    quotients stand for those of every member up to isomorphism.
    """
    cat = _catalog(Q, max_dims)
    in_t = [bool(t_predicate(E)) for E in cat.reps]
    # axiom i is built into the definition of F = T-perp; the predicate's
    # iso-closure is checked on every class
    mixed = {c for c, members in enumerate(cat.members) if len({in_t[i] for i in members}) > 1}
    witness = next((E for E, t, c in zip(cat.reps, in_t, cat.of) if t and c in mixed), None)
    if witness is not None:
        report = TorsionPairReport(
            False, witness, "iso-closure", "predicate is not isomorphism closed"
        )
        return report, cat, []
    t_classes = [c for c, members in enumerate(cat.members) if in_t[members[0]]]
    t_list = [cat.first[c] for c in t_classes]
    for c, E in enumerate(cat.first):
        lat = cat.lattice(c)
        for k in range(len(lat.entries)):
            sub = lat.sub_rep(k)
            if not (sub.is_zero() or t_predicate(sub)):
                continue
            quo = lat.quotient_rep(k)
            if quo.is_zero() or all(hom_space(T, quo, Q)[0] == 0 for T in t_list):
                break
        else:
            report = TorsionPairReport(
                False, E, "decomposition", f"no T-sub with T-perp quotient for dims {E.dims}"
            )
            return report, cat, t_classes
    return TorsionPairReport(True), cat, t_classes


@record
class TiltReport:
    ok: bool
    degenerate: Optional[str] = None  # 'identity' (F=0) | 'shift' (T=0) | None
    failures: tuple = ()


def tilt_heart_check(
    t_predicate: Callable[[QuiverRep], bool],
    Q: Quiver,
    max_dims: Sequence[int],
) -> TiltReport:
    """Verify that the two-term pairs (F-part in degree -1, T-part in
    degree 0) form the heart of a bounded t-structure.

    In a hereditary category the only nonvacuous Hom-vanishing condition
    between shifts is Hom(T-part, F-part) = 0, which is the torsion-pair
    axiom, so the failures are those of torsion_pair_verify.  The
    degenerate identities (F = 0 gives back the original heart, T = 0 its
    shift) are reported.
    """
    pair, cat, t_classes = _torsion_pair(t_predicate, Q, max_dims)
    if not pair.ok:
        return TiltReport(False, failures=((pair.axiom, pair.witness),))
    degenerate = None
    if not any(all(cat.hom_vanishes(c, d) for c in t_classes) for d in range(len(cat.members))):
        degenerate = "identity"  # F = 0: the tilt is the original heart
    elif not t_classes:
        degenerate = "shift"  # T = 0: the tilt is the shifted heart
    return TiltReport(True, degenerate)


# ---------------------------------------------------------------------------
# slicing metric, norms, masses, deformation


def slicing_distance(
    zc1: HeartCharge,
    zc2: HeartCharge,
    Q: Quiver,
    max_dims: Sequence[int],
) -> PhaseValue:
    """sup over the bounded object set of |phi^+- difference| between the
    two slicings; a lower bound for the distance over all objects.

    Cross-checked against the inf-formula (smallest eps with every
    zc2-semistable object squeezed into a zc2-phase +- eps window of
    zc1-phases) restricted to the same object set; the two must agree.

    Both depend on a rep only through the classes of its extreme HN
    factors under each charge, so they run once per distinct class tuple,
    in first-seen order (which keeps max's choice among equal values).
    """
    extremes = {}  # (top1, bot1, top2, bot2) classes, first-seen order
    for profile in _catalog(Q, max_dims).profiles:
        extremes[_class_verdict(profile, zc1)[2:] + _class_verdict(profile, zc2)[2:]] = None
    phases1 = _phases(zc1, (c for key in extremes for c in key[:2]))
    phases2 = _phases(zc2, (c for key in extremes for c in key[2:]))
    sup: Optional[PhaseValue] = None
    inf_formula: Optional[PhaseValue] = None
    for c_top1, c_bot1, c_top2, c_bot2 in extremes:
        top1, bot1 = phases1[c_top1], phases1[c_bot1]
        top2, bot2 = phases2[c_top2], phases2[c_bot2]
        local = max(abs(top1 - top2), abs(bot1 - bot2))
        sup = local if sup is None else max(sup, local)
        if c_top2 == c_bot2:  # E is zc2-semistable
            eps_e = max(top1 - top2, bot2 - bot1)
            inf_formula = eps_e if inf_formula is None else max(inf_formula, eps_e)
    if sup is None:
        return PhaseValue.rational(0)
    if inf_formula is None or sup != inf_formula:
        raise InvariantError(
            "sup- and inf-descriptions of the slicing distance disagree on the "
            "bounded object set"
        )
    return sup


@record
class NormValue:
    """sup |U(E)| / |Z(E)| over semistable E up to the bound, stored by
    its exact square as a Quad (rational for coefficient perturbations,
    a surd for rotation norms); always a lower bound for the true norm."""

    square: Quad
    truncated: bool = True

    def __float__(self):
        return math.sqrt(float(self.square))

    def less_than_sin_pi(self, eps) -> bool:
        """Exact comparison  norm < sin(pi * eps)."""
        return self.square < sin2_pi(eps)


def stability_norm(
    U: Sequence[RatComplex],
    zc: HeartCharge,
    Q: Quiver,
    max_dims: Sequence[int],
) -> NormValue:
    """Norm of the linear form U relative to the charge: the sup runs over
    representations certified semistable, and only classes matter."""
    if len(U) != zc.n:
        raise InputError("linear form length disagrees with the charge")
    best = Fraction(0)
    cat = _catalog(Q, max_dims)
    for dims in {cat.first[c].dims for c, status, _, _ in cat.judged(zc) if status != "unstable"}:
        u = sum((uv.scale(d) for d, uv in zip(dims, U) if d), RatComplex(0, 0))
        best = max(best, u.abs2() / zc.abs2(dims))
    return NormValue(Quad(best), truncated=True)


def mass(E: QuiverRep, zc: HeartCharge, Q: Quiver) -> SqrtSum:
    """Sum of |Z| over the HN factors, as an exact sum of square roots."""
    if E.is_zero():
        raise InputError("the zero representation has no mass")
    hn = hn_filtration(E, zc, Q)
    total = SqrtSum()
    for cls, _ in hn.factors:
        total = total + SqrtSum.sqrt_of(zc.abs2(cls))
    return total


@record
class DeformationReport:
    applicable: bool
    ok: Optional[bool] = None
    norm: Optional[NormValue] = None
    distance: Optional[PhaseValue] = None
    note: str = ""


def deformation_test(
    zc: HeartCharge,
    wc: HeartCharge,
    eps,
    Q: Quiver,
    max_dims: Sequence[int],
) -> DeformationReport:
    """If ||W - Z||_sigma < sin(pi eps) on the bounded set, the slicings
    must be within eps of each other there (the desk-scale shadow of the
    deformation theorem).  eps must be < 1/2.

    Supported charge pairs: equal rotations (a genuine coefficient
    perturbation, exact rational norm) or equal coefficients (a pure
    rotation, norm 4 sin^2(pi delta / 2) exactly).
    """
    eps = as_fraction(eps)
    if not eps < Fraction(1, 2):
        raise InputError("deformation checks need eps < 1/2")
    if wc.rot == zc.rot:
        diff = tuple(w - z for w, z in zip(wc.z, zc.z))
        norm = stability_norm(diff, zc, Q, max_dims)
    elif wc.z == zc.z:
        delta = wc.rot - zc.rot
        # |e^{i pi d} - 1|^2 = 4 sin^2(pi d / 2), uniform over every class
        norm = NormValue(sin2_pi(delta / 2) * 4, True)
    else:
        raise ExactnessError(
            "deformation_test supports coefficient perturbations at equal "
            "rotation, or pure rotations of one charge"
        )
    if not norm.less_than_sin_pi(eps):
        return DeformationReport(
            False, norm=norm, note="norm >= sin(pi eps): hypothesis not met"
        )
    dist = slicing_distance(zc, wc, Q, max_dims)
    ok = dist < eps
    return DeformationReport(True, ok=ok, norm=norm, distance=dist)


# ---------------------------------------------------------------------------
# exhaustive principle sweeps


def _hom_vanishing(cat: _Catalog, semis: list) -> tuple[int, list]:
    """Hom(E, F) = 0 for every pair of semistables with phi(E) > phi(F).

    semis holds (class, integer charge value) per semistable class under
    one charge.  Their distinct phases, as primitive rays, are ranked once,
    so each class is paired with the semistable classes of lower rank.
    Returns (pairs of reps checked, [(E.dims, F.dims) of each failing pair
    of reps, in enumeration order]).
    """
    rays = [(x // g, y // g) for _, (x, y) in semis for g in (math.gcd(x, y),)]
    ascending = sorted(set(rays), key=cmp_to_key(lambda a, b: _cross(b, a)))
    ranks = [ascending.index(ray) for ray in rays]
    lower = [[d for (d, _), s in zip(semis, ranks) if s < r] for r in range(len(ascending))]
    pairs = [(c, d) for (c, _), r in zip(semis, ranks) for d in lower[r]]
    checked = sum(len(cat.members[c]) * len(cat.members[d]) for c, d in pairs)
    return checked, cat.member_pairs({(c, d) for c, d in pairs if not cat.hom_vanishes(c, d)})


def slicing_hom_vanishing(
    zc: HeartCharge,
    Q: Quiver,
    max_dims: Sequence[int],
) -> tuple[int, tuple]:
    """Hom(P(phi1), P(phi2)) = 0 for phi1 > phi2, exhaustively on the
    bounded set; returns (pairs checked, failures)."""
    cat = _catalog(Q, max_dims)
    semis = [(c, top) for c, status, top, _ in cat.judged(zc) if status != "unstable"]
    checked, failures = _hom_vanishing(cat, semis)
    return checked, tuple(failures)


@record
class PrinciplesReport:
    ok: bool
    checked_pairs: int
    failures: tuple


def hom_principles_check(
    zc: HeartCharge,
    Q: Quiver,
    max_dims: Sequence[int],
) -> PrinciplesReport:
    """Exhaustive verification, on the bounded set, of the standard
    consequences of stability:

    i) no maps from higher to strictly lower phase between semistables;
    ii) maps between stables of the same phase are zero or invertible;
    iii) endomorphisms of a stable object form a division ring;
    iv) every unstable object splits against its maximal destabilizer
        with vanishing Hom.
    """
    cat = _catalog(Q, max_dims)
    semis = []  # (class, integer charge value) of the semistable classes
    stables = []  # (class, integer charge value) of the stable classes
    unsplit = []  # unstable classes that do not split against their maximal destabilizer
    for c, status, top, first in cat.judged(zc):
        if status != "unstable":
            semis.append((c, top))
            if status == "stable":
                stables.append((c, top))
            continue
        # the witness is E's maximal destabilizer, the first step of its
        # HN chain: a proper nonzero subobject
        lat = cat.lattice(c)
        k = _entry_of(lat, first)
        if hom_space(lat.sub_rep(k), lat.quotient_rep(k), Q)[0] != 0:
            unsplit.append(c)
    checked, vanishing = _hom_vanishing(cat, semis)
    not_iso = set()  # pairs of stable classes with a nonzero Hom but no isomorphism
    not_division = []  # stable classes whose endomorphisms are no division ring
    for (c, vc), (d, vd) in itertools.product(stables, stables):
        if _cross(vc, vd) != 0:
            continue  # towards higher phase unconstrained, towards lower by i)
        hdim, basis = hom_space(cat.first[c], cat.first[d], Q)
        if c == d and not _all_nonzero_invertible(basis, Q):
            not_division.append(c)
        if hdim == 0:
            continue
        checked += len(cat.members[c]) * len(cat.members[d])
        if not _span_contains_iso(basis, Q):
            not_iso.add((c, d))
    checked += sum(len(cat.members[c]) for c, _ in stables)  # one endomorphism ring each
    checked += len(cat.reps) - sum(len(cat.members[c]) for c, _ in semis)  # one split each
    failures = [("hom-vanishing", *pair) for pair in vanishing]
    failures.extend(("stable-hom-not-iso", *pair) for pair in cat.member_pairs(not_iso))
    failures.extend(("endo-not-division", dims, None) for dims in cat.member_dims(not_division))
    failures.extend(("unstable-decomposition", dims, None) for dims in cat.member_dims(unsplit))
    return PrinciplesReport(not failures, checked, tuple(failures))


def _is_iso(phis, p: int) -> bool:
    """Whether the map (phi_v) is invertible at every vertex."""
    return all(mat_is_invertible(phi, p) for phi in phis)


def _span_contains_iso(basis, Q: Quiver) -> bool:
    """Whether some F_p-combination of the Hom basis is invertible at every
    vertex (the basis is small: brute force over the span)."""
    return any(_is_iso(phis, Q.p) for phis in _hom_combinations(basis, Q.p))


def _all_nonzero_invertible(basis, Q: Quiver) -> bool:
    return all(_is_iso(phis, Q.p) for phis in _hom_combinations(basis, Q.p))


@record
class LocalFinitenessReport:
    eta: Fraction
    slices: tuple  # ((phase float, object count, largest member total dim), ...)
    chain_bound: int


def local_finiteness_probe(
    zc: HeartCharge,
    Q: Quiver,
    eta,
    max_dims: Sequence[int],
) -> LocalFinitenessReport:
    """Document finiteness of the thickened slices on the bounded set.

    In this category every chain of proper subobjects strictly increases
    the total dimension, so a chain of subobjects of a member has at most
    its total dimension many steps.  The probe reports each slice's object
    count and the largest total dimension among its members, a bound on
    every chain in the slice, not a measured chain length, next to the
    bound of the whole set.
    """
    eta = as_fraction(eta)
    if eta <= 0:
        raise InputError("eta must be positive")
    groups = {}  # (top, bottom) HN factor classes -> [object count, max total dim]
    cat = _catalog(Q, max_dims)
    for c, profile in enumerate(cat.profiles):
        group = groups.setdefault(_class_verdict(profile, zc)[2:], [0, 0])
        group[0] += len(cat.members[c])
        group[1] = max(group[1], sum(profile[-1]))
    phase = _phases(zc, (c for key in groups for c in key))
    phases = []  # the distinct phases of semistable objects, first-seen order
    for top, bot in groups:
        if top == bot and not any(phase[top] == q for q in phases):
            phases.append(phase[top])
    slices = []
    for phi in phases:
        upper, lower = phi + eta, phi - eta
        members = [
            group
            for (top, bot), group in groups.items()
            if phase[top] < upper and phase[bot] > lower
        ]
        max_dim = max((dim for _, dim in members), default=0)
        slices.append((float(phi), sum(count for count, _ in members), max_dim))
    return LocalFinitenessReport(
        eta=eta,
        slices=tuple(slices),
        chain_bound=sum(int(x) for x in max_dims),
    )
