"""Exact number types used everywhere else in the package.

All predicates in this package are decided by sign tests on exact
quantities, never by floating point.  Four kinds of values are needed:

* ``RatComplex`` -- a complex number with rational real/imaginary parts
  (values of central charges on integral classes).
* ``PhaseValue`` -- an exact phase, i.e. a real number of the form
  ``offset + arg(x + iy)/pi`` with a rational offset and a rational
  nonzero direction.  Phases of this shape are closed under addition,
  subtraction and rational shifts, and their order is always decidable:
  cross-product sign tests and a small table of exact tangent values
  cover the common cases, and certified arctan enclosures settle the
  rest (ties are impossible there, since a rational direction only has
  angle a rational multiple of pi when its tangent is 0 or +-1).
* ``Quad`` -- an element ``a + b*sqrt(d)`` of a real quadratic field,
  for wall parameters and for sin^2/cot of rational multiples of pi.
* ``SqrtSum`` -- a finite nonnegative combination ``sum c_i sqrt(d_i)``
  with d_i squarefree, used for masses.  Distinct squarefree radicals
  are linearly independent over Q, so equality is syntactic and strict
  comparison terminates by interval refinement.

The last three share one order protocol, ``_ExactOrder``: each type
gives ``_cmp(other)``, the exact sign of self - other, and ``==``,
``<``, ``<=``, ``>`` and ``>=`` each make one ``_cmp`` call.  Equality
accepts only int, Fraction and the same type.  When two values cannot be
compared by exact arithmetic (Quads of different fields, SqrtSums, a
phase at an angle outside the cotangent table), one loop, ``_separate``,
refines their rational enclosures until they part.

Floats appear only as display values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt
from typing import Union

from ._record import record

Rational = Union[int, Fraction]

_HALF = Fraction(1, 2)


class InvariantError(RuntimeError):
    """An internal invariant failed: a defect of the program, not a verdict
    about the input.  Raised instead of ``assert``, which ``python -O``
    strips."""


class ExactnessError(ArithmeticError):
    """Raised when a comparison would require leaving the supported
    exact number system (for example cot(pi*q) at an unsupported
    denominator)."""


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def frac_str(x) -> str:
    """Serialize a rational as 'p/q' in lowest terms ('p' if integral)."""
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n > 0 as s^2 * d with d squarefree; returns (s, d).

    Trial division; radicands in this package come from small lattice
    data so this is never a bottleneck.
    """
    if n <= 0:
        raise ValueError("need a positive integer")
    s, d = 1, 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= m
    return s, d


def _sqrt_enclosure(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of sqrt(q), q >= 0, of width about 2^-bits."""
    q = as_fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0), Fraction(0)
    scale = 1 << bits
    n = q.numerator * q.denominator  # sqrt(q) = sqrt(n)/q.denominator
    lo = isqrt(n * scale * scale)
    hi = lo if lo * lo == n * scale * scale else lo + 1
    den = q.denominator * scale
    return Fraction(lo, den), Fraction(hi, den)


# ---------------------------------------------------------------------------
# exact complex rationals


@record
class RatComplex:
    """Complex number with exact rational parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __add__(self, other) -> "RatComplex":
        other = _coerce_complex(other)
        return RatComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "RatComplex":
        other = _coerce_complex(other)
        return RatComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "RatComplex":
        return RatComplex(-self.re, -self.im)

    def __mul__(self, other) -> "RatComplex":
        other = _coerce_complex(other)
        return RatComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def scale(self, c) -> "RatComplex":
        c = as_fraction(c)
        return RatComplex(self.re * c, self.im * c)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def in_upper_closure(self) -> bool:
        """Membership in H-bar = {Im > 0} union R_{<0}."""
        return self.im > 0 or (self.im == 0 and self.re < 0)

    def __str__(self) -> str:
        return f"({frac_str(self.re)})+({frac_str(self.im)})i"


def _coerce_complex(x) -> RatComplex:
    if isinstance(x, RatComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return RatComplex(x, 0)
    raise TypeError(f"cannot coerce {x!r} to RatComplex")


# ---------------------------------------------------------------------------
# the order of exact values


class _ExactOrder:
    """Comparison operators from ``_cmp(other)``, the sign of self - other."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, (type(self), int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0


def _separate(x, y) -> int:
    """Sign of x - y for values known to differ, by refining their
    ``enclosure(bits)`` until the intervals are disjoint."""
    for bits in (32, 64, 128, 256, 512, 1024):
        xlo, xhi = x.enclosure(bits)
        ylo, yhi = y.enclosure(bits)
        if xlo > yhi:
            return 1
        if xhi < ylo:
            return -1
    raise ExactnessError(f"could not separate {x!r} and {y!r}")


# ---------------------------------------------------------------------------
# exact quadratic surds a + b*sqrt(d)


class Quad(_ExactOrder):
    """Element a + b*sqrt(d) of Q(sqrt(d)), d > 0 squarefree.

    Arithmetic within one field is exact; comparisons across different
    fields fall back to interval refinement (values from distinct
    squarefree radicands can only be equal if both are rational).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        a, b = as_fraction(a), as_fraction(b)
        d = int(d)
        if d <= 0:
            raise ValueError("radicand must be positive")
        s, d0 = squarefree_split(d)
        b, d = b * s, d0
        if d == 1 or b == 0:
            a, b, d = a + (b if d == 1 else 0), Fraction(0), 1
        self.a, self.b, self.d = a, b, d

    @staticmethod
    def sqrt_of(q) -> "Quad":
        """Exact sqrt of a nonnegative rational as a Quad."""
        q = as_fraction(q)
        if q < 0:
            raise ValueError("negative radicand")
        if q == 0:
            return Quad(0)
        # sqrt(n/m) = sqrt(n*m)/m
        s, d = squarefree_split(q.numerator * q.denominator)
        return Quad(0, Fraction(s, q.denominator), d)

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ExactnessError(f"{self!r} is irrational")
        return self.a

    def _field(self, other: "Quad") -> int:
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise ExactnessError(
                f"mixed radicands sqrt({self.d}) and sqrt({other.d})"
            )
        return self.d if self.b != 0 else other.d

    def __add__(self, other):
        other = _coerce_quad(other)
        d = self._field(other)
        return Quad(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce_quad(other))

    def __rsub__(self, other):
        return _coerce_quad(other) + (-self)

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __mul__(self, other):
        other = _coerce_quad(other)
        d = self._field(other)
        return Quad(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_quad(other)
        d = self._field(other)
        nrm = other.a * other.a - other.b * other.b * d
        if nrm == 0:
            raise ZeroDivisionError
        return self * Quad(other.a / nrm, -other.b / nrm, d)

    def __rtruediv__(self, other):
        return _coerce_quad(other) / self

    def sign(self) -> int:
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d; equality would force
        # sqrt(d) rational, impossible for squarefree d > 1
        lhs, rhs = self.a * self.a, self.b * self.b * self.d
        if lhs == rhs:
            raise InvariantError("squarefree radicand collapsed")
        rational_wins = lhs > rhs
        if rational_wins:
            return 1 if self.a > 0 else -1
        return 1 if self.b > 0 else -1

    def _cmp(self, other) -> int:
        other = _coerce_quad(other)
        if self.b != 0 and other.b != 0 and self.d != other.d:
            # sqrt(d1) is not in Q(sqrt(d2)), so the values differ
            return _separate(self, other)
        return (self - other).sign()

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        if self.b == 0:
            return self.a, self.a
        lo, hi = _sqrt_enclosure(Fraction(self.d), bits)
        if self.b > 0:
            return self.a + self.b * lo, self.a + self.b * hi
        return self.a + self.b * hi, self.a + self.b * lo

    def __repr__(self):
        if self.b == 0:
            return frac_str(self.a)
        return f"({frac_str(self.a)}+{frac_str(self.b)}*sqrt({self.d}))"

    def to_json(self):
        if self.b == 0:
            return frac_str(self.a)
        return {"a": frac_str(self.a), "b": frac_str(self.b), "d": self.d}


def _coerce_quad(x) -> Quad:
    if isinstance(x, Quad):
        return x
    if isinstance(x, (int, Fraction)):
        return Quad(x)
    raise TypeError(f"cannot coerce {x!r} to Quad")


# ---------------------------------------------------------------------------
# exact trigonometry at rational multiples of pi (small denominators)

_COT_TABLE = {
    Fraction(1, 12): Quad(2, 1, 3),
    Fraction(1, 8): Quad(1, 1, 2),
    Fraction(1, 6): Quad(0, 1, 3),
    Fraction(1, 4): Quad(1),
    Fraction(1, 3): Quad(0, Fraction(1, 3), 3),
    Fraction(5, 12): Quad(2, -1, 3),
    Fraction(3, 8): Quad(-1, 1, 2),
    Fraction(1, 2): Quad(0),
}


def cot_pi(q) -> Quad:
    """Exact cot(pi*q) for rational q in (0,1) with denominator dividing 12 or 8."""
    q = as_fraction(q) % 1
    if q == 0:
        raise ZeroDivisionError("cot(k*pi)")
    if q in _COT_TABLE:
        return _COT_TABLE[q]
    if (1 - q) in _COT_TABLE:
        return -_COT_TABLE[1 - q]
    raise ExactnessError(
        f"cot(pi*{q}) unsupported exactly; denominators must divide 12 or 8"
    )


def tan_pi(q) -> Quad:
    """Exact tan(pi*q) for rational q with |q| < 1/2, same denominators."""
    q = as_fraction(q)
    if q == 0:
        return Quad(0)
    if not -_HALF < q < _HALF:
        raise ValueError("tan_pi expects |q| < 1/2")
    s = 1 if q > 0 else -1
    return cot_pi(_HALF - abs(q)) * s  # tan(x) = cot(pi/2 - x)


def sin2_pi(q) -> Quad:
    """Exact sin^2(pi*q) for rational q with denominator dividing 12 or 8:
    sin^2 = 1/(1 + cot^2), and 0 at integers."""
    q = as_fraction(q)
    if q.denominator == 1:
        return Quad(0)
    c = cot_pi(q)
    return Quad(1) / (c * c + 1)


# ---------------------------------------------------------------------------
# certified rational enclosures of arctan and pi
#
# Phase comparisons against rational thresholds outside the quadratic
# table fall back to interval refinement.  This terminates: a rational
# direction has angle a rational multiple of pi only when its tangent is
# 0 or +-1 (Niven), and those cases are decided exactly beforehand, so
# the compared values are never equal.


def _atan_bounds_small(t: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Bracket atan(t) for 0 <= t <= 1/2 by alternating partial sums."""
    if not 0 <= t <= _HALF:
        raise InvariantError(f"atan series argument {t} outside [0, 1/2]")
    s = Fraction(0)
    power = t
    t2 = t * t
    lo = hi = s
    for k in range(n):
        term = power / (2 * k + 1)
        s = s + term if k % 2 == 0 else s - term
        power *= t2
        if k % 2 == 0:
            hi = s
        else:
            lo = s
    if n % 2 == 1:  # last partial sum was an upper bound
        lo = s - power / (2 * n + 1)
    return lo, hi


_PI_CACHE: dict = {}


def _pi_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Machin: pi = 16 atan(1/5) - 4 atan(1/239), bracketed rationally."""
    if n not in _PI_CACHE:
        a5 = _atan_bounds_small(Fraction(1, 5), n)
        a239 = _atan_bounds_small(Fraction(1, 239), n)
        _PI_CACHE[n] = (16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0])
    return _PI_CACHE[n]


def _atan_bounds(t: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Bracket atan(t) for 0 < t <= 1."""
    if t <= _HALF:
        return _atan_bounds_small(t, n)
    # atan(t) = pi/4 + atan((t-1)/(t+1)), second argument in (-1/3, 0]
    u = (1 - t) / (1 + t)
    ub = _atan_bounds_small(u, n)
    pi_lo, pi_hi = _pi_bounds(n)
    return pi_lo / 4 - ub[1], pi_hi / 4 - ub[0]


def arg_over_pi_bounds(x: int, y: int, n: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of atan(y/x)/pi for x > 0, y != 0."""
    t = Fraction(abs(y), x)
    pi_lo, pi_hi = _pi_bounds(n)
    if t > 1:
        inner = _atan_bounds(1 / t, n)  # atan(t) = pi/2 - atan(1/t)
        lo, hi = pi_lo / 2 - inner[1], pi_hi / 2 - inner[0]
    else:
        lo, hi = _atan_bounds(t, n)
    rlo, rhi = lo / pi_hi, hi / pi_lo
    return (-rhi, -rlo) if y < 0 else (rlo, rhi)


# ---------------------------------------------------------------------------
# exact phases


class PhaseValue(_ExactOrder):
    """Exact real number  offset + arg(x + i y)/pi.

    Canonical form: the direction (x, y) is a primitive integer vector
    with x > 0 (so arg/pi lies in the open interval (-1/2, 1/2), and is
    zero exactly when y = 0); purely rational angle contributions are
    folded into the rational offset.  The representation of a value is
    then unique, differences of two PhaseValues are again PhaseValues,
    and ordering is decided by exact sign tests.

    Instances are deliberately unhashable: two different canonical forms
    can never denote the same number, except through arctangent addition
    identities that relate *distinct* directions across different
    offsets, and a hash consistent with equality across those identities
    is not worth the machinery.  Use sorting and ``==`` instead.
    """

    __slots__ = ("offset", "x", "y")

    def __init__(self, direction=(1, 0), offset=0):
        x, y = direction
        if not isinstance(x, int):
            x = as_fraction(x)
        if not isinstance(y, int):
            y = as_fraction(y)
        # a positive scale moves no phase: clear denominators, then work
        # on integers (ints have denominator 1)
        den = math.lcm(x.denominator, y.denominator)
        x = x.numerator * (den // x.denominator)
        y = y.numerator * (den // y.denominator)
        if x == 0 and y == 0:
            raise ValueError("zero direction has no phase")
        offset = as_fraction(offset)
        # principal argument case split; arg(x,y) in (-pi, pi]
        if x < 0 or (x == 0 and y != 0):
            if x == 0:
                offset += _HALF if y > 0 else -_HALF
                x, y = 1, 0
            elif y > 0:  # second quadrant: arg = arg(-x,-y) + pi
                offset += 1
                x, y = -x, -y
            elif y < 0:  # third quadrant: arg = arg(-x,-y) - pi
                offset -= 1
                x, y = -x, -y
            else:  # negative real axis: arg = +pi
                offset += 1
                x, y = -x, -y
        g = math.gcd(x, y)
        self.offset, self.x, self.y = offset, x // g, y // g

    # -- constructors --------------------------------------------------

    @staticmethod
    def of_upper(z: RatComplex) -> "PhaseValue":
        """Phase in (0, 1] of z in H-bar = H u R_{<0}."""
        if z.is_zero():
            raise ValueError("zero has no phase")
        if not z.in_upper_closure():
            raise ValueError(f"{z} lies outside the closed upper half plane H-bar")
        return PhaseValue((z.re, z.im))

    @staticmethod
    def rational(q) -> "PhaseValue":
        return PhaseValue((1, 0), q)

    # -- structure -----------------------------------------------------

    def is_rational(self) -> bool:
        return self.y == 0

    def as_fraction(self) -> Fraction:
        if self.y != 0:
            raise ExactnessError(f"{self!r} is not rational")
        return self.offset

    # -- arithmetic ----------------------------------------------------

    def shift(self, q) -> "PhaseValue":
        return PhaseValue((self.x, self.y), self.offset + as_fraction(q))

    def __add__(self, q):
        if isinstance(q, (int, Fraction)):
            return self.shift(q)
        if isinstance(q, PhaseValue):
            # arg(z1) + arg(z2) = arg(z1 * z2): both canonical args lie in
            # (-pi/2, pi/2), so the sum stays in the principal branch.
            x = self.x * q.x - self.y * q.y
            y = self.x * q.y + self.y * q.x
            return PhaseValue((x, y), self.offset + q.offset)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.shift(-other)
        if not isinstance(other, PhaseValue):
            return NotImplemented
        # arg(z1) - arg(z2) = arg(z1 * conj(z2)) exactly: both canonical
        # args lie in (-pi/2, pi/2), so the difference is in (-pi, pi),
        # inside the principal branch.
        x = self.x * other.x + self.y * other.y
        y = self.y * other.x - self.x * other.y
        return PhaseValue((x, y), self.offset - other.offset)

    def __neg__(self) -> "PhaseValue":
        return PhaseValue((self.x, -self.y), -self.offset)

    def __abs__(self) -> "PhaseValue":
        return self if self.sign() >= 0 else -self

    # -- order ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real number offset + arg/pi."""
        q = self.offset
        if q >= _HALF:  # value in (q - 1/2, q + 1/2), q >= 1/2
            return 1
        if q <= -_HALF:
            return -1
        if q == 0:
            return (self.y > 0) - (self.y < 0)
        if self.y == 0:
            return (q > 0) - (q < 0)
        if self.x == self.y:  # arg/pi = 1/4 exactly
            return (q > -Fraction(1, 4)) - (q < -Fraction(1, 4))
        if self.x == -self.y:  # arg/pi = -1/4
            return (q > Fraction(1, 4)) - (q < Fraction(1, 4))
        # compare arg vs -q*pi with both in (-pi/2, pi/2): tan is
        # strictly increasing there, tan(arg) = y/x exactly
        try:
            return (Quad(Fraction(self.y, self.x)) - tan_pi(-q)).sign()
        except ExactnessError:
            pass
        # the angle is an irrational multiple of pi (its tangent is
        # rational but not 0 or +-1), so the value is nonzero and
        # certified enclosures separate it from zero
        return _separate(self, Quad(0))

    def _cmp(self, other) -> int:
        if not isinstance(other, (int, Fraction, PhaseValue)):
            raise TypeError(f"cannot compare PhaseValue with {other!r}")
        return (self - other).sign()

    __hash__ = None  # type: ignore[assignment]

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational enclosure from 3/4 as many arctan series terms as bits."""
        lo, hi = arg_over_pi_bounds(self.x, self.y, bits * 3 // 4)
        return self.offset + lo, self.offset + hi

    # -- misc ----------------------------------------------------------

    def floor(self) -> int:
        """Largest integer <= value."""
        n = math.floor(self.offset)  # value in (offset - 1/2, offset + 1/2)
        for cand in (n - 1, n, n + 1):
            if cand <= self < cand + 1:
                return cand
        raise InvariantError("floor bracket failed")

    def mod2_split(self) -> tuple["PhaseValue", int]:
        """Write value = phi0 + 2k with phi0 in [0, 2); returns (phi0, k)."""
        f = self.floor()
        k = f // 2  # floor division keeps phi0 = value - 2k in [0, 2)
        return self.shift(Fraction(-2 * k)), k

    def __float__(self):
        return float(self.offset) + math.atan2(self.y, self.x) / math.pi

    def __repr__(self):
        if self.is_rational():
            return f"phase({frac_str(self.offset)})"
        return (
            f"phase({frac_str(self.offset)}+arg({self.x},{self.y})/pi"
            f"~{float(self):.6f})"
        )

    def to_json(self):
        if self.is_rational():
            return frac_str(self.offset)
        return {"offset": frac_str(self.offset), "dir": [self.x, self.y]}

    @staticmethod
    def from_json(data) -> "PhaseValue":
        if isinstance(data, (str, int)):
            return PhaseValue.rational(Fraction(str(data)))
        return PhaseValue(
            tuple(Fraction(str(c)) for c in data["dir"]),
            Fraction(str(data["offset"])),
        )


# ---------------------------------------------------------------------------
# sums of square roots (masses)


class SqrtSum(_ExactOrder):
    """Nonnegative value sum_i c_i sqrt(d_i), c_i >= 0 rational, d_i
    squarefree positive integers.

    The canonical form combines equal radicands; distinct squarefree
    radicals are Q-linearly independent, so equality is syntactic and a
    strict inequality is always certified by finite interval refinement.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict[int, Fraction] = {}
        for c, d in terms:
            c = as_fraction(c)
            if c < 0:
                raise ValueError("SqrtSum coefficients must be nonnegative")
            if c == 0:
                continue
            s, d0 = squarefree_split(int(d))
            acc[d0] = acc.get(d0, Fraction(0)) + c * s
        self.terms = tuple(sorted((d, c) for d, c in acc.items() if c != 0))

    @staticmethod
    def sqrt_of(q) -> "SqrtSum":
        """sqrt of a nonnegative rational as a SqrtSum."""
        q = as_fraction(q)
        if q < 0:
            raise ValueError("negative radicand")
        if q == 0:
            return SqrtSum()
        return SqrtSum([(Fraction(1, q.denominator), q.numerator * q.denominator)])

    def __add__(self, other: "SqrtSum") -> "SqrtSum":
        if not isinstance(other, SqrtSum):
            return NotImplemented
        return SqrtSum(
            [(c, d) for d, c in self.terms] + [(c, d) for d, c in other.terms]
        )

    def is_zero(self) -> bool:
        return not self.terms

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        lo = hi = Fraction(0)
        for d, c in self.terms:
            slo, shi = _sqrt_enclosure(Fraction(d), bits)
            lo += c * slo
            hi += c * shi
        return lo, hi

    def _cmp(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            if other < 0:
                return 1
            other = SqrtSum([(as_fraction(other), 1)])
        if not isinstance(other, SqrtSum):
            raise TypeError("cannot compare SqrtSum with that")
        if self.terms == other.terms:
            return 0
        return _separate(self, other)

    def __hash__(self):
        return hash(self.terms)

    def __float__(self):
        return sum(float(c) * math.sqrt(d) for d, c in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return "+".join(
            (frac_str(c) if d == 1 else f"{frac_str(c)}*sqrt({d})")
            for d, c in self.terms
        )
