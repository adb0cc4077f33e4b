"""Certified midpoint-radius interval arithmetic on arbitrary-precision floats.

A RealBall is a pair (mid, rad) of raw mpmath floats and represents the set
[mid - rad, mid + rad].  Every operation returns a ball containing the exact
image of its operand sets: midpoints are rounded to the requested working
precision and the rounding error is folded into the radius.  Radii are kept
at a small fixed precision and always rounded upward, so soundness never
depends on the working precision.  ComplexBall is the rectangular pair
(re, im); its "disks" are really boxes, which is all the root isolation
code needs.

Balls carry no precision state.  An expression that produces a ball can be
re-evaluated at a higher precision, which is how the sign-decision helper
interval_sign escalates: it accepts a callable prec -> RealBall and walks the
precisions ladder until the sign is certified or the cap is reached.

Raw mpmath floats (sign, mantissa, exponent, bitcount) have unbounded
exponents, so there is no underflow to absorb rounding errors silently:
a nonzero exact result never rounds to zero, which makes |result|*2^-prec
a valid bound for the half-ulp error of any correctly rounded operation.
Transcendental functions get an extra guard margin because mpmath only
promises faithful rounding for them.  Ball fields are finite: mpmath's inf
and nan carry a zero mantissa, which the integer code below would read as 0.

Midpoints round to nearest, ties to even, at the working precision; radii
round up to _RPREC = 30 bits, after each product and each partial sum.
`mul` and the radii of `add`, `sub` and `_from_endpoints` do this on Python
ints, with the bits mpmath's mpf_mul and mpf_add would give.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Iterator, Union

from . import _libmp as libmp
from ._libmp import (
    fone,
    fzero,
    from_rational,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sub,
    to_float,
)

from .defaults import DEFAULT_PRECISION, MAX_PRECISION, power

# Radii only need a few correct bits; what matters is the upward rounding.
_RPREC = 30
_UP = "c"  # radii are nonnegative, so ceiling == away from zero
_DOWN = "f"

# Cap of the steps that always succeed for valid input and so ignore the user
# cap: root isolation, root matching, root logs and zeta coefficients.
HARD_PRECISION = 1 << 20


def precisions(start: int, cap: int) -> Iterator[int]:
    """The escalation ladder: start, 2*start, 4*start, ... below cap, then cap.

    Every loop that raises precision until a decision is certified walks
    this ladder; it is empty when start > cap.
    """
    if start < 1:
        raise ValueError(f"precision must be at least 1 bit, got {start}")
    prec = start
    while prec < cap:
        yield prec
        prec *= 2
    if start <= cap:
        yield cap


def _up(man: int, exp: int, tman: int = 0, texp: int = 0):
    """The mpf man * 2^exp + tman * 2^texp (man, tman >= 0 and odd or 0)
    rounded up to _RPREC bits: the tuple mpf_add(..., _RPREC, "c") returns."""
    if tman:
        if man:
            if exp < texp:
                man, exp, tman, texp = tman, texp, man, exp
            offset = exp - texp
            # mpmath's shortcut: a term whose last bit lies over 100 bits and
            # whose top lies over _RPREC + 4 bits below the other's only sets
            # a sticky bit
            if offset > 100 and man.bit_length() + offset - tman.bit_length() > _RPREC + 4:
                man = (man << (_RPREC + 4)) + 1
                exp -= _RPREC + 4
            else:
                man = (man << offset) + tman
                exp = texp
        else:
            man, exp = tman, texp
    elif not man:
        return fzero
    n = man.bit_length() - _RPREC
    if n > 0:
        man = -(-man >> n)
        exp += n
    if not man & 1:
        tz = (man & -man).bit_length() - 1
        man >>= tz
        exp += tz
    return 0, man, exp, man.bit_length()


def _sum_rad(a, b, mid, prec: int):
    """a + b + |mid| 2^-prec, each partial sum rounded up; the last term
    bounds the rounding error of a nearest-rounded `mid` (zero when exact)."""
    if a[3] > _RPREC:
        a = _up(a[1], a[2])
    _, man, exp, _ = _up(a[1], a[2], b[1], b[2])
    return _up(man, exp, mid[1], mid[2] - prec)


class RealBall:
    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=fzero):
        self.mid = mid
        self.rad = rad

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "RealBall":
        return RealBall(fzero)

    @staticmethod
    def one() -> "RealBall":
        return RealBall(fone)

    @staticmethod
    def from_int(n: int) -> "RealBall":
        """Exact at any size: mpmath's from_int tuple, with the trailing
        zeros stripped in one step rather than 8 bits per loop pass."""
        if not n:
            return RealBall(fzero)
        man = -n if n < 0 else n
        tz = (man & -man).bit_length() - 1
        man >>= tz
        return RealBall((int(n < 0), man, tz, man.bit_length()))

    @staticmethod
    def from_fraction(x: Union[Fraction, int], prec: int) -> "RealBall":
        if isinstance(x, int):
            return RealBall.from_int(x)
        p, q = x.numerator, x.denominator
        if q == 1:
            return RealBall.from_int(p)
        lo = from_rational(p, q, prec, "f")
        hi = from_rational(p, q, prec, "c")
        if lo == hi:
            return RealBall(lo)
        return RealBall._from_endpoints(lo, hi, prec)

    @staticmethod
    def from_float(x: float) -> "RealBall":
        if not math.isfinite(x):
            raise ValueError(f"ball of a non-finite float: {x!r}")
        return RealBall(libmp.from_float(x))  # doubles embed exactly

    @staticmethod
    def _from_endpoints(lo, hi, prec: int) -> "RealBall":
        mid = mpf_shift(mpf_add(lo, hi, prec, "n"), -1)
        _, half, exp, _ = mpf_sub(hi, lo, _RPREC, _UP)
        return RealBall(mid, _up(half, exp - 1, mid[1], mid[2] - prec))

    # --- arithmetic ---------------------------------------------------

    def add(self, other: "RealBall", prec: int) -> "RealBall":
        mid = mpf_add(self.mid, other.mid, prec, "n")
        return RealBall(mid, _sum_rad(self.rad, other.rad, mid, prec))

    def sub(self, other: "RealBall", prec: int) -> "RealBall":
        mid = mpf_sub(self.mid, other.mid, prec, "n")
        return RealBall(mid, _sum_rad(self.rad, other.rad, mid, prec))

    def neg(self) -> "RealBall":
        return RealBall(mpf_neg(self.mid), self.rad)

    def mul(self, other: "RealBall", prec: int) -> "RealBall":
        sign, man, exp, _ = self.mid
        _, rman, rexp, _ = self.rad
        osign, oman, oexp, _ = other.mid
        _, orman, orexp, _ = other.rad
        # the midpoint: the product of the odd mantissas, to nearest, ties to even
        m = man * oman
        e = exp + oexp
        n = m.bit_length() - prec
        if n > 0:
            t = m >> (n - 1)
            if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
                m = (t >> 1) + 1
            else:
                m = t >> 1
            tz = (m & -m).bit_length() - 1
            m >>= tz
            e += n + tz
        mid = (sign ^ osign, m, e, m.bit_length()) if m else fzero
        # |mid| orad + |omid| rad + rad orad + |m| 2^-prec, each product and
        # sum rounded up; adding a zero term would leave the sum as it is
        _, s, se, _ = _up(man * orman, exp + orexp)
        if rman:
            _, p, pe, _ = _up(oman * rman, oexp + rexp)
            _, s, se, _ = _up(s, se, p, pe)
            _, p, pe, _ = _up(rman * orman, rexp + orexp)
            _, s, se, _ = _up(s, se, p, pe)
        return RealBall(mid, _up(s, se, m, e - prec))

    def square(self, prec: int) -> "RealBall":
        """Enclosure of {x^2}; never dips below zero, unlike self.mul(self)."""
        lo, hi = self._bounds()
        if mpf_cmp(lo, fzero) >= 0:
            new_lo = mpf_mul(lo, lo, prec, _DOWN)
            new_hi = mpf_mul(hi, hi, prec, _UP)
        elif mpf_cmp(hi, fzero) <= 0:
            new_lo = mpf_mul(hi, hi, prec, _DOWN)
            new_hi = mpf_mul(lo, lo, prec, _UP)
        else:
            new_lo = fzero
            a = mpf_mul(lo, lo, prec, _UP)
            b = mpf_mul(hi, hi, prec, _UP)
            new_hi = a if mpf_cmp(a, b) >= 0 else b
        return RealBall._from_endpoints(new_lo, new_hi, prec)

    def recip(self, prec: int) -> "RealBall":
        """1/self; requires a ball that excludes zero."""
        if self.contains_zero():
            raise ZeroDivisionError("interval contains zero")
        lo, hi = self._bounds()
        # 1/x is monotone decreasing on an interval of constant sign
        new_lo = mpf_div(fone, hi, prec, "f")
        new_hi = mpf_div(fone, lo, prec, "c")
        return RealBall._from_endpoints(new_lo, new_hi, prec)

    def div(self, other: "RealBall", prec: int) -> "RealBall":
        return self.mul(other.recip(prec + 8), prec)

    def pow_int(self, n: int, prec: int) -> "RealBall":
        return power(self, n, lambda a, b: a.mul(b, prec))

    # --- transcendental -----------------------------------------------

    def _bounds(self):
        # exact endpoints: mpf add/sub at prec=0 do not round
        lo = mpf_sub(self.mid, self.rad, 0, _DOWN)
        hi = mpf_add(self.mid, self.rad, 0, _UP)
        return lo, hi

    def _monotone(self, fn, prec: int) -> "RealBall":
        """Enclosure of the image under an increasing function fn."""
        lo, hi = self._bounds()
        wprec = prec + 16
        new_lo = fn(lo, wprec, _DOWN)
        new_hi = fn(hi, wprec, _UP)
        # margin for faithful (not correct) rounding of transcendentals
        scale = mpf_abs(new_hi) if mpf_cmp(mpf_abs(new_hi), mpf_abs(new_lo)) >= 0 else mpf_abs(new_lo)
        margin = mpf_shift(scale, -(prec + 8))
        new_lo = mpf_sub(new_lo, margin, wprec, _DOWN)
        new_hi = mpf_add(new_hi, margin, wprec, _UP)
        return RealBall._from_endpoints(new_lo, new_hi, prec)

    def exp(self, prec: int) -> "RealBall":
        return self._monotone(mpf_exp, prec)

    def log(self, prec: int) -> "RealBall":
        lo, _ = self._bounds()
        if mpf_cmp(lo, fzero) <= 0:
            raise ValueError("log of an interval touching (-inf, 0]")
        return self._monotone(mpf_log, prec)

    # --- predicates and export -----------------------------------------

    def contains_zero(self) -> bool:
        return mpf_cmp(mpf_abs(self.mid), self.rad) <= 0

    def is_positive(self) -> bool:
        lo, _ = self._bounds()
        return mpf_cmp(lo, fzero) > 0

    def is_negative(self) -> bool:
        _, hi = self._bounds()
        return mpf_cmp(hi, fzero) < 0

    def overlaps(self, other: "RealBall") -> bool:
        lo_a, hi_a = self._bounds()
        lo_b, hi_b = other._bounds()
        return not (mpf_cmp(hi_a, lo_b) < 0 or mpf_cmp(hi_b, lo_a) < 0)

    def hull(self, other: "RealBall", prec: int) -> "RealBall":
        lo_a, hi_a = self._bounds()
        lo_b, hi_b = other._bounds()
        lo = lo_a if mpf_cmp(lo_a, lo_b) <= 0 else lo_b
        hi = hi_a if mpf_cmp(hi_a, hi_b) >= 0 else hi_b
        return RealBall._from_endpoints(lo, hi, prec)

    def max_with(self, other: "RealBall", prec: int) -> "RealBall":
        lo_a, hi_a = self._bounds()
        lo_b, hi_b = other._bounds()
        if mpf_cmp(lo_a, hi_b) > 0:
            return self
        if mpf_cmp(lo_b, hi_a) > 0:
            return other
        lo = lo_a if mpf_cmp(lo_a, lo_b) >= 0 else lo_b
        hi = hi_a if mpf_cmp(hi_a, hi_b) >= 0 else hi_b
        return RealBall._from_endpoints(lo, hi, prec)

    def mid_float(self) -> float:
        return to_float(self.mid)

    def rad_float(self) -> float:
        return to_float(self.rad)

    def float_bounds(self) -> tuple[float, float]:
        """The largest double <= the lower end, the smallest >= the upper end."""
        sign, man, exp, _ = self.mid
        _, rman, rexp, _ = self.rad
        if sign:
            man = -man
        # both ends exactly, as integers times 2^exp; fzero carries exponent 0
        if not rman:
            lo = hi = man
        elif not man:
            lo, hi, exp = -rman, rman, rexp
        else:
            if rexp < exp:
                man <<= exp - rexp
                exp = rexp
            else:
                rman <<= rexp - exp
            lo, hi = man - rman, man + rman
        # the ceiling is minus the floor of the negation; 0.0 - x keeps +0.0
        return _floor_double(lo, exp), 0.0 - _floor_double(-hi, exp)

    def __repr__(self) -> str:
        return f"RealBall({self.mid_float()!r} +/- {self.rad_float():.3e})"


def _floor_double(n: int, exp: int) -> float:
    """The largest double <= n * 2^exp: floored to 53 bits, or to a multiple
    of 2^-1074 below the normal range; past the range the largest double
    for a positive n and -inf for a negative one.  Never -0.0."""
    if not n:
        return 0.0
    # the quantum: 2^-53 of the power of two above |n| * 2^exp, at least 2^-1074
    quantum = max(n.bit_length() + exp - 53, -1074)
    if quantum > exp:
        n >>= quantum - exp  # >> floors, for either sign
        exp = quantum
    if n.bit_length() + exp > 1024:
        return sys.float_info.max if n > 0 else -math.inf
    return math.ldexp(n, exp)


def _to_fraction(x) -> Fraction:
    sign, man, exp, _ = x
    if man == 0 and exp == 0:
        return Fraction(0)
    m = int(man)
    if sign:
        m = -m
    if exp >= 0:
        return Fraction(m << exp)
    return Fraction(m, 1 << (-exp))


def ball_to_fraction_bounds(ball: RealBall) -> tuple[Fraction, Fraction]:
    lo, hi = ball._bounds()
    return _to_fraction(lo), _to_fraction(hi)


class ComplexBall:
    __slots__ = ("re", "im")

    def __init__(self, re: RealBall, im: RealBall):
        self.re = re
        self.im = im

    @staticmethod
    def from_fractions(re, im, prec: int) -> "ComplexBall":
        return ComplexBall(RealBall.from_fraction(re, prec), RealBall.from_fraction(im, prec))

    def add(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        return ComplexBall(self.re.add(other.re, prec), self.im.add(other.im, prec))

    def sub(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        return ComplexBall(self.re.sub(other.re, prec), self.im.sub(other.im, prec))

    def neg(self) -> "ComplexBall":
        return ComplexBall(self.re.neg(), self.im.neg())

    def conj(self) -> "ComplexBall":
        return ComplexBall(self.re, self.im.neg())

    def mul(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        a, b, c, d = self.re, self.im, other.re, other.im
        re = a.mul(c, prec).sub(b.mul(d, prec), prec)
        im = a.mul(d, prec).add(b.mul(c, prec), prec)
        return ComplexBall(re, im)

    def abs2(self, prec: int) -> RealBall:
        return self.re.square(prec).add(self.im.square(prec), prec)

    def recip(self, prec: int) -> "ComplexBall":
        d = self.abs2(prec + 8)
        inv = d.recip(prec + 8)
        return ComplexBall(self.re.mul(inv, prec), self.im.neg().mul(inv, prec))

    def pow_int(self, n: int, prec: int) -> "ComplexBall":
        return power(self, n, lambda a, b: a.mul(b, prec))

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def box_disjoint(self, other: "ComplexBall") -> bool:
        return (not self.re.overlaps(other.re)) or (not self.im.overlaps(other.im))

    def mid_complex(self) -> complex:
        return complex(self.re.mid_float(), self.im.mid_float())

    def __repr__(self) -> str:
        return f"ComplexBall({self.re!r}, {self.im!r})"


SignResult = str  # 'negative' | 'zero-undecided' | 'positive'

NEGATIVE = "negative"
POSITIVE = "positive"
ZERO_UNDECIDED = "zero-undecided"


def interval_sign(expr: Callable[[int], RealBall], max_prec: int = MAX_PRECISION) -> SignResult:
    """Certified sign of a recomputable real expression.

    `expr` is a callable prec -> RealBall that re-evaluates the underlying
    expression from scratch.  It is tried at each of
    precisions(min(DEFAULT_PRECISION, max_prec), max_prec) until the ball
    excludes zero; an interval still straddling zero at the cap yields
    'zero-undecided', never a guess.
    """
    for prec in precisions(min(DEFAULT_PRECISION, max_prec), max_prec):
        ball = expr(prec)
        if ball.is_positive():
            return POSITIVE
        if ball.is_negative():
            return NEGATIVE
    return ZERO_UNDECIDED
