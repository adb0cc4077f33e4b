"""Number field arithmetic with certified complex embeddings.

A field is presented as Q[x]/(f) for a monic squarefree integer polynomial f
(ascending coefficients, constant first, leading 1 last).  Elements are
coordinate tuples of Fractions in the power basis 1, a, ..., a^(m-1).  The
power basis is only a coordinate system: elements may have non-integral
coordinates, and integrality is decided by the integrality of the element's
characteristic polynomial, not of its coordinates.

Embeddings are certified boxes around the roots of f.  Root isolation runs
Durand-Kerner sweeps on Gaussian integers for the approximations and then
certifies a posteriori: around each approximation z the disk of radius
deg(f) * |f(z)/f'(z)| is known to contain at least one root, so once the
boxes are pairwise disjoint each contains exactly one.  A box centred on
the real axis is its own conjugate, so its one root is real; a box that
misses the axis holds a non-real root; a box that meets it off-centre
leaves the rung undecided.  Conjugate boxes are paired by certified
overlap.  Everything re-runs at doubled precision until it resolves, so
results are reproducible and independent of floating-point luck.

Irreducibility over Q is decided with integers alone.  Factor degrees
modulo a few primes usually settle it; the degrees those leave open go to a
Hensel lift of the factors modulo one prime, whose products are tried as
divisors over Z by exact division (Zassenhaus).

Element products and norms run on integers: int_coords writes an element
as an integer vector over one denominator, mul_coords multiplies such
vectors modulo min_poly, and norm takes the determinant of the
multiplication matrix, whose denominators linalg.det clears row by row, so
one norm serves elements and integer vectors alike.  A count keeps h as
the pair (v, den) from start to finish, so it forms no Fraction at any
lattice point.  An element's characteristic polynomial is interpolated
from m + 1 norms, and an inverse is a polynomial in the element, read off
that characteristic polynomial by Cayley-Hamilton.

Only the isolation and embedding functions import balls and mpmath's raw
floats (_libmp), at their entry, so element arithmetic, norms and the
irreducibility test load neither.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from .defaults import DEFAULT_PRECISION, power
from .errors import UndecidedError
from .linalg import det as mat_det

if TYPE_CHECKING:
    from .balls import ComplexBall, RealBall

IntPoly = Tuple[int, ...]  # ascending, monic


# --------------------------------------------------------------------------
# rational polynomial helpers (ascending Fraction lists)


def poly_trim(f: List[Fraction]) -> List[Fraction]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_degree(f: Sequence[Fraction]) -> int:
    return len(f) - 1


def poly_derivative(f: Sequence[Fraction]) -> List[Fraction]:
    return poly_trim([i * c for i, c in enumerate(f)][1:])


def poly_mul(f: Sequence[Fraction], g: Sequence[Fraction]) -> List[Fraction]:
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(f: Sequence[Fraction], g: Sequence[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = poly_trim(list(f))
    dg = len(g) - 1
    lead = g[-1]
    q = [Fraction(0)] * max(0, len(rem) - dg)
    while rem and len(rem) - 1 >= dg:
        shift = len(rem) - 1 - dg
        c = rem[-1] / lead
        q[shift] = c
        for i in range(len(g)):
            rem[shift + i] -= c * g[i]
        poly_trim(rem)
    return poly_trim(q), rem


def poly_gcd(f: Sequence[Fraction], g: Sequence[Fraction]) -> List[Fraction]:
    a, b = poly_trim(list(f)), poly_trim(list(g))
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_eval_ball(f: Sequence, z: ComplexBall, prec: int) -> ComplexBall:
    """f(z) by Horner's rule, for int or Fraction coefficients f."""
    from .balls import ComplexBall, RealBall

    acc = ComplexBall(RealBall.zero(), RealBall.zero())
    for c in reversed(f):
        acc = acc.mul(z, prec)
        acc = ComplexBall(acc.re.add(RealBall.from_fraction(Fraction(c), prec), prec), acc.im)
    return acc


def poly_is_squarefree(f: Sequence[int]) -> bool:
    fr = [Fraction(c) for c in f]
    return poly_degree(poly_gcd(fr, poly_derivative(fr))) <= 0


def squarefree_part_int(f: Sequence[int]) -> IntPoly:
    """Monic integer f -> the monic integer product of its distinct irreducible factors."""
    fr = [Fraction(c) for c in f]
    g = poly_gcd(fr, poly_derivative(fr))
    sf, rem = poly_divmod(fr, g)
    if rem:
        raise ArithmeticError("squarefree part does not divide the polynomial")
    # monic divisors of a monic integer polynomial are integral
    if any(c.denominator != 1 for c in sf):
        raise ArithmeticError("monic squarefree part must have integer coefficients")
    return tuple(int(c) for c in sf)


# --------------------------------------------------------------------------
# field spec and element arithmetic


class NumberFieldSpec:
    """Q[x]/(min_poly) with min_poly monic, squarefree, integer, degree >= 1."""

    __slots__ = ("min_poly",)

    def __init__(self, min_poly: Sequence[int]):
        mp_ = tuple(int(c) for c in min_poly)
        if len(mp_) < 2:
            raise ValueError("min_poly must have degree at least 1")
        if mp_[-1] != 1:
            raise ValueError("min_poly must be monic, ascending, with the leading 1 last")
        if not poly_is_squarefree(mp_):
            raise ValueError("min_poly must be squarefree")
        self.min_poly = mp_

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def __repr__(self):
        return f"NumberFieldSpec({list(self.min_poly)})"


Element = Tuple[Fraction, ...]


def el_from_coeffs(spec: NumberFieldSpec, coeffs: Sequence) -> Element:
    vals = [Fraction(c) for c in coeffs]
    if len(vals) > spec.degree:
        raise ValueError("coefficient vector longer than the field degree")
    vals += [Fraction(0)] * (spec.degree - len(vals))
    return tuple(vals)


def el_one(spec: NumberFieldSpec) -> Element:
    return el_from_coeffs(spec, [1])


def _reduce_in_place(f: IntPoly, coeffs: list) -> None:
    """Reduce coeffs modulo the monic f, top degree first; the low deg(f)
    entries then hold the remainder.  Integer input stays integer."""
    m = len(f) - 1
    for k in range(len(coeffs) - 1, m - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(m):
                coeffs[k - m + i] -= c * f[i]


def int_coords(x: Element) -> Tuple[List[int], int]:
    """(v, d) with x = v / d, v an integer vector and d the lcm of x's denominators."""
    den = math.lcm(*(c.denominator for c in x))
    return [c.numerator * (den // c.denominator) for c in x], den


def mul_coords(f: IntPoly, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
    """Integer coordinates of xs * ys in Z[x]/(f), for integer coordinate
    vectors xs and ys: the integer product polynomial reduced modulo the
    monic f, which needs no division."""
    m = len(f) - 1
    out = [0] * (2 * m - 1)
    for i, a in enumerate(xs):
        if a:
            for j, b in enumerate(ys):
                if b:
                    out[i + j] += a * b
    _reduce_in_place(f, out)
    del out[m:]
    return out


def el_mul(spec: NumberFieldSpec, x: Element, y: Element) -> Element:
    """x * y in Q[x]/(min_poly), computed on integers.

    Each factor is written as an integer coordinate vector over its common
    denominator, the vectors are multiplied by mul_coords, and the result
    is divided by the product of the two denominators once at the end.  It
    is the same canonical tuple of Fractions that Fraction arithmetic would
    give.
    """
    xs, dx = int_coords(x)
    ys, dy = int_coords(y)
    out = mul_coords(spec.min_poly, xs, ys)
    den = dx * dy
    if den == 1:
        return tuple(Fraction(c) for c in out)
    return tuple(Fraction(c, den) for c in out)


def el_inv(spec: NumberFieldSpec, x: Element, cp: Sequence) -> Element:
    """x^-1 by Cayley-Hamilton, from cp, x's monic characteristic polynomial
    (ascending).  cp(x) = 0 gives x (cp_1 + cp_2 x + ... + x^(m-1)) = -cp_0,
    and cp_0 = +-Norm(x) is nonzero unless x is a zero divisor, so the
    bracket, formed by Horner's rule over el_mul, divided by -cp_0 is x^-1.
    """
    if not any(x):
        raise ZeroDivisionError("inverse of zero")
    if cp[0] == 0:
        raise ZeroDivisionError("element is a zero divisor; min_poly is reducible along it")
    acc = el_one(spec)
    for c in reversed(cp[1:-1]):
        acc = el_mul(spec, acc, x)
        acc = (acc[0] + c,) + acc[1:]
    return tuple(v / -cp[0] for v in acc)


def el_pow(spec: NumberFieldSpec, x: Element, n: int) -> Element:
    if n < 0:
        return el_pow(spec, el_inv(spec, x, element_charpoly(spec, x)), -n)
    if n == 0:
        return el_one(spec)
    # el_mul is looked up at each product, so a rebinding of it is seen
    return power(x, n, lambda a, b: el_mul(spec, a, b))


def _columns(f: IntPoly, col: list) -> List[list]:
    """Column j of the matrix of y -> x*y for x with coordinates col; integer
    coordinates give integer columns.

    Each column is the previous one times the defining root a: the
    coordinates shift up by one, and the top one, times
    a^m = -(f_0 + ... + f_(m-1) a^(m-1)), is folded back in by one
    reduction step.
    """
    cols = [col]
    for _ in range(len(f) - 2):
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [c - top * fi for c, fi in zip(col, f)]
        cols.append(col)
    return cols


def norm(spec: NumberFieldSpec, x: Sequence, c: int = 0):
    """Norm(x - c) for an integer c: det of the multiplication matrix of
    x - c, taken on columns (the transpose, with the same determinant).
    Subtracting c moves only the diagonal, so x - c is never formed.

    x is any coordinate vector: an element's Fractions give a Fraction, and
    an integer vector an int found on ints alone.  A count takes h = v / den
    as the vector v with c = den: Norm(v - den) = den^m Norm(h - 1).
    """
    cols = _columns(spec.min_poly, list(x))
    if c:
        for j, col in enumerate(cols):
            col[j] -= c
    return mat_det(cols)


def element_charpoly(spec: NumberFieldSpec, x: Element) -> List[Fraction]:
    """x's characteristic polynomial det(yI - M_x), ascending and monic:
    Newton interpolation of its values (-1)^m Norm(x - c) at c = 0..m."""
    m = spec.degree
    dd = [(-1) ** m * norm(spec, x, c) for c in range(m + 1)]
    for k in range(1, m + 1):  # divided differences over the nodes 0..m
        for i in range(m, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / k
    out = [dd[m]]
    for c in range(m - 1, -1, -1):  # Horner's rule: out * (y - c) + dd[c]
        out = [dd[c] - c * out[0]] + [a - c * b for a, b in zip(out, out[1:])] + [out[-1]]
    return out


def unit_charpoly(spec: NumberFieldSpec, x: Element) -> Optional[List[int]]:
    """x's integer characteristic polynomial when x is an algebraic integer
    of norm +-1, else None.

    Decided through the characteristic polynomial of the multiplication
    matrix: integrality of the element does not require integral power-basis
    coordinates, so the test accepts any coordinate vector.
    """
    cp = element_charpoly(spec, x)
    if any(c.denominator != 1 for c in cp) or abs(cp[0]) != 1:  # constant term is the norm up to sign
        return None
    return [int(c) for c in cp]


# --------------------------------------------------------------------------
# certified root isolation


class Embedding:
    """One certified root of a monic squarefree integer polynomial.

    The box contains exactly one root.  Real embeddings carry an imaginary
    part that is exactly zero.  conj_index names the embedding holding the
    complex conjugate root (itself for real embeddings).  Instances are
    ordered by real part, then imaginary part; the order is stable under
    refinement because disjoint boxes separate in one of the coordinates.
    """

    __slots__ = ("poly", "index", "box", "is_real", "conj_index")

    def __init__(self, poly: IntPoly, index: int, box: ComplexBall, is_real: bool, conj_index: int):
        self.poly = poly
        self.index = index
        self.box = box
        self.is_real = is_real
        self.conj_index = conj_index

    def __repr__(self):
        kind = "real" if self.is_real else "complex"
        return f"Embedding({kind} #{self.index} of {list(self.poly)} ~ {self.box.mid_complex():.6g})"


def isolate_roots(poly: Sequence[int], prec: int = DEFAULT_PRECISION) -> Tuple[Embedding, ...]:
    """Certified, deterministically ordered embeddings of a squarefree polynomial.

    The working precision escalates internally until every box is certified
    (pairwise disjoint, each either centred on the real axis, so real, or
    missing it, conjugates paired) and has radius below 2^(1-prec) relative
    to its magnitude.
    """
    return _isolate_cached(tuple(int(c) for c in poly), int(prec))


@functools.lru_cache(maxsize=256)
def _isolate_cached(poly: IntPoly, prec: int) -> Tuple[Embedding, ...]:
    from . import balls

    if len(poly) < 2:
        raise ValueError("cannot isolate roots of a constant")
    if poly[-1] != 1:
        raise ValueError("root isolation expects a monic polynomial")
    if not poly_is_squarefree(poly):
        raise ValueError("root isolation expects a squarefree polynomial")
    # at work == prec the rounding error of f(z) alone is about the 2^(1-prec)
    # radius that _try_isolate asks for, and that rung does not certify; from
    # the default precision on, the ladder starts one rung above it
    start = 2 * prec if prec >= DEFAULT_PRECISION else DEFAULT_PRECISION
    for work in balls.precisions(start, balls.HARD_PRECISION):
        result = _try_isolate(poly, prec, work)
        if result is not None:
            return result
    raise UndecidedError(f"root isolation did not converge below {balls.HARD_PRECISION} bits")


def _approx_roots(poly: IntPoly, work: int) -> Optional[List[ComplexBall]]:
    """Durand-Kerner roots at work + 20 bits, on Gaussian integers at scale 2^P
    from (0.4 + 0.9i)^k: P = work + L + 64 while every nonzero |z| >= 2^-L
    (Cauchy), then 2(work + 20) + L + 32.  None when 500 sweeps do not converge."""
    from ._libmp import from_man_exp
    from .balls import ComplexBall, RealBall

    low = next(abs(c) for c in poly if c)
    L = (low + max(abs(c) for c in poly[1:])).bit_length() - low.bit_length() + 1
    P = work + L + 64
    start = ((0.4 + 0.9j) ** k for k in range(len(poly) - 1))
    zs = [[(n << P) // d for n, d in (t.as_integer_ratio() for t in (z.real, z.imag))] for z in start]

    def sweep() -> int:
        """One pass z_i -= f(z_i) / prod (z_i - z_j), in place; the largest correction."""
        worst = 0
        cs = [c << P for c in reversed(poly[:-1])]
        for i, (x, y) in enumerate(zs):
            fr, fi = 1 << P, 0
            for c in cs:
                fr, fi = ((fr * x - fi * y) >> P) + c, (fr * y + fi * x) >> P
            # the product is (dr + i di) 2^e, kept to P + 32 bits
            dr, di, e = 1, 0, 0
            for u, v in zs:
                ur, ui = x - u, y - v
                if ur or ui:  # skips z_i itself, and any z_j equal to it
                    dr, di = dr * ur - di * ui, dr * ui + di * ur
                    n = max(dr.bit_length() - P - 32, di.bit_length() - P - 32, 0)
                    dr, di, e = dr >> n, di >> n, e + n - P
            den = (dr * dr + di * di) << max(e, 0)
            cr = ((fr * dr + fi * di) << max(-e, 0)) // den
            ci = ((fi * dr - fr * di) << max(-e, 0)) // den
            zs[i] = [x - cr, y - ci]
            worst = max(worst, abs(cr), abs(ci))
        return worst

    # sweep to 2^-40 of the smallest root, then at the final P to work + 20 + L + 16
    # bits; near a close pair the rounding error of f(z) over |f'(z)| can exceed
    # 2^-(L + 40) at any fixed P, so the first P grows with work
    final, goal = 2 * (work + 20) + L + 32, L + 40
    for _ in range(500):
        if sweep() >> max(P - goal, 0) == 0:
            if P == final:
                break
            zs = [[x << (final - P), y << (final - P)] for x, y in zs]
            P, goal = final, work + 20 + L + 16
    else:
        return None
    sweep()
    # below 2^-(work + 19) the root is zero, else its imaginary, else its real part
    tol = 1 << (P - work - 19)
    for i, (x, y) in enumerate(zs):
        small = x * x + y * y < tol * tol
        zs[i] = [0 if small or abs(x) < tol <= abs(y) else x, 0 if abs(y) < tol else y]
    return [ComplexBall(*(RealBall(from_man_exp(v, -P, work + 20, "n")) for v in z)) for z in zs]


def _try_isolate(poly: IntPoly, prec: int, work: int) -> Optional[Tuple[Embedding, ...]]:
    from . import _libmp as libmp
    from .balls import ComplexBall, RealBall, ball_to_fraction_bounds

    m = len(poly) - 1
    dpoly = poly_derivative(poly)
    centers = _approx_roots(poly, work)
    if centers is None:
        return None
    boxes = []
    for z in centers:
        val = poly_eval_ball(poly, z, work)
        dval2 = poly_eval_ball(dpoly, z, work).abs2(work)
        if dval2.contains_zero():
            return None
        ratio2 = val.abs2(work).div(dval2, work)
        _, hi2 = ball_to_fraction_bounds(ratio2)
        # radius m * |f(z)/f'(z)|, rounded outward through exact rationals
        rad_frac = Fraction(m) * _fraction_sqrt_upper(hi2)
        rad_raw = libmp.from_rational(rad_frac.numerator, rad_frac.denominator, 30, "c")
        boxes.append(ComplexBall(RealBall(z.re.mid, rad_raw), RealBall(z.im.mid, rad_raw)))
    for i in range(m):
        for j in range(i + 1, m):
            if not boxes[i].box_disjoint(boxes[j]):
                return None
    # a box centred on the axis is its own conjugate and holds one root, so
    # that root is real; a box meeting the axis off-centre decides nothing
    real_flags = [b.im.mid == libmp.fzero for b in boxes]
    if any(b.im.contains_zero() and not real for b, real in zip(boxes, real_flags)):
        return None
    for b in boxes:
        # radius over 2^(1-prec) max(1, |re|, |im|), compared exactly
        rad = libmp.mpf_shift(b.re.rad, prec - 1)
        if all(libmp.mpf_cmp(rad, libmp.mpf_abs(v)) > 0 for v in (libmp.fone, b.re.mid, b.im.mid)):
            return None
    conj_of = [-1] * m
    for i, b in enumerate(boxes):
        if real_flags[i]:
            conj_of[i] = i
            continue
        cb = b.conj()
        overlaps = [j for j in range(m) if not cb.box_disjoint(boxes[j])]
        if len(overlaps) != 1:
            return None
        conj_of[i] = overlaps[0]
    if any(conj_of[conj_of[i]] != i for i in range(m)):
        return None
    order = sorted(range(m), key=_box_sort_key(boxes))
    rank_of = {old: new for new, old in enumerate(order)}
    out = []
    for new_idx, old in enumerate(order):
        b = boxes[old]
        if real_flags[old]:
            b = ComplexBall(b.re, RealBall.zero())
        out.append(Embedding(poly, new_idx, b, real_flags[old], rank_of[conj_of[old]]))
    return tuple(out)


def _fraction_sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), x >= 0, tight to ~1 part in 2^50."""
    if x < 0:
        raise ValueError("negative operand")
    if x == 0:
        return Fraction(0)
    # scale so the integer square root sees at least ~100 significant bits
    bits = x.numerator.bit_length() - x.denominator.bit_length()
    k = max(0, (100 - bits + 1) // 2)
    scaled = (x.numerator << (2 * k)) // x.denominator + 1
    root = math.isqrt(scaled) + 1  # root / 2^k > sqrt(x)
    return Fraction(root, 1 << k)


def _box_sort_key(boxes: List[ComplexBall]):
    from . import _libmp as libmp

    def cmp(i: int, j: int) -> int:
        a, b = boxes[i], boxes[j]
        if not a.re.overlaps(b.re):
            return libmp.mpf_cmp(a.re.mid, b.re.mid)
        if not a.im.overlaps(b.im):
            return libmp.mpf_cmp(a.im.mid, b.im.mid)
        return 0

    return functools.cmp_to_key(cmp)


def embed(x: Element, e: Embedding, prec: int) -> ComplexBall:
    """Evaluate the coordinate vector x at the embedding e as a certified box.

    The box of e is used as given, so pass an embedding isolated at prec.
    """
    return poly_eval_ball(x, e.box, prec)


def match_roots(
    poly: Sequence[int], targets: Callable[[int], Sequence[ComplexBall]], what: str
) -> List[int]:
    """For each box targets(prec) gives, the index of the one root of poly it meets.

    Walks the precision ladder up to balls.HARD_PRECISION, isolating poly at
    each rung.  A rung is passed over when targets raises ZeroDivisionError
    or some box meets no root or several; past the last rung the match is
    UndecidedError(what).  The cap is the hard one, not a user cap, so the
    match never depends on user flags.
    """
    from . import balls

    for prec in balls.precisions(DEFAULT_PRECISION, balls.HARD_PRECISION):
        roots = isolate_roots(poly, prec)
        try:
            boxes = targets(prec)
        except ZeroDivisionError:
            continue
        out = []
        for box in boxes:
            hits = [e.index for e in roots if not box.box_disjoint(e.box)]
            if len(hits) != 1:
                break
            out.append(hits[0])
        else:
            return out
    raise UndecidedError(what)


# --------------------------------------------------------------------------
# irreducibility of monic integer polynomials


# primes at which to read factor degrees; a degree that survives all of them
# goes to a Hensel lift (x^4 - 10x^2 + 1 splits modulo every prime)
_DEGREE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@functools.lru_cache(maxsize=256)
def is_irreducible(poly: IntPoly) -> bool:
    """Whether a monic integer polynomial is irreducible over Q.

    A factor over Z of degree k reduces to a product of irreducible factors
    modulo every prime p, so k is a sum of some of the factor degrees mod p
    wherever f stays squarefree.  Intersecting those subset sums over a few
    primes usually leaves only 0 and deg f, which proves irreducibility.
    Degrees still possible go to Zassenhaus's search: the factors modulo the
    prime with the fewest of them are lifted to p^k, and their products of a
    possible degree are tried as divisors over Z.
    """
    from .fppoly import FpPoly, _distinct_degree
    from .rationals import is_prime

    if not poly or poly[-1] != 1:
        raise ValueError("is_irreducible expects a monic polynomial")
    n = len(poly) - 1
    if n <= 1 or not poly_is_squarefree(poly):
        return n == 1
    # a divisor of degree k has a cofactor of degree n - k
    possible = set(range(1, n // 2 + 1))
    best = None  # (factor count, prime) of the squarefree reduction with fewest factors
    # f is squarefree modulo every prime not dividing its discriminant
    beyond = filter(is_prime, itertools.count(_DEGREE_PRIMES[-1] + 1))
    for p in itertools.chain(_DEGREE_PRIMES, beyond):
        if best is not None and p > _DEGREE_PRIMES[-1]:
            break
        f = FpPoly(p, poly)
        if f.gcd(f.derivative()).degree > 0:
            continue
        sums = {0}
        count = 0
        for d, group in _distinct_degree(f):
            for _ in range(group.degree // d):
                sums |= {s + d for s in sums}
                count += 1
        possible &= sums
        if not possible:
            return True
        if best is None or count < best[0]:
            best = (count, p)
    return not _lifted_factor_divides(poly, best[1], possible)


def _lifted_factor_divides(poly: IntPoly, p: int, degrees) -> bool:
    """Whether the monic poly, squarefree modulo p, has a monic integer
    divisor whose degree is in degrees.

    Each factor g mod p is lifted on its own, one power of p per step, until
    p^k exceeds twice Mignotte's bound 2^n |f|_2 on the coefficients of any
    divisor; a divisor over Z is then the symmetric residue of a product of
    lifted factors, confirmed by exact division.
    """
    from .fppoly import FpPoly

    n = len(poly) - 1
    pk = p
    while pk * pk <= 4 ** (n + 1) * sum(c * c for c in poly):
        pk *= p
    f = FpPoly(p, poly)
    lifted = []
    for g in f.factor():
        m = g.degree
        # (f/g)^(-1) mod g, in the field F_p[x]/(g) of p^m elements
        t = f.divexact(g).powmod(p ** m - 2, g)
        lift = list(g.coeffs)
        pj = p
        while pj < pk:
            # lift divides f modulo pj, so f mod lift is divisible by pj
            rem = list(poly)
            _reduce_in_place(lift, rem)
            delta = t.mul(FpPoly(p, [c // pj for c in rem[:m]])).mod(g).coeffs
            for i, c in enumerate(delta):
                lift[i] += pj * c
            pj *= p
        lifted.append(lift)
    for r in range(1, max(degrees) + 1):
        for combo in itertools.combinations(lifted, r):
            if sum(len(g) - 1 for g in combo) not in degrees:
                continue
            h = [1]
            for g in combo:
                prod = [0] * (len(h) + len(g) - 1)
                for i, a in enumerate(h):
                    for j, b in enumerate(g):
                        prod[i + j] += a * b
                h = [c % pk for c in prod]
            h = [c - pk if 2 * c > pk else c for c in h]
            rem = list(poly)
            _reduce_in_place(h, rem)
            if not any(rem[: len(h) - 1]):
                return True
    return False


# --------------------------------------------------------------------------
# reciprocal symmetry


def is_palindromic_or_anti(poly: IntPoly) -> bool:
    rev = tuple(reversed(poly))
    return poly == rev or poly == tuple(-c for c in rev)
