"""Number field arithmetic, root isolation, irreducibility of integer polynomials."""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from rankone import numberfield as nf
from rankone.exactlog import ExactLog

from propsuites import contains


GOLDEN = nf.NumberFieldSpec((-1, -1, 1))      # x^2 - x - 1
GAUSS = nf.NumberFieldSpec((1, 0, 1))         # x^2 + 1
QUARTIC = nf.NumberFieldSpec((1, 0, -10, 0, 1))  # x^4 - 10 x^2 + 1


def test_spec_rejects_non_squarefree():
    with pytest.raises(ValueError):
        nf.NumberFieldSpec((1, 2, 1))  # (x + 1)^2


def test_spec_rejects_non_monic():
    with pytest.raises(ValueError):
        nf.NumberFieldSpec((1, 0, 2))


def test_element_arithmetic_in_gaussian_field():
    # (3 + 4i)(3 - 4i) = 25
    a = nf.el_from_coeffs(GAUSS, [3, 4])
    b = nf.el_from_coeffs(GAUSS, [3, -4])
    assert nf.el_mul(GAUSS, a, b) == nf.el_from_coeffs(GAUSS, [25])
    assert nf.norm(GAUSS, a) == 25
    # i^2 = -1
    i = nf.el_from_coeffs(GAUSS, [0, 1])
    assert nf.el_mul(GAUSS, i, i) == nf.el_from_coeffs(GAUSS, [-1])


def test_element_inverse_roundtrip():
    a = nf.el_from_coeffs(GOLDEN, [2, 5])
    inv = nf.el_inv(GOLDEN, a, nf.element_charpoly(GOLDEN, a))
    assert nf.el_mul(GOLDEN, a, inv) == nf.el_one(GOLDEN)


def test_el_inv_by_cayley_hamilton_on_fixture_fields():
    # the characteristic polynomial gives the inverse, whether it comes from
    # element_charpoly or from the one each generator kept at validation
    from rankone.system import load_fixture, parse_descriptor

    golden = parse_descriptor({"d": 1, "components": [
        {"class": "number_field_units", "min_poly": [-1, -1, 1], "generators": [["0", "1"]]}]})
    rng = random.Random(34)
    for sys_ in (golden, load_fixture("sqrt2sqrt3"), load_fixture("dk-sextic")):
        comp = sys_.components[0][0]
        spec = comp.field
        one = nf.el_one(spec)
        for g, cp in zip(comp.generators, comp._charpolys):
            inverse = nf.el_inv(spec, g, cp)
            assert nf.el_mul(spec, g, inverse) == one
            assert nf.el_inv(spec, g, nf.element_charpoly(spec, g)) == inverse
        for _ in range(30):
            x = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) for _ in range(spec.degree))
            if any(x):
                assert nf.el_mul(spec, x, nf.el_inv(spec, x, nf.element_charpoly(spec, x))) == one


def test_el_inv_rejects_zero_and_zero_divisors():
    # in Q[a]/(a^2 - 1), a - 1 has norm 0: (a - 1)(a + 1) = 0
    split = nf.NumberFieldSpec((-1, 0, 1))
    x = nf.el_from_coeffs(split, [-1, 1])
    with pytest.raises(ZeroDivisionError, match="element is a zero divisor"):
        nf.el_inv(split, x, nf.element_charpoly(split, x))
    zero = nf.el_from_coeffs(GOLDEN, [0])
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        nf.el_inv(GOLDEN, zero, nf.element_charpoly(GOLDEN, zero))


def test_el_pow_negative_exponent():
    phi = nf.el_from_coeffs(GOLDEN, [0, 1])
    assert nf.el_mul(GOLDEN, nf.el_pow(GOLDEN, phi, 5), nf.el_pow(GOLDEN, phi, -5)) == nf.el_one(GOLDEN)


def test_charpoly_of_generator_is_min_poly():
    phi = nf.el_from_coeffs(GOLDEN, [0, 1])
    assert nf.element_charpoly(GOLDEN, phi) == [Fraction(-1), Fraction(-1), Fraction(1)]


def test_unit_and_integrality_tests():
    phi = nf.el_from_coeffs(GOLDEN, [0, 1])
    assert nf.unit_charpoly(GOLDEN, phi) == [-1, -1, 1]
    assert nf.unit_charpoly(GOLDEN, nf.el_pow(GOLDEN, phi, -3)) is not None
    assert nf.unit_charpoly(GOLDEN, nf.el_from_coeffs(GOLDEN, [2])) is None
    # (-21 - 4 sqrt5)/19 has norm 1 but is not an algebraic integer
    not_integral = nf.el_from_coeffs(GOLDEN, [Fraction(-17, 19), Fraction(-8, 19)])
    assert abs(nf.norm(GOLDEN, not_integral)) == 1
    assert nf.unit_charpoly(GOLDEN, not_integral) is None


def test_norm_matches_product_of_embedding_magnitudes():
    # sqrt(2) + sqrt(3) in the quartic field: norm must be +-1... it is a unit
    g = nf.el_from_coeffs(QUARTIC, [0, 1])
    assert abs(nf.norm(QUARTIC, g)) == 1
    h = nf.el_from_coeffs(QUARTIC, [1, 1])
    prec = 64
    ball = None
    for emb in nf.isolate_roots(QUARTIC.min_poly, prec):
        v = nf.embed(h, emb, prec).abs2(prec)
        ball = v if ball is None else ball.mul(v, prec)
    assert contains(ball, nf.norm(QUARTIC, h) ** 2)


def test_isolate_roots_real_quadratic():
    roots = nf.isolate_roots((-2, 0, 1), 64)
    assert len(roots) == 2
    for r in roots:
        # each box contains a point whose square is 2
        sq = r.box.mul(r.box, 64)
        assert contains(sq.re, 2)
        assert contains(sq.im, 0)
    # boxes are certifiably disjoint and ordered
    assert roots[0].box.re.float_bounds()[1] < roots[1].box.re.float_bounds()[0]


def test_isolate_roots_conjugate_pair():
    roots = nf.isolate_roots((1, 0, 1), 64)
    ims = sorted(r.box.im.mid_float() for r in roots)
    assert ims[0] < 0 < ims[1]
    assert abs(ims[0] + ims[1]) < 1e-15


def test_isolate_roots_rejects_what_it_cannot_isolate():
    with pytest.raises(ValueError, match="constant"):
        nf.isolate_roots((5,))
    with pytest.raises(ValueError, match="monic"):
        nf.isolate_roots((1, 2))
    with pytest.raises(ValueError, match="squarefree"):
        nf.isolate_roots((1, 2, 1))  # (x + 1)^2


@pytest.mark.parametrize("poly, n_real", [
    ((1, 0, 1), 0), ((-2, 0, 0, 1), 1), ((1, -3, 0, 1), 3),
    ((-1, 0, -1, 0, 1), 2),  # the other two roots lie on the imaginary axis
])
def test_real_roots_are_the_boxes_centred_on_the_axis(poly, n_real):
    from mpmath.libmp import fzero

    embs = nf.isolate_roots(poly, 64)
    assert sum(e.is_real for e in embs) == n_real
    for e in embs:
        assert e.is_real == (e.box.im.mid == fzero) == (e.conj_index == e.index)


def test_a_box_meeting_the_axis_off_centre_does_not_certify(monkeypatch):
    # a center moved 2^-(work + 10) off the axis leaves its box on the axis,
    # where it might hold a real root or one of a conjugate pair
    from mpmath.libmp import from_man_exp

    from rankone.balls import ComplexBall, RealBall

    poly = (1, 0, -10, 0, 1)
    assert nf._try_isolate(poly, 64, 128) is not None
    approx = nf._approx_roots

    def moved(p, work):
        zs = approx(p, work)
        zs[0] = ComplexBall(zs[0].re, RealBall(from_man_exp(1, -(work + 10))))
        return zs

    monkeypatch.setattr(nf, "_approx_roots", moved)
    assert nf._try_isolate(poly, 64, 128) is None


# fixture fields, their generators' minimal polynomials, and test polynomials
ISOLATED = [
    (1, 0, -10, 0, 1), (-1, -2, 1), (1, -4, 1),
    (1, -2, -5, -3, -5, -2, 1), (1, 23, 16, -60, 16, 23, 1),
    (-2, 0, 1), (1, 0, 1), (-1, -1, 1), (-3, 0, 1), (1, -10, 1), (3, 0, 0, 0, 0, 1),
]


def test_isolation_at_the_requested_precision_never_certifies():
    # so _isolate_cached starts its ladder at 2 * prec from the default
    # precision on, and results stay those of the longer ladder
    for poly in ISOLATED:
        for prec in (64, 128, 256):
            assert nf._try_isolate(poly, prec, prec) is None, (poly, prec)
            assert nf._try_isolate(poly, prec, 2 * prec) is not None, (poly, prec)


def _wilkinson(n):
    poly = [1]
    for r in range(1, n + 1):  # times (x - r)
        poly = [a - r * b for a, b in zip([0] + poly, poly + [0])]
    return tuple(poly)


# a root near 10^400; the close pairs of x^n - 2(ax - 1)^2 near 1/a (n, a = 8, 50;
# 12, 100; 8, 1000) and of x^10 (x - 1024)^2 - 2 near 1024; Wilkinson's; high degrees
EXTREME = [
    (1, -10**400, 1), (-2, 200, -5000, 0, 0, 0, 0, 0, 1), (-2, 400, -20000) + (0,) * 9 + (1,),
    (-2, 4000, -2000000, 0, 0, 0, 0, 0, 1), (-2,) + (0,) * 9 + (2**20, -2048, 1), _wilkinson(10),
    (-1,) + (0,) * 19 + (1,), (1,) + (0,) * 10 + (-1, 1), (1,) + (0,) * 28 + (-1, 1),
]


def _polyroots(poly, work):
    """The roots mpmath.polyroots finds at work + 20 bits, as sorted mpf pairs."""
    import mpmath

    with mpmath.workprec(work + 20):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(poly)], maxsteps=500, extraprec=work)
        return sorted((mpmath.mpc(z).real._mpf_, mpmath.mpc(z).imag._mpf_) for z in roots)


@pytest.mark.parametrize("work", [128, 144, 468])
def test_approx_roots_equal_polyroots(work):
    # the integer iteration returns polyroots' centers bit for bit, cleanup
    # included; degrees past 10 at work 128 only, where the reference is cheapest
    for poly in ISOLATED + EXTREME:
        if work == 128 or len(poly) <= 11:
            ours = sorted((z.re.mid, z.im.mid) for z in nf._approx_roots(poly, work))
            assert ours == _polyroots(poly, work), (poly, work)


def test_isolation_of_a_close_pair_far_from_zero():
    # x^10 (x - 1024)^2 - 2 has two roots 2^-48.5 apart near 1024; at a first
    # stage P = L + 64 for every work, the rounding of f(z) holds the corrections
    # near 2^(27 - P), above the goal 2^-(L + 40) = 2^(24 - P), on every rung
    poly = (-2,) + (0,) * 9 + (2**20, -2048, 1)
    assert nf.is_irreducible(poly)
    embs = nf.isolate_roots(poly, 64)
    assert sum(e.is_real for e in embs) == 4 and len(embs) == 12


def test_radius_check_is_exact_past_the_double_range(monkeypatch):
    # centers 2^-1100 off give radii near 2^-1098, which read 0.0 as doubles,
    # as does the bound 2^-1999 promised at precision 2000
    from mpmath.libmp import from_man_exp, mpf_add

    from rankone.balls import ComplexBall, RealBall

    poly = (1, 0, -10, 0, 1)
    assert nf._try_isolate(poly, 2000, 4000) is not None
    approx = nf._approx_roots

    def moved(p, work):
        return [ComplexBall(RealBall(mpf_add(z.re.mid, from_man_exp(1, -1100))), z.im) for z in approx(p, work)]

    monkeypatch.setattr(nf, "_approx_roots", moved)
    assert nf._try_isolate(poly, 2000, 4000) is None


def test_factor_monic_int_splits_known_products():
    assert not nf.is_irreducible((4, 0, -5, 0, 1))  # (x^2-1)(x^2-4)
    assert not nf.is_irreducible((-1, 0, 0, 0, 1))  # x^4 - 1
    # min polys of sqrt2 + sqrt3 and sqrt2 + sqrt3 + sqrt5 split modulo every
    # prime, yet are irreducible
    assert nf.is_irreducible((1, 0, -10, 0, 1))
    assert nf.is_irreducible((576, 0, -960, 0, 352, 0, -40, 0, 1))
    # x^2 - P and x^2 - Px are x^2 modulo each of the fifteen degree primes,
    # whose product is P, so the test goes on to 53
    P = math.prod(nf._DEGREE_PRIMES)
    assert P == 614889782588491410
    assert nf.is_irreducible((-P, 0, 1))
    assert not nf.is_irreducible((0, -P, 1))


def test_factor_monic_int_multiplicity():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2 has squarefree part (x - 1)(x + 2)
    assert nf.squarefree_part_int((2, -3, 0, 1)) == (-2, 1, 1)


# --- reference irreducibility test: Kronecker's method ------------------------
# A monic integer factor g of degree k takes, at k integer points a, values
# dividing f(a); every choice of such values determines g by interpolation.


def _signed_divisors(v):
    v = abs(v)
    small = [d for d in range(1, math.isqrt(v) + 1) if v % d == 0]
    pos = set(small) | {v // d for d in small}
    return sorted(pos | {-d for d in pos})


def _int_poly_eval(f, a):
    acc = 0
    for c in reversed(f):
        acc = acc * a + c
    return acc


def _monic_through(points, values):
    """Monic degree-k polynomial through (points, values), or None if not integral."""
    k = len(points)
    g = [Fraction(1)]
    for a in points:
        g = nf.poly_mul(g, [Fraction(-a), Fraction(1)])
    # add the Lagrange interpolant of the values; prod(x - a) vanishes there
    g += [Fraction(0)] * (k + 1 - len(g))
    for i, a in enumerate(points):
        basis = [Fraction(1)]
        for j, b in enumerate(points):
            if j != i:
                basis = nf.poly_mul(basis, [Fraction(-b, a - b), Fraction(1, a - b)])
        for t, c in enumerate(basis):
            g[t] += values[i] * c
    if any(c.denominator != 1 for c in g):
        return None
    return [int(c) for c in g]


def kronecker_irreducible(f):
    n = len(f) - 1
    if n == 1:
        return True
    values = {a: _int_poly_eval(f, a) for a in range(-12, 13)}
    if 0 in values.values():
        return False
    points = sorted(values, key=lambda a: (len(_signed_divisors(values[a])), abs(a)))
    for k in range(1, n // 2 + 1):
        pts = points[:k]
        for vals in itertools.product(*(_signed_divisors(values[a]) for a in pts)):
            g = _monic_through(pts, vals)
            if g is None:
                continue
            _, rem = nf.poly_divmod([Fraction(c) for c in f], [Fraction(c) for c in g])
            if not rem:
                return False
    return True


def _random_monic(rng, degree):
    return tuple(rng.randint(-3, 3) for _ in range(degree)) + (1,)


def test_is_irreducible_matches_kronecker_reference():
    rng = random.Random(20261018)
    polys = [_random_monic(rng, rng.randint(1, 8)) for _ in range(40)]
    for _ in range(20):
        a = _random_monic(rng, rng.randint(1, 4))
        b = _random_monic(rng, rng.randint(1, 4))
        polys.append(tuple(int(c) for c in nf.poly_mul(
            [Fraction(c) for c in a], [Fraction(c) for c in b])))
    polys = [f for f in polys if nf.poly_is_squarefree(f)]
    assert len(polys) > 45
    verdicts = [nf.is_irreducible.__wrapped__(f) for f in polys]
    assert verdicts == [kronecker_irreducible(f) for f in polys]
    assert 15 < sum(verdicts) < len(verdicts) - 15  # both answers were exercised


def test_reducible_octic_combines_lifted_factors(monkeypatch):
    from rankone.fppoly import FpPoly

    # (x^4 - 10x^2 + 1)(x^4 - 16x^2 + 16): a quartic divisor is a product of
    # several lifted factors
    f = tuple(int(c) for c in nf.poly_mul([1, 0, -10, 0, 1], [16, 0, -16, 0, 1]))
    lifts = []
    lift = nf._lifted_factor_divides

    def spy(poly, p, degrees):
        lifts.append(p)
        return lift(poly, p, degrees)

    monkeypatch.setattr(nf, "_lifted_factor_divides", spy)
    assert not nf.is_irreducible.__wrapped__(f)
    assert len(lifts) == 1 and len(FpPoly(lifts[0], f).factor()) >= 4


def test_is_irreducible_loads_no_interval_arithmetic():
    script = (
        "import sys\n"
        "from rankone import numberfield as nf\n"
        "assert nf.is_irreducible((1, 0, -10, 0, 1))\n"
        "print([m for m in ('mpmath', 'rankone._libmp', 'rankone._mpmath_libmp', 'rankone.balls')"
        " if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_palindrome_detection():
    assert nf.is_palindromic_or_anti((1, -3, 1))
    assert nf.is_palindromic_or_anti((-1, 0, 1))  # antipalindromic
    assert not nf.is_palindromic_or_anti((2, -1, 1))


def test_unit_circle_certification():
    def on_circle(poly, k):
        return ExactLog.from_root_abs(poly, k).is_trivially_zero()

    # x^2 + x + 1: both roots on the circle
    assert on_circle((1, 1, 1), 0)
    assert on_circle((1, 1, 1), 1)
    # x^2 - 3x + 1: real inverse pair off the circle
    assert not on_circle((1, -3, 1), 0)
    assert not on_circle((1, -3, 1), 1)
    # Lehmer's polynomial: the Salem root and its inverse are real and lie
    # off the circle; the other eight roots lie on it
    lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    assert sum(1 for k in range(10) if on_circle(lehmer, k)) == 8
    # a Salem quartic: the complex pair lies on the circle, and the two real
    # roots fold onto one atom as an inverse pair
    salem = (1, -1, -1, -1, 1)
    assert on_circle(salem, 0) and on_circle(salem, 1)
    r = ExactLog.from_root_abs(salem, 2)
    assert ExactLog.from_root_abs(salem, 3) == r.neg()
    assert not r.is_trivially_zero()


def test_embed_uses_the_box_it_is_given(monkeypatch):
    h = nf.el_from_coeffs(QUARTIC, [1, 1])
    embs = nf.isolate_roots(QUARTIC.min_poly, 64)
    expected = [nf.poly_eval_ball(list(h), e.box, 64) for e in embs]

    def no_isolation(*args):
        raise AssertionError("embed isolated the roots again")

    monkeypatch.setattr(nf, "_isolate_cached", no_isolation)
    for e, ball in zip(embs, expected):
        got = nf.embed(h, e, 64)
        assert (got.re.mid, got.re.rad, got.im.mid, got.im.rad) == (
            ball.re.mid, ball.re.rad, ball.im.mid, ball.im.rad
        )


def test_poly_gcd_and_divmod():
    f = [Fraction(c) for c in (-2, 0, 1)]   # x^2 - 2
    g = [Fraction(c) for c in (2, 1)]       # x + 2
    q, r = nf.poly_divmod(f, g)
    # x^2 - 2 = (x + 2)(x - 2) + 2
    assert q == [Fraction(-2), Fraction(1)]
    assert r == [Fraction(2)]
    prod = nf.poly_mul((1, 1), (-1, 1))
    assert list(prod) == [-1, 0, 1]
    common = nf.poly_gcd([Fraction(c) for c in (-1, 0, 1)], [Fraction(c) for c in (1, 1)])
    assert nf.poly_degree(common) == 1
