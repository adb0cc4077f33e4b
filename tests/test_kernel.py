"""Exact kernel: rational valuations, certified balls, exact log atoms."""

import ast
import json
import math
import pathlib
import random
import sys
from fractions import Fraction

from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_mul,
    mpf_shift,
    mpf_sub,
    to_float,
    to_int,
)

import pytest

import rankone
from rankone import cli, rationals
from rankone.balls import ComplexBall, RealBall, ball_to_fraction_bounds, interval_sign, precisions
from rankone.exactlog import ExactLog, log_dot, vector_is_zero, vectors_parallel
from rankone.rationals import (
    factor_fraction,
    factor_int,
    is_prime,
    prime_to_s_part,
)

import propsuites
from propsuites import contains


# --- rational valuations ---------------------------------------------------

def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number


def test_factor_int():
    assert factor_int(720) == {2: 4, 3: 2, 5: 1}
    assert factor_int(97) == {97: 1}
    assert factor_int(1) == {}


def test_factor_int_splits_semiprimes_above_the_trial_primes(monkeypatch):
    # no prime factor is below 41, so trial division leaves each whole and
    # Pollard-Brent splits it
    splits = []
    real = rationals._pollard_brent
    monkeypatch.setattr(rationals, "_pollard_brent", lambda n: splits.append(n) or real(n))
    m31, m61 = 2 ** 31 - 1, 2 ** 61 - 1
    for p, q in ((41, 43), (1009, 1013), (m31, m61)):
        assert factor_int(p * q) == {p: 1, q: 1}
        assert splits[-1] == p * q
    assert len(splits) == 3


def test_factor_fraction_signed_exponents():
    assert factor_fraction(Fraction(8, 45)) == {2: 3, 3: -2, 5: -1}


def test_prime_to_s_part():
    assert prime_to_s_part(720, (2, 3)) == 5
    assert prime_to_s_part(720, ()) == 720
    assert prime_to_s_part(1, (2,)) == 1


# --- real balls --------------------------------------------------------------

def _binary_loop_pow(ball, n, prec):
    """The loop pow_int replaced, kept as the reference: the first factor is
    the ball itself, times it at each set bit of n, squared between bits."""
    result, base = None, ball
    while n:
        if n & 1:
            result = base if result is None else result.mul(base, prec)
        n >>= 1
        if n:
            base = base.mul(base, prec)
    return result


def _ball_bits(ball):
    parts = (ball.re, ball.im) if isinstance(ball, ComplexBall) else (ball,)
    return [(part.mid, part.rad) for part in parts]


def test_pow_int_keeps_the_products_of_the_binary_loop():
    # every product rounds and widens the radius, so a power that started
    # from one, or multiplied in another order, would differ in its bits
    prec = 53
    real = RealBall.from_fraction(Fraction(-7, 5), prec)
    for ball in (real, ComplexBall(real, RealBall.from_fraction(Fraction(3, 7), prec))):
        for n in range(1, 41):
            assert _ball_bits(ball.pow_int(n, prec)) == _ball_bits(_binary_loop_pow(ball, n, prec)), n
        with pytest.raises(ValueError):
            ball.pow_int(0, prec)


def test_ball_contains_exact_value_through_ops():
    prec = 53
    a = RealBall.from_fraction(Fraction(1, 3), prec)
    b = RealBall.from_fraction(Fraction(2, 7), prec)
    assert contains(a.add(b, prec), Fraction(1, 3) + Fraction(2, 7))
    assert contains(a.mul(b, prec), Fraction(2, 21))
    assert contains(a.sub(b, prec), Fraction(1, 21))
    assert contains(a.recip(prec), 3)


def test_square_of_zero_straddling_interval_is_nonnegative():
    # interval [-2, 2]: the square must be [0, 4], not [-4, 4]
    ball = RealBall(RealBall.from_int(0).mid, RealBall.from_int(2).mid)
    sq = ball.square(53)
    assert contains(sq, 0)
    assert contains(sq, 4)
    assert not contains(sq, Fraction(-1, 100))


def test_recip_of_zero_straddling_interval_raises():
    ball = RealBall(RealBall.from_int(0).mid, RealBall.from_int(1).mid)
    with pytest.raises(ZeroDivisionError):
        ball.recip(53)


def test_exp_log_roundtrip_contains():
    prec = 64
    for x in (Fraction(3, 2), Fraction(10), Fraction(1, 7)):
        ball = RealBall.from_fraction(x, prec)
        assert contains(ball.log(prec).exp(prec), x)


def test_float_bounds_bracket_midpoint():
    ball = RealBall.from_fraction(Fraction(22, 7), 53)
    lo, hi = ball.float_bounds()
    assert lo <= 22 / 7 <= hi


def test_float_bounds_are_the_nearest_doubles_outside():
    # midpoints and radii of random sizes with exponents in [-1100, 1100]:
    # past the largest double, in the subnormals, across zero and in between
    rng = random.Random(22)
    normal = 0
    for _ in range(3000):
        exp = rng.randint(-1100, 1100)
        bits = rng.randint(1, 120)
        man = rng.getrandbits(bits) | 1
        mid = from_man_exp(-man if rng.getrandbits(1) else man, exp - bits)
        rad = from_man_exp(rng.getrandbits(30) | 1, exp - bits - rng.randint(-5, 80))
        ball = RealBall(mid, rad)
        lo, hi = ball.float_bounds()
        exact_lo, exact_hi = ball_to_fraction_bounds(ball)
        # lo is the largest double <= the lower end, hi the smallest >= the upper end
        assert lo < math.inf and hi > -math.inf
        above, below = math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)
        assert lo == -math.inf or Fraction(lo) <= exact_lo
        assert above == math.inf or Fraction(above) > exact_lo
        assert hi == math.inf or Fraction(hi) >= exact_hi
        assert below == -math.inf or Fraction(below) < exact_hi
        if all(2.0 ** -1022 <= abs(x) <= 1.7976931348623157e308 for x in (lo, hi)):
            # the normal range: the exact ends rounded outward, as before
            normal += 1
            ends = ball._bounds()
            assert (lo, hi) == (to_float(ends[0], rnd="f"), to_float(ends[1], rnd="c"))
    assert normal > 2000


def mpf_float_bounds(ball):
    """float_bounds through mpmath: each end rounded to 53 bits outward,
    then taken to the next double outward: itself in the normal range, a
    multiple of 2^-1074 below it, the largest double or infinity above it."""

    def to_double(x, rnd):
        sign, man, exp, bc = x
        if not man or -1021 <= exp + bc <= 1024:
            return to_float(x)
        if exp + bc > 1024:
            big = sys.float_info.max if (rnd == "f") != sign else math.inf
            return -big if sign else big
        return math.ldexp(to_int(mpf_shift(x, 1074), rnd), -1074)

    return (to_double(mpf_sub(ball.mid, ball.rad, 53, "f"), "f"),
            to_double(mpf_add(ball.mid, ball.rad, 53, "c"), "c"))


def float_bounds_cases(rng):
    """Balls whose ends have their top bit at -1074, -1022 and 1024, +-3;
    2,000-bit midpoints with a radius far below their last bit; rad = 0 and
    mid = 0; either sign, and radii that cross zero."""
    for top in (-1074, -1022, 1024):
        for shift in range(-3, 4):
            for bits in (1, 53, 54, 64, 2000):
                man = rng.getrandbits(bits) | 1 << (bits - 1)
                for sign in (1, -1):
                    mid = from_man_exp(sign * man, top + shift - bits + 1)
                    yield RealBall(mid)
                    for below in (0, 20, 52, 53, 60, bits + 500):
                        rad = from_man_exp(rng.getrandbits(30) | 1 << 29, top + shift - below - 29)
                        yield RealBall(mid, rad)
                        yield RealBall(fzero, rad)
    yield RealBall(fzero)
    for _ in range(500):
        mid = from_man_exp(rng.getrandbits(2000) | 1 << 1999, rng.randint(-3000, 1000))
        yield RealBall(mid, from_man_exp(rng.getrandbits(30) | 1, mid[2] - rng.randint(30, 4000)))


def test_float_bounds_equal_the_mpf_route():
    balls = list(float_bounds_cases(random.Random(24)))
    assert len(balls) > 1500
    for ball in balls:
        got, want = ball.float_bounds(), mpf_float_bounds(ball)
        assert got == want
        # equal doubles of equal sign, and never -0.0
        assert [math.copysign(1, x) for x in got] == [math.copysign(1, x) for x in want]
        assert all(math.copysign(1, x) > 0 for x in got if x == 0)
    ends = {x for ball in balls for x in ball.float_bounds()}
    # the cases reach both saturations, the subnormals and zero
    assert {math.inf, -math.inf, sys.float_info.max, -sys.float_info.max, 0.0} <= ends
    assert any(0 < abs(x) < 2.0 ** -1022 for x in ends)


def _mpf_rad_add(*terms):
    total = fzero
    for t in terms:
        total = mpf_add(total, t, 30, "c")
    return total


def _mpf_half_ulp(mid, prec):
    return mpf_shift(mpf_abs(mid), -prec)


def mpf_ball_op(op, a, b, prec):
    """mul, add, sub and _from_endpoints(a, b) as mpmath computed them before
    they moved onto Python ints, kept as the reference: (mid, rad)."""
    if op == "mul":
        mid = mpf_mul(a.mid, b.mid, prec, "n")
        return mid, _mpf_rad_add(
            mpf_mul(mpf_abs(a.mid), b.rad, 30, "c"),
            mpf_mul(mpf_abs(b.mid), a.rad, 30, "c"),
            mpf_mul(a.rad, b.rad, 30, "c"),
            _mpf_half_ulp(mid, prec),
        )
    if op in ("add", "sub"):
        mid = (mpf_add if op == "add" else mpf_sub)(a.mid, b.mid, prec, "n")
        return mid, _mpf_rad_add(a.rad, b.rad, _mpf_half_ulp(mid, prec))
    lo, hi = a.mid, b.mid
    mid = mpf_shift(mpf_add(lo, hi, prec, "n"), -1)
    half = mpf_shift(mpf_sub(hi, lo, 30, "c"), -1)
    return mid, _mpf_rad_add(half, _mpf_half_ulp(mid, prec))


def ball_op_cases(rng):
    """Seeded (a, b, prec) at each prec of 1, 2, 53, 64, 72 and 300: mantissas
    whose product has prec + 1 bits (an exact tie) or is 2^(2k) - 1 (a carry
    to 2^prec), radii of 1 to 200 bits from just below the midpoint to
    2^-3000 under it, zero midpoints and zero radii."""

    def ball(man, exp):
        mid = from_man_exp(rng.choice((-1, 1)) * man, exp)
        bits = rng.choice((0, 1, 5, 30, 31, 64, 200))
        if not bits:
            return RealBall(mid)
        rman = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        below = rng.choice((rng.randint(-5, 40), rng.randint(90, 400), rng.randint(2000, 3000)))
        return RealBall(mid, from_man_exp(rman, exp + man.bit_length() - bits - below))

    def odd(bits):
        return rng.getrandbits(bits) | 1 << (bits - 1) | 1 if bits else 0

    for prec in (1, 2, 53, 64, 72, 300):
        for _ in range(150):
            ka = rng.randint(1, prec)
            kb = prec + 1 - ka + rng.choice((0, 0, 1))  # the product has prec + 1 or + 2 bits
            yield ball(odd(ka), rng.randint(-80, 80)), ball(odd(kb), rng.randint(-80, 80)), prec
        for k in range(1, prec // 2 + 3):
            # (2^k - 1)(2^k + 1) = 2^(2k) - 1 rounds up to 2^(2k) when 2k > prec
            yield ball(2 ** k - 1, rng.randint(-80, 80)), ball(2 ** k + 1, rng.randint(-80, 80)), prec
        for _ in range(150):
            a, b = (ball(odd(rng.choice((0, 0, 1, 30, 64, prec, 2 * prec + 7))), rng.randint(-300, 300))
                    for _ in range(2))
            yield a, b, prec


def test_ball_ops_equal_the_mpf_route():
    ties, carries, wide, gaps, zeros = set(), 0, 0, 0, 0
    for a, b, prec in ball_op_cases(random.Random(27)):
        lo, hi = (a.mid, b.mid) if mpf_cmp(a.mid, b.mid) <= 0 else (b.mid, a.mid)
        for op, x, y in (("mul", a, b), ("add", a, b), ("sub", a, b), ("ends", RealBall(lo), RealBall(hi)),
                         ("ends", *map(RealBall, a._bounds()))):
            got = RealBall._from_endpoints(x.mid, y.mid, prec) if op == "ends" else getattr(x, op)(y, prec)
            assert (got.mid, got.rad) == mpf_ball_op(op, x, y, prec), (op, prec, x.mid, x.rad, y.mid, y.rad)
        product = a.mid[1] * b.mid[1]
        if product.bit_length() == prec + 1:
            ties.add((product >> 1) & 1)  # the kept last bit: 0 rounds down, 1 rounds up
        carries += product.bit_length() > prec and a.mul(b, prec).mid[1] == 1 and product > 1
        wide += max(a.rad[3], b.rad[3]) > 30
        gaps += any(r[1] and m[2] - r[2] > 100 for m, r in ((a.mid, a.rad), (b.mid, b.rad)))
        zeros += not (a.mid[1] and b.mid[1] and a.rad[1] and b.rad[1])
    # both parities of exact ties, and every other kind of case, are reached
    assert ties == {0, 1}
    assert min(carries, wide, gaps, zeros) > 50


def test_from_int_equals_mpmath():
    rng = random.Random(27)
    cases = [0, 1, -1, 2 ** 100_000, -(2 ** 99_999)]
    for _ in range(60):
        n = rng.getrandbits(rng.randint(1, 100_000)) << rng.randint(0, 3000)
        cases += [n, -n, 1 << rng.randint(0, 100_000)]
    for n in cases:
        assert RealBall.from_int(n).mid == from_int(n)
        assert RealBall.from_int(n).rad == fzero


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_from_float_rejects_non_finite(x):
    # mpmath's inf and nan have a zero mantissa, which ball products would read as 0
    with pytest.raises(ValueError, match="non-finite"):
        RealBall.from_float(x)


def test_complex_mul_contains_exact_gaussian_value():
    prec = 64
    z = ComplexBall.from_fractions(Fraction(1, 3), Fraction(1, 5), prec)
    w = ComplexBall.from_fractions(Fraction(2, 7), Fraction(-1, 2), prec)
    prod = z.mul(w, prec)
    re = Fraction(1, 3) * Fraction(2, 7) - Fraction(1, 5) * Fraction(-1, 2)
    im = Fraction(1, 3) * Fraction(-1, 2) + Fraction(1, 5) * Fraction(2, 7)
    assert contains(prod.re, re)
    assert contains(prod.im, im)


def test_interval_sign_escalates_until_resolved():
    tiny = Fraction(1, 2 ** 200)

    def expr(prec):
        return RealBall.from_fraction(1 + tiny, prec).sub(RealBall.one(), prec)

    assert interval_sign(expr, max_prec=1024) == "positive"


def test_interval_sign_honest_undecided_at_cap():
    def expr(prec):
        third = RealBall.from_fraction(Fraction(1, 3), prec)
        return third.add(third, prec).add(third, prec).sub(RealBall.one(), prec)

    assert interval_sign(expr, max_prec=128) == "zero-undecided"


@pytest.mark.parametrize(
    "start, cap, ladder",
    [
        (64, 300, [64, 128, 256, 300]),
        (64, 4096, [64, 128, 256, 512, 1024, 2048, 4096]),
        (16, 16, [16]),
        (8192, 4096, []),
    ],
)
def test_precisions_ladder(start, cap, ladder):
    assert list(precisions(start, cap)) == ladder


def test_precisions_rejects_a_start_below_one_bit():
    # doubling 0 would never reach the cap
    with pytest.raises(ValueError, match="at least 1 bit"):
        list(precisions(0, 64))


def _doubles_itself(node):
    """True for `x *= ...` and `x = ... x * ...` on a name x holding a precision."""
    if isinstance(node, ast.AugAssign):
        targets, value = [node.target], None
        if not isinstance(node.op, ast.Mult):
            return False
    elif isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    else:
        return False
    for t in targets:
        if not (isinstance(t, ast.Name) and ("prec" in t.id or "work" in t.id)):
            continue
        if value is None:
            return True
        for sub in ast.walk(value):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult) and any(
                isinstance(side, ast.Name) and side.id == t.id for side in (sub.left, sub.right)
            ):
                return True
    return False


def test_one_precision_ladder():
    # every escalation loop walks balls.precisions, and only balls defines a
    # hard precision cap, so one patched name reaches every loop
    package = pathlib.Path(rankone.__file__).parent
    doublings, hard_caps = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if _doubles_itself(node):
                        doublings.add(f"{path.stem}.{func.name}")
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                hard_caps += [
                    f"{path.stem}.{t.id}"
                    for t in targets
                    if isinstance(t, ast.Name) and "HARD" in t.id.upper()
                ]
    assert doublings == {"balls.precisions"}
    assert hard_caps == ["balls.HARD_PRECISION"]


def test_precision_env_overrides(monkeypatch, capsys):
    monkeypatch.setenv("RANKONE_PRECISION_BITS", "96")
    monkeypatch.setenv("RANKONE_MAX_PRECISION_BITS", "512")
    assert cli.main(["omega", "times2times3", "--samples", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["precision_bits"] == 96
    assert cli.main(["omega", "times2times3", "--precision-bits", "513"]) == 1
    assert "exceeds the cap 512" in capsys.readouterr().err


# --- exact log combinations ---------------------------------------------------

def test_exactlog_rational_atoms():
    six = ExactLog.from_rational(Fraction(6))
    assert six.prime_part == {2: Fraction(1), 3: Fraction(1)}
    half = ExactLog.from_rational(Fraction(1, 2))
    assert half.prime_part == {2: Fraction(-1)}
    assert ExactLog.from_rational(Fraction(1)).is_trivially_zero()


def test_exactlog_cancellation_is_syntactic_zero():
    a = ExactLog.from_rational(Fraction(12))   # log 12 = 2 log 2 + log 3
    b = ExactLog.from_rational(Fraction(4))
    c = ExactLog.from_rational(Fraction(3))
    assert a.sub(b).sub(c).is_trivially_zero()
    assert a.sub(b).sub(c).sign() == "zero"


def test_exactlog_evaluate_brackets_value():
    val = ExactLog.from_rational(Fraction(6)).evaluate(64)
    lo, hi = val.float_bounds()
    assert lo <= 1.791759469228055 <= hi
    assert hi - lo < 1e-15


def test_linear_poly_root_folds_to_rational_atoms():
    # x - 3 has the single root 3; the atom must be log 3, not a root atom
    log3 = ExactLog.from_root_abs((-3, 1), 0)
    assert log3.root_part == {}
    assert log3.prime_part == {3: Fraction(1)}


def test_unit_circle_root_contributes_zero():
    # x^2 + x + 1: both roots on the unit circle
    assert ExactLog.from_root_abs((1, 1, 1), 0).is_trivially_zero()


def test_full_galois_orbit_collapses_to_constant():
    # x^2 - 2x - 1 has roots 1 +- sqrt(2) with product -1: the orbit sum
    # is log|constant| = 0
    poly = (-1, -2, 1)
    total = ExactLog.from_root_abs(poly, 0).add(ExactLog.from_root_abs(poly, 1))
    assert total.is_trivially_zero()


def test_palindromic_inverse_pair_folds_to_negation():
    # x^2 - 3x + 1 has roots r and 1/r: the two logs are exact negatives
    poly = (1, -3, 1)
    a = ExactLog.from_root_abs(poly, 0)
    b = ExactLog.from_root_abs(poly, 1)
    assert a.add(b).is_trivially_zero()
    assert not a.is_trivially_zero()


def test_conjugate_pair_orbit_collapses_to_constant_term():
    # x^2 - x + 2: the conjugate pair is one atom with coefficient 2, which
    # is the full orbit, so it collapses to log|2| exactly
    two_log_r = ExactLog.from_root_abs((2, -1, 1), 0).scale(2)
    assert two_log_r.sub(ExactLog.from_rational(Fraction(2))).is_trivially_zero()


def test_cross_atom_true_zero_stays_undecided():
    # 2 log|sqrt 2| = log 2, but a single root of x^2 - 2 is an opaque atom
    # (the +-sqrt2 pair is real, not conjugate, so no fold applies); the
    # interval test must stay open rather than guess
    two_log_r = ExactLog.from_root_abs((-2, 0, 1), 1).scale(2)
    diff = two_log_r.sub(ExactLog.from_rational(Fraction(2)))
    assert not diff.is_trivially_zero()
    assert diff.sign(max_prec=256) == "zero-undecided"
    assert diff.is_zero(max_prec=256) is None


def test_prime_only_log_is_nonzero_past_the_cap():
    # 19 log 2 - 12 log 3 is about -0.0135, too close to 0 for a 2-bit cap,
    # yet distinct primes have independent logs, so it is certainly nonzero
    x = ExactLog.from_rational(Fraction(2**19, 3**12))
    assert x.sign(max_prec=2) == "zero-undecided"
    assert x.is_zero(max_prec=2) is False
    assert x.sign() == "negative"


def test_exactlog_sign_certification():
    assert ExactLog.from_rational(Fraction(3, 2)).sign() == "positive"
    assert ExactLog.from_rational(Fraction(2, 3)).sign() == "negative"
    mixed = ExactLog.from_root_abs((1, -3, 1), 0)
    assert mixed.sign(max_prec=256) in ("positive", "negative")


def test_log_dot_rational_weights():
    vec = (ExactLog.from_rational(Fraction(2)), ExactLog.from_rational(Fraction(3)))
    form = log_dot((Fraction(2), Fraction(-1)), vec)
    # 2 log 2 - log 3 = log(4/3) > 0
    assert form.prime_part == {2: Fraction(2), 3: Fraction(-1)}
    assert form.sign() == "positive"


def test_vector_is_zero():
    zero = (ExactLog.zero(), ExactLog.zero())
    assert vector_is_zero(zero) is True
    axis = (ExactLog.from_rational(Fraction(2)), ExactLog.zero())
    assert vector_is_zero(axis) is False


def test_vectors_parallel_shared_atoms():
    a = (ExactLog.from_rational(Fraction(2)), ExactLog.from_rational(Fraction(3)))
    b = (ExactLog.from_rational(Fraction(8)), ExactLog.from_rational(Fraction(27)))
    assert vectors_parallel(a, b) == "parallel"
    c = (ExactLog.from_rational(Fraction(2)), ExactLog.from_rational(Fraction(5)))
    assert vectors_parallel(a, c) == "not-parallel"


def test_vectors_parallel_reads_the_ratio_off_one_atom():
    log = ExactLog.from_rational
    # a negative ratio, and a multi-atom entry log 6 = log 2 + log 3
    a = (log(6), log(Fraction(1, 5)))
    assert vectors_parallel(a, tuple(x.scale(Fraction(-3, 2)) for x in a)) == "parallel"
    # a trivially zero first entry: the ratio comes from the second
    a = (ExactLog.zero(), log(2))
    assert vectors_parallel(a, (ExactLog.zero(), log(Fraction(1, 4)))) == "parallel"
    assert vectors_parallel(a, (log(3), log(2))) == "not-parallel"
    # entries with root atoms only: the sqrt2sqrt3 characters
    from rankone.system import load_fixture

    arch, _ = load_fixture("sqrt2sqrt3").characters()
    a = arch[0].log_vector
    assert not a[0].prime_part and a[0].root_part
    assert vectors_parallel(a, tuple(x.scale(-2) for x in a)) == "parallel"
    assert vectors_parallel(a, arch[1].log_vector) == "not-parallel"
    # one differing entry is never parallel, in the first entry or a later one
    assert vectors_parallel(a, (a[0].scale(2), a[1].scale(3))) == "not-parallel"
    b = (log(2).add(log(9)), log(Fraction(1, 5)))  # log 2 + 2 log 3: ratio 1 at log 2 only
    assert vectors_parallel((log(6), log(Fraction(1, 5))), b) == "not-parallel"


def test_vectors_parallel_cross_atom_is_undecided():
    # (0, -log 3) and (0, log 2) are parallel as real vectors, but no shared
    # atom certificate exists; the honest answer is undecided
    a = (ExactLog.zero(), ExactLog.from_rational(Fraction(1, 3)))
    b = (ExactLog.zero(), ExactLog.from_rational(Fraction(2)))
    assert vectors_parallel(a, b, max_prec=256) == "undecided"


# --- randomized soundness -----------------------------------------------------

def test_interval_soundness_small():
    assert propsuites.interval_soundness(150, seed=27) > 0
