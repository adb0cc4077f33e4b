"""Randomized invariant suites shared by the unit and acceptance tests.

Each helper takes an explicit seed so failures replay exactly.  The count
suite checks symmetry, homogeneity and divisibility of periodic counts and,
where a second route exists, agreement with the determinant oracle.  The
interval suite drives the ball arithmetic through random expression chains
against an exact Fraction oracle.  The small ball and hyperplane predicates
at the end are shared by the tests that read enclosures exactly, and the
Fraction characteristic polynomial by those that need a route to it
without a determinant.
"""

import math
import random
from fractions import Fraction

from rankone import count, det_oracle
from rankone.balls import RealBall, ball_to_fraction_bounds
from rankone.defaults import DEFAULT_PRECISION
from rankone.exactlog import log_dot
from rankone.system import SystemDescriptor


def count_invariants(sys_: SystemDescriptor, trials: int, seed: int) -> int:
    """Run the count invariants on random (n, j); returns checks performed."""
    rng = random.Random(seed)
    with_oracle = all(comp.kind == "number_field_units" for comp, _ in sys_.components)
    checks = 0
    done = 0
    while done < trials:
        n = tuple(rng.randint(-5, 5) for _ in range(sys_.d))
        if all(x == 0 for x in n):
            continue
        j = rng.randint(1, 3)
        k = rng.randint(2, 3)
        a = count(sys_, n, j)

        # fixed points of an automorphism and of its inverse coincide
        assert a == count(sys_, tuple(-x for x in n), j), (n, j)
        checks += 1

        # F_j(alpha^(kn)) and F_kj(alpha^n) are the same subgroup
        b = count(sys_, tuple(k * x for x in n), j)
        assert b == count(sys_, n, k * j), (n, j, k)
        checks += 1

        # F_j is a subgroup of F_kj, so finite orders divide
        if a.is_finite:
            assert b.is_finite and b.value % a.value == 0, (n, j, k)
        else:
            assert not b.is_finite, (n, j, k)
        checks += 1

        if with_oracle:
            assert det_oracle(sys_, n, j) == a, (n, j)
            checks += 1
        done += 1
    return checks


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 30))


def interval_soundness(expressions: int, seed: int) -> int:
    """Random op chains: the ball must contain the Fraction value throughout.

    Returns the number of containment checks performed.
    """
    rng = random.Random(seed)
    checks = 0
    for _ in range(expressions):
        prec = rng.choice((24, 53, 64, 128))
        exact = _random_fraction(rng)
        ball = RealBall.from_fraction(exact, prec)
        for _ in range(rng.randint(2, 8)):
            op = rng.choice(("add", "sub", "mul", "square", "neg", "recip"))
            if op in ("add", "sub", "mul"):
                rhs = _random_fraction(rng)
                rball = RealBall.from_fraction(rhs, prec)
                if op == "add":
                    exact, ball = exact + rhs, ball.add(rball, prec)
                elif op == "sub":
                    exact, ball = exact - rhs, ball.sub(rball, prec)
                else:
                    exact, ball = exact * rhs, ball.mul(rball, prec)
            elif op == "square":
                exact, ball = exact * exact, ball.square(prec)
            elif op == "neg":
                exact, ball = -exact, ball.neg()
            else:
                if exact == 0 or ball.contains_zero():
                    continue
                exact, ball = 1 / exact, ball.recip(prec)
            assert contains(ball, exact), (op, exact, ball)
            checks += 1
            # keep magnitudes in a range where Fractions stay cheap
            if abs(exact) > 10 ** 9 or exact.denominator > 10 ** 9:
                exact = _random_fraction(rng)
                ball = RealBall.from_fraction(exact, prec)
    return checks


def contains(ball: RealBall, x) -> bool:
    """Whether the ball holds the rational (or int) x, compared exactly."""
    lo, hi = ball_to_fraction_bounds(ball)
    return lo <= x <= hi


def relative_width(ball: RealBall) -> float:
    """2 rad / |mid|; infinite for a ball that holds zero."""
    if ball.contains_zero():
        return math.inf
    return 2 * ball.rad_float() / abs(ball.mid_float())


def on_hyperplane(h, v, prec: int = DEFAULT_PRECISION, tol: float = None) -> bool:
    """Whether the direction v may lie on the hyperplane h: the enclosure of
    normal . v comes within tol (default 2^-(prec // 2)) of zero."""
    if tol is None:
        tol = 2.0 ** -(prec // 2)
    lo, hi = log_dot([Fraction(x) for x in v], h.normal).evaluate(prec).float_bounds()
    return not (lo > tol or hi < -tol)


def reference_charpoly(a):
    """det(yI - A), ascending, by Faddeev-LeVerrier over Fraction:
    c_(n-k) = -tr(A M_(k-1)) / k; no determinant is formed."""
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*m)] for row in a]
        coeffs[n - k] = -sum((m[i][i] for i in range(n)), Fraction(0)) / k
        for i in range(n):
            m[i][i] += coeffs[n - k]
    return coeffs
