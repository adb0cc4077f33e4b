"""Integer and rational valuation utilities.

Rationals are plain fractions.Fraction values (normalized, positive
denominator), which already provide exact arithmetic; this module adds the
multiplicative bookkeeping the rest of the package needs: primality,
factorization into prime-exponent maps, and prime-to-S parts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Union

Rational = Union[int, Fraction]

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    # Brent's cycle variant; n must be odd, composite, not a prime power issue
    if n % 2 == 0:
        return 2
    import random

    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                from math import gcd

                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            from math import gcd

            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factor_int(n: int) -> Dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: Dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def factor_fraction(x: Rational) -> Dict[int, int]:
    """Signed-free factorization of a nonzero rational: {prime: exponent in Z}."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("cannot factor zero")
    out = dict(factor_int(x.numerator))
    for p, e in factor_int(x.denominator).items():
        out[p] = out.get(p, 0) - e
    return dict(sorted((p, e) for p, e in out.items() if e != 0))


def prime_to_s_part(n: int, primes) -> int:
    """|n| with every factor belonging to `primes` divided out."""
    if n == 0:
        raise ValueError("zero has no prime-to-S part")
    n = abs(n)
    for p in primes:
        while n % p == 0:
            n //= p
    return n
