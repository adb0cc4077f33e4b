"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fractions (row major).  Everything here is
dense and small (dimensions bounded by the number-field degree, ten or
so).  The determinant clears each row's denominators and then runs Bareiss's
fraction-free elimination on Python ints, so no Fraction is formed until
the final quotient, and none at all for a matrix of ints; it is the one
determinant behind number-field norms, the determinant oracle and the rank
test, which calls rows independent exactly when their Gram determinant
det(A A^T) is nonzero, and behind the characteristic polynomials that
numberfield interpolates from norms.

All of it is exact: no interval arithmetic is used or imported here.  The
one ball-matrix decision, the rank certificate of the embedding log matrix,
is a single elimination kept with its caller in number_field_units.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .defaults import power

Matrix = List[List[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                row = out[i]
                for j in range(m):
                    row[j] += c * bt[j]
    return out


def mat_pow(a: Matrix, n: int) -> Matrix:
    return power(a, n, mat_mul)


def det(a: Matrix):
    """Exact determinant by Bareiss elimination over Python ints.

    Entries may be Fractions or ints.  A matrix of ints is eliminated as it
    is and its determinant is an int.  Otherwise row i is scaled by the lcm
    s_i of its denominators, so the scaled matrix is integral and
    det(a) = det(scaled) / prod(s_i), a Fraction.  Bareiss's step
    m[r][c] <- (m[r][c] * m[k][k] - m[r][k] * m[k][c]) / prev, with prev the
    previous pivot, divides exactly by Sylvester's identity; the division is
    checked, and a remainder raises ArithmeticError rather than returning a
    wrong determinant.  Row swaps find a nonzero pivot and flip the sign.
    """
    n = len(a)
    scale = None  # stays None for a matrix of ints
    if all(type(x) is int for row in a for x in row):
        m = [list(row) for row in a]
    else:
        scale = 1
        m = []
        for row in a:
            den = math.lcm(*(x.denominator for x in row))
            scale *= den
            m.append([x.numerator * (den // x.denominator) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0 if scale is None else Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        rowk = m[k]
        p = rowk[k]
        for r in range(k + 1, n):
            rowr = m[r]
            f = rowr[k]
            for c in range(k + 1, n):
                q, rem = divmod(rowr[c] * p - f * rowk[c], prev)
                if rem:
                    raise ArithmeticError("Bareiss elimination step left a remainder")
                rowr[c] = q
        prev = p
    value = sign * m[n - 1][n - 1] if n else 1
    return value if scale is None else Fraction(value, scale)


def full_row_rank(rows: Matrix) -> bool:
    """Whether the rows are linearly independent: det(A A^T) != 0, which by
    Cauchy-Binet is the sum of the squares of A's maximal minors."""
    return det([[sum(x * y for x, y in zip(r, s)) for s in rows] for r in rows]) != 0
