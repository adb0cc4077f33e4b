"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fractions (row major).  Everything here is
dense and small (dimensions bounded by the number-field degree, ten or
so).  The determinant clears each row's denominators and then runs Bareiss's
fraction-free elimination on Python ints, so no Fraction is formed until
the final quotient, and none at all for a matrix of ints; it is the one
determinant behind number-field norms, the determinant oracle and the rank
test, which calls rows independent exactly when their Gram determinant
det(A A^T) is nonzero.  The characteristic polynomial runs the
Faddeev-LeVerrier recurrence on Python ints, on A scaled by the lcm of its
denominators; it needs no pivoting at all, and so gives a determinant-free
second route to det(I - A) = charpoly(1).

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


def charpoly(a: Matrix) -> List[Fraction]:
    """Characteristic polynomial det(yI - A), ascending coefficients, monic.

    Faddeev-LeVerrier on the integer B = sA, s the lcm of A's denominators:
    M_0 = I, c_n = 1, and for k = 1..n
        c_{n-k} = -tr(B M_{k-1}) / k,   M_k = B M_{k-1} + c_{n-k} I,
    each division checked exact; A's coefficients are c_i / s^(n-i).
    """
    n = len(a)
    s = math.lcm(1, *(x.denominator for row in a for x in row))
    b = [[x.numerator * (s // x.denominator) for x in row] for row in a]
    coeffs = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in b]
        c, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier step left a remainder")
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return [Fraction(c, s ** (n - i)) for i, c in enumerate(coeffs)]
