"""Exact periodic-point counts |F_j(alpha^n)| via place products.

For each component the group element h = prod_i g_i^{j n_i} is formed
exactly; the count is infinite when h = 1 and otherwise equals the product
of |h - 1|_w over the component's marked places, which collapses to integer
arithmetic in every supported class.  Each component class computes its
factor in its own ``count_factor`` (s_integer.py, number_field_units.py,
function_field.py), on integers:

- s_integer: h = N/D from integer powers of the generators' numerators and
  denominators, unreduced; the factor is the prime-to-S part of
  |N - D| / gcd(N, D).
- function_field: h = N/D from polynomial powers, unreduced and with no
  gcd; p is raised to the degree-weighted pole order of h - 1 = (N - D)/D
  at the marked places, the order at pi being ord_pi(N - D) - ord_pi(D).
- number_field_units: h = v / den from the powers' integer coordinates,
  multiplied modulo min_poly; |Norm(h - 1)| is the determinant of v's
  integer multiplication matrix with the diagonal moved by den, divided by
  den^m once, so no Fraction is formed per point.

Work that does not depend on the lattice point is done once per component
and cached on it: marked places, S-primes, the size estimate, and every
generator power g_i^e the counts use (with its orders at the marked places
for function fields; a negative number-field power is a power of g_i^-1, so
each generator is inverted once).  Fix(alpha^n) = Fix(alpha^-n), so a box
counts each +-n pair once: a point whose mirror -n came earlier takes its
count.  The rest costs one power per generator and row or column, plus per
point one product of the powers and one difference, determinant or set of
place orders.  The caps and size estimates are those of rankone.defaults:
every count checks its own estimate against the bit budget, so a box's error
names its first point over the budget in box order; a count sequence is
checked once before any count, at its first period over the budget
(check_sequence_budget, which zeta also calls before it builds any branch);
and a box's points and summed estimate are checked before its first count.

det_oracle recomputes number-field counts by a second route, so the two
implementations can be checked against each other.  It builds each
generator's multiplication matrix from the companion matrix of min_poly,
multiplies the matrix powers of Fractions with positive exponents into A
and those with negative exponents, raised to |e|, into B, and takes one
determinant, det(A - B), with no matrix inverse: h = A B^-1 and B is a
product of units, so |det(A - B)| = |det(A B^-1 - I)| |det B| =
|Norm(h - 1)|.  The only code the two routes share is
linalg.det: count forms h with numberfield's el_pow, int_coords and
mul_coords and the per-instance power memo, and the oracle uses none of
these.  linalg is imported by det_oracle alone, so a count loads only the
modules of its descriptor's component classes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from . import defaults
from .errors import UnsupportedOperationError
from .system import SystemDescriptor

if TYPE_CHECKING:
    from .linalg import Matrix


class PeriodicCount:
    """An exact count, or the distinguished infinite value."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[int]):
        if value is not None:
            value = int(value)
            if value < 1:
                raise ValueError("finite periodic counts are at least 1")
        self.value = value

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def as_text(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def as_json(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, PeriodicCount):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __repr__(self):
        return f"PeriodicCount({self.as_text()})"


INFINITE = PeriodicCount(None)


def _exponents(sys: SystemDescriptor, n: Sequence[int], j: int) -> List[int]:
    if j < 1:
        raise ValueError("period j must be a positive integer")
    if len(n) != sys.d:
        raise ValueError(f"expected a Z^{sys.d} element, got {len(n)} coordinates")
    return [j * int(ni) for ni in n]


def count(sys: SystemDescriptor, n: Sequence[int], j: int = 1) -> PeriodicCount:
    """|F_j(alpha^n)|: exact, with infinite detected by exact equality h = 1."""
    exponents = _exponents(sys, n, j)
    defaults.check("DEFAULT_BIT_BUDGET", defaults.count_bits(sys.bit_height, exponents))
    total = 1
    for comp, mult in sys.components:
        value = comp.count_factor(exponents)
        if value is None:
            return INFINITE
        total *= value ** mult
    return PeriodicCount(total)


def count_sequence(sys: SystemDescriptor, n: Sequence[int], j_max: int) -> List[PeriodicCount]:
    """[|F_1|, ..., |F_jmax|]; each period tested independently.

    The budget is checked by check_sequence_budget before any count.
    """
    if j_max < 1:
        raise ValueError("j_max must be a positive integer")
    check_sequence_budget(sys, n, j_max)
    return [count(sys, n, j) for j in range(1, j_max + 1)]


def check_sequence_budget(sys: SystemDescriptor, n: Sequence[int], j_max: int) -> None:
    """Before any count, raise the error count would raise at the first of
    F_1..F_jmax over the budget."""
    defaults.check_periods(defaults.count_bits(sys.bit_height, _exponents(sys, n, 1)), j_max)


class PeriodicGrid:
    """Counts over a finite box of lattice points."""

    __slots__ = ("ranges", "entries")

    def __init__(self, ranges: Sequence[Tuple[int, int]], entries: Dict[Tuple[int, ...], PeriodicCount]):
        self.ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
        self.entries = entries

    def points(self) -> Iterable[Tuple[int, ...]]:
        axes = [range(lo, hi + 1) for lo, hi in self.ranges]
        return itertools.product(*axes)

    def to_csv(self) -> str:
        """One line per point in box order.  Each coordinate's text is formed
        once per axis value, and a line joins its point's texts with the
        entry's count."""
        d = len(self.ranges)
        header = ",".join(f"n{i + 1}" for i in range(d)) + ",count\n"
        texts = [[f"{c}," for c in range(lo, hi + 1)] for lo, hi in self.ranges]
        entries = self.entries
        return header + "".join(
            "".join(prefix) + entries[point].as_text() + "\n"
            for point, prefix in zip(self.points(), itertools.product(*texts))
        )

    def to_json(self) -> dict:
        return {
            "ranges": [[lo, hi] for lo, hi in self.ranges],
            "entries": [
                {"n": list(point), "count": self.entries[point].as_json()}
                for point in self.points()
            ],
        }


def grid(sys: SystemDescriptor, ranges: Sequence[Tuple[int, int]], j: int = 1) -> PeriodicGrid:
    """count(sys, n, j) for every n in the closed box given by ranges.

    Raises ResourceCapError, before any count, when the box's lattice
    points or the summed size estimates of its counts are over their caps.
    """
    if len(ranges) != sys.d:
        raise ValueError(f"expected {sys.d} ranges, got {len(ranges)}")
    for lo, hi in ranges:
        if lo > hi:
            raise ValueError(f"empty range {lo}..{hi}")
    defaults.check("MAX_GRID_POINTS", defaults.grid_points(ranges))
    defaults.check("MAX_GRID_BITS", defaults.grid_bits(sys.bit_height, ranges, j))
    entries: Dict[Tuple[int, ...], PeriodicCount] = {}
    result = PeriodicGrid(ranges, entries)
    for point in result.points():
        mirror = entries.get(tuple(-c for c in point))  # its estimate passed the check
        entries[point] = count(sys, point, j) if mirror is None else mirror
    return result


def det_oracle(sys: SystemDescriptor, n: Sequence[int], j: int = 1) -> PeriodicCount:
    """Independent matrix-arithmetic recomputation for number-field systems.

    Works entirely with multiplication matrices: the products A of the
    positive and B of the negative generator powers, then one exact
    determinant det(A - B).  Zero determinant reports the infinite count.
    """
    from .linalg import det, identity, mat_mul, mat_pow

    for comp, _ in sys.components:
        if comp.kind != "number_field_units":
            raise UnsupportedOperationError(
                "det_oracle requires every component to be number_field_units"
            )
    exponents = _exponents(sys, n, j)
    defaults.check("DEFAULT_BIT_BUDGET", defaults.count_bits(sys.bit_height, exponents))
    total = 1
    for comp, mult in sys.components:
        a = b = identity(comp.field.degree)
        for g, e in zip(comp.generators, exponents):
            if e:
                m = mat_pow(_companion_multiplication_matrix(comp.field.min_poly, g), abs(e))
                if e > 0:
                    a = mat_mul(a, m)
                else:
                    b = mat_mul(b, m)
        value = det([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        if value.denominator != 1:
            raise ArithmeticError("determinant of an integral matrix must be an integer")
        if value == 0:
            return INFINITE
        total *= abs(value.numerator) ** mult
    return PeriodicCount(total)


def _companion_multiplication_matrix(min_poly: Sequence[int], g: Sequence[Fraction]) -> Matrix:
    """Matrix of y -> g*y on the power basis, as sum_i g_i C^i.

    C is the companion matrix of min_poly, the matrix of multiplication by
    the defining root; built from linalg alone, independently of el_mul.
    """
    from .linalg import identity, mat_mul

    m = len(min_poly) - 1
    companion = [[Fraction(int(i == j + 1)) for j in range(m)] for i in range(m)]
    for i in range(m):
        companion[i][m - 1] = Fraction(-min_poly[i])
    out = [[Fraction(0)] * m for _ in range(m)]
    power = identity(m)
    for c in g:
        if c:
            out = [[x + c * y for x, y in zip(ro, rp)] for ro, rp in zip(out, power)]
        power = mat_mul(companion, power)
    return out
