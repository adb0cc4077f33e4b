"""Defaults, every resource cap with the estimate it is held to, and the one
power routine that the other layers share.

This module imports no rankone module except errors (and only math from
the standard library), so the exact layers and the CLI parser use it
without loading the interval stack.  Each estimate is a pure integer
function of a command's arguments and the descriptor's sizes, checked
before the work it bounds; check() is the one place a ResourceCapError is
raised, and it reads the cap when it is called, so a cap lowered here holds
everywhere.  balls re-exports the precisions and subdynamics the
conventions.
"""

import math

from .errors import ResourceCapError

# Working precision of interval work, and the cap its escalation stops at.
DEFAULT_PRECISION = 64
MAX_PRECISION = 4096

# How reported magnitudes are written: the inverse roots of a zeta function
# (the branch values f_L), or the roots themselves (their reciprocals).
INVERSE_ROOT = "inverse-root"
ROOT_LOCATION = "root-location"
CONVENTIONS = (INVERSE_ROOT, ROOT_LOCATION)

# bits of one count, 301,030 decimal digits (count_bits)
DEFAULT_BIT_BUDGET = 10 ** 6
# lattice points of a periodic box, held with their text at about 0.6 KB each
MAX_GRID_POINTS = 1 << 20
# bits of a box's counts, 128 MB (grid_bits, about 3x the true size on times2times3)
MAX_GRID_BITS = 1 << 30
# omega rows, directions x branch_count, two doubles each: 16x the largest default
MAX_OMEGA_ROWS = 1 << 20
# signed branch pairs a portrait tests: every field up to degree 10 fits (29,524)
MAX_CROSSING_PAIRS = 1 << 16
# branch indices a portrait lists: one character of multiplicity 1,447 fits
MAX_BRANCH_INDICES = 1 << 20
# K^2 x bits of one zeta coefficient certification, about 3 K^2 int products
FIT_WORK_CAP = 1 << 24
# fewest periods a zeta fit is checked against when none is asked for
MIN_J_CHECK = 6

_MESSAGES = {
    "DEFAULT_BIT_BUDGET": "estimated size {0} bits exceeds the {1}-bit budget",
    "MAX_GRID_POINTS": "{0} lattice points exceed the grid cap of {1}",
    "MAX_GRID_BITS": "estimated size {0} bits of all counts exceeds the grid cap of {1} bits",
    "MAX_OMEGA_ROWS": "{0} omega rows ({directions} directions x {branches} branches) "
                      "exceed the omega row cap of {1}",
    "MAX_CROSSING_PAIRS": "{0} signed branch pairs exceed the crossing cap of {1}",
    "MAX_BRANCH_INDICES": "{0} branch indices exceed the branch cap of {1}",
    "FIT_WORK_CAP": "certifying {K} zeta coefficients at {bits} bits exceeds the fit work cap "
                    "of {1} (K^2 x bits)",
}


def check(cap: str, estimate: int, **fields) -> None:
    """Raise ResourceCapError when estimate exceeds the named cap as it now stands."""
    limit = globals()[cap]
    if estimate > limit:
        raise ResourceCapError(_MESSAGES[cap].format(estimate, limit, **fields))


def count_bits(bit_height: int, exponents) -> int:
    """Upper bound on the bits of a count: sum |e_i| x SystemDescriptor.bit_height."""
    return sum(abs(e) for e in exponents) * bit_height


def check_periods(per_period: int, j_max: int) -> None:
    """check() at the first of periods 1..j_max over the budget, at j x per_period bits."""
    first = max(1, DEFAULT_BIT_BUDGET // per_period + 1) if per_period else 1
    if first <= j_max:
        check("DEFAULT_BIT_BUDGET", first * per_period)


def grid_points(ranges) -> int:
    return math.prod(hi - lo + 1 for lo, hi in ranges)


def _abs_sum(lo: int, hi: int) -> int:
    """sum of |n| over lo <= n <= hi: the positive terms, then the negative."""
    tri = [m * (m + 1) // 2 if m > 0 else 0 for m in (hi, lo - 1, -lo, -hi - 1)]
    return tri[0] - tri[1] + tri[2] - tri[3]


def grid_bits(bit_height: int, ranges, j: int) -> int:
    """count_bits summed over the box, at j sum_i (sum of |n_i| on axis i) (points per n_i)."""
    points = grid_points(ranges)
    return j * sum(_abs_sum(lo, hi) * (points // (hi - lo + 1)) for lo, hi in ranges) * bit_height


# Over archimedean characters of multiplicities m there are prod (m + 1)
# branches, (prod (2m + 1) - 1) / 2 signed pairs mod sign, and
# prod (m + 1) sum m / 2 branch indices (m_i / 2 of index i in the mean branch).
def branch_count(multiplicities) -> int:
    return math.prod(m + 1 for m in multiplicities)


def crossing_pairs(multiplicities) -> int:
    return (math.prod(2 * m + 1 for m in multiplicities) - 1) // 2


def branch_indices(multiplicities: list) -> int:
    return branch_count(multiplicities) * sum(multiplicities) // 2


def fit_work(K: int, bits: int) -> int:
    return K * K * bits


def power(base, n: int, mul):
    """base ** n for n >= 1 by binary powering, mul(x, y) the product.

    The first factor is base itself, never a one, so a ring needs no unit
    here and a ball power keeps its sequence of rounded products: the
    result times base at each set bit of n, base squared between bits.
    """
    if n < 1:
        raise ValueError(f"power needs an exponent of at least 1, not {n}")
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)
