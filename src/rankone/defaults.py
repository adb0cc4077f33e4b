"""Defaults and the one power routine that the other layers share.

This module imports nothing, so the exact layers (counts, number-field
element arithmetic, descriptors) and the CLI parser can name the precision
defaults and the value conventions, and every ring its binary powering,
without loading the interval stack.  balls re-exports the precisions and
subdynamics the conventions.
"""

# Working precision of interval work, and the cap its escalation stops at.
DEFAULT_PRECISION = 64
MAX_PRECISION = 4096

# How reported magnitudes are written: the inverse roots of a zeta function
# (the branch values f_L), or the roots themselves (their reciprocals).
INVERSE_ROOT = "inverse-root"
ROOT_LOCATION = "root-location"
CONVENTIONS = (INVERSE_ROOT, ROOT_LOCATION)


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
