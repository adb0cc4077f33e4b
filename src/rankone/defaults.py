"""Defaults that the exact layers and the command line share.

This module imports nothing, so the exact layers (counts, number-field
element arithmetic, descriptors) and the CLI parser can name the precision
defaults and the value conventions without loading the interval stack.
balls re-exports the precisions and subdynamics the conventions.
"""

# Working precision of interval work, and the cap its escalation stops at.
DEFAULT_PRECISION = 64
MAX_PRECISION = 4096

# How reported magnitudes are written: the inverse roots of a zeta function
# (the branch values f_L), or the roots themselves (their reciprocals).
INVERSE_ROOT = "inverse-root"
ROOT_LOCATION = "root-location"
CONVENTIONS = (INVERSE_ROOT, ROOT_LOCATION)
