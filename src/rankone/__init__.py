"""Periodic points, zeta data and expansive subdynamics of algebraic
Z^d-actions of entropy rank one, from declarative descriptors.

The public surface is re-exported here; the functional entry points are
parse_descriptor / load_fixture (descriptors), count / grid / det_oracle
(periodic points), inverse_roots (direction zeta functions) and
build_portrait / directional_entropy (subdynamics).

Importing the package loads none of its modules: each export is imported
from its home module on first use (PEP 562), so exact counts never load
mpmath's raw floats (_libmp) or the interval arithmetic.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "DescriptorError",
        "FitInconsistencyError",
        "ResourceCapError",
        "UndecidedError",
        "UnsupportedOperationError",
    ),
    "periodic": (
        "INFINITE",
        "PeriodicCount",
        "PeriodicGrid",
        "count",
        "count_sequence",
        "det_oracle",
        "grid",
    ),
    "subdynamics": (
        "DirectionPortrait",
        "LabeledHyperplane",
        "branch_subsets",
        "build_portrait",
        "crossing_set",
        "directional_entropy",
        "directional_entropy_atoms",
        "f_eval",
        "nonexpansive_hyperplanes",
        "omega_samples",
    ),
    "system": (
        "Character",
        "SystemDescriptor",
        "fixture_names",
        "load_fixture",
        "parse_descriptor",
    ),
    "zeta": (
        "ZetaCandidate",
        "ZetaFactorization",
        "inverse_roots",
        "is_expansive_element",
        "verify_generating_identity",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
