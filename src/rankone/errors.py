"""Shared exception types, mapped to CLI exit codes in one place."""

from __future__ import annotations


class DescriptorError(ValueError):
    """Invalid descriptor document; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class UndecidedError(RuntimeError):
    """A certified decision was required but stayed open at the precision cap."""

    def __init__(self, what: str):
        self.what = what
        super().__init__(f"undecided at precision cap: {what}")


class ResourceCapError(RuntimeError):
    """A computation exceeded its configured size budget."""


class UnsupportedOperationError(RuntimeError):
    """The requested operation does not apply to this descriptor class."""


class FitInconsistencyError(RuntimeError):
    """No integer coefficients reproduce the exact count sequence."""
