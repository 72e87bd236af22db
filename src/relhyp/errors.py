"""Shared exception types.

The CLI maps these onto distinct exit codes, so library code should raise the
most specific one that applies.
"""

from __future__ import annotations


class RelhypError(Exception):
    pass


class ParseError(RelhypError):
    """Malformed document, word literal, or model data.  Carries the JSON-ish
    path (or textual position) of the offending piece when known."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class OracleInvalidError(RelhypError):
    """The oracle does not kill a relator, or its own data is inconsistent."""


class ResourceCapError(RelhypError):
    """A vertex / state / size budget was exhausted."""

    def __init__(self, message: str, cap_name: str = "", cap_value=None):
        self.cap_name = cap_name
        self.cap_value = cap_value
        super().__init__(message)


class LpSolverError(RelhypError):
    """The LP backend failed for a reason other than provable infeasibility."""


class GeodesicNotFoundError(RelhypError):
    """No geodesic representative: the oracle bounds the relative length
    without fixing it, or gives no word at its exact length."""
