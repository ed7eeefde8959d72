"""Exception types shared across the package."""

from __future__ import annotations


class TtrError(Exception):
    """Base class for all package-specific errors."""


class ParseError(TtrError):
    """Malformed input file; carries the 1-based line and column of the problem."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class TilingError(TtrError):
    """An operation received tiles that do not form a valid complete tiling.

    The attached :class:`~ttr.grid.ValidityReport` lists every violation.
    """

    def __init__(self, report):
        summary = ", ".join(str(v) for v in report.violations[:4])
        if len(report.violations) > 4:
            summary += f", ... ({len(report.violations)} total)"
        super().__init__(f"invalid tiling: {summary}")
        self.report = report


class StructureError(TtrError):
    """Input contradicts a structural fact that holds for all valid tilings."""


class LemmaViolationError(TtrError):
    """A checked arithmetic invariant failed; indicates a bug, not bad input."""


class CatalogError(TtrError):
    """Unit catalog too small for the tiling being decomposed."""

    def __init__(self, required_length: int):
        super().__init__(
            f"tiling contains a fault-free segment of length {required_length}; "
            f"extend the unit catalog to at least that length"
        )
        self.required_length = required_length


class ResourceLimitError(TtrError):
    """Requested computation exceeds the configured desk-scale bound."""


class SolverError(TtrError):
    """SAT solver unavailable, crashed, or produced unusable output."""


class IndeterminateError(TtrError):
    """The search exhausted its budget without an answer.

    ``lower`` is the proven lower bound on the quantity being computed, when
    the raiser has one.
    """

    def __init__(self, message: str, lower=None):
        super().__init__(message)
        self.lower = lower
