"""Exception types shared across the toolkit.

The command line maps them to exit codes by class: a ResourceCapExceeded
exits 3, any other UedsError 2 (see ueds.cli)."""

from __future__ import annotations


class UedsError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(UedsError):
    """Malformed input; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphFormatError(FormatError):
    """Malformed .gr input."""


class DecompositionFormatError(FormatError):
    """Malformed .td input."""


class ResourceCapExceeded(UedsError):
    """A well-formed instance is beyond a limit of the solver."""


class WidthCapExceeded(ResourceCapExceeded):
    """Decomposition is wider than the configured cap or the DP's row."""


class InstanceTooLarge(ResourceCapExceeded):
    """Instance exceeds the configured limit for exhaustive enumeration."""


class NotStarForest(UedsError):
    """The given edge set does not induce a disjoint union of stars."""


class CoverViolation(UedsError):
    """Endpoints of the given matching do not cover every edge."""


class IsolatedVertexPresent(UedsError):
    """Vertex coloring requires a graph without isolated vertices."""


class NotACover(UedsError):
    """The vertex set handed to the decomposition builder misses an edge."""


class InvalidDecomposition(UedsError):
    """A (nice) tree decomposition failed validation."""


class GenSpecError(UedsError):
    """Invalid instance-generator specification."""
