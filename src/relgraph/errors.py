"""Exception types shared across the library."""

from __future__ import annotations


class GraphError(Exception):
    """Base class for all library errors."""


class ParseError(GraphError):
    """A graph file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DomainError(GraphError, ValueError):
    """An argument violates an operation's precondition."""


class SizeLimitError(DomainError):
    """An instance exceeds a size guard; CLI ``--force`` or library ``force=True`` lifts it."""


class InvariantViolation(GraphError):
    """An internal consistency check failed; indicates a bug, not bad input."""
