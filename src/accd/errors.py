"""Shared error types and source-location plumbing."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """Where a source construct starts: 1-based line and column."""

    line: int
    col: int


class AccdError(Exception):
    """Base class for every error raised by this package."""


class DdslSyntaxError(AccdError):
    """Malformed DDSL input. Carries the failure position and the token
    set the parser would have accepted there; the message leaves the
    position to whoever prints it with a file name."""

    def __init__(self, line: int, col: int, expected, found: str):
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        self.found = found
        want = ", ".join(sorted(self.expected))
        super().__init__(f"expected {want}, found {found}")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: Span

    def format(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.span.line}:{self.span.col}: {self.severity}: {self.message}"


class UnsupportedProgramError(AccdError):
    """Valid DDSL that does not match any executable pipeline shape."""


class DimensionMismatchError(AccdError):
    pass


class FormatError(AccdError):
    """Bad cell or ragged row in an input file; row/col are 1-based."""

    def __init__(self, message: str, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"row {row}, col {col}: {message}")


class RangeError(AccdError):
    pass


class InvalidQueryError(AccdError):
    pass


class ConfigError(AccdError):
    """A JSON config file that is not valid JSON or whose fields do not
    match the config it describes."""


class SizeMismatchError(AccdError):
    pass


class TableMissError(AccdError):
    pass


class DivisionGuardError(AccdError):
    pass


class NoFeasibleConfigError(AccdError):
    """Design-space search exhausted without a constraint-satisfying point.

    ``nearest_miss`` holds the (config, violations) pair that came closest.
    """

    def __init__(self, message: str, nearest_miss=None):
        self.nearest_miss = nearest_miss
        super().__init__(message)


class OracleMismatchError(AccdError):
    """Shadow-oracle comparison failed; ``detail`` identifies the first
    differing record."""

    def __init__(self, message: str, detail=None):
        self.detail = detail
        super().__init__(message)
