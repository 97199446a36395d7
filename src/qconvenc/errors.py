"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "QconvError",
    "ParseError",
    "WidthMismatchError",
    "InvalidMatrixError",
    "InvalidDelayError",
    "DegenerateCodeError",
    "InvalidCodeError",
    "CodeShapeError",
    "WindowError",
    "AssemblyError",
    "CompletionError",
    "SynthesisFailureError",
    "ConsistencyError",
    "MemoryBoundError",
]


class QconvError(Exception):
    """Base class for all package-specific errors."""


class ParseError(QconvError, ValueError):
    """Malformed code file.  Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class WidthMismatchError(QconvError, ValueError):
    """Operands act on different numbers of qubits."""


class InvalidMatrixError(QconvError, ValueError):
    """Matrix is not symmetric with a zero diagonal."""


class InvalidDelayError(QconvError, ValueError):
    """Delay amount would produce a negative shift."""


class DegenerateCodeError(QconvError, ValueError):
    """A generator collapsed to the identity stream."""


class InvalidCodeError(QconvError, ValueError):
    """Generators fail the commutation requirements.

    ``violations`` lists triples (i, i2, t): generator i shifted by t frames
    anticommutes with generator i2 (1-based generator indices).
    """

    def __init__(self, violations):
        self.violations = list(violations)
        listing = ", ".join(f"(h{i} shifted {t}, h{j})" for i, j, t in self.violations)
        super().__init__(f"generators do not commute under frame shifts: {listing}")


class CodeShapeError(QconvError, ValueError):
    """Rate out of range (k not in 1..n-1) or not n - k generators."""


class WindowError(QconvError, ValueError):
    """Comparison window too small for the codes under test."""


class AssemblyError(QconvError, ValueError):
    """Encoder rows violate the commutation-consistency requirement."""


class CompletionError(QconvError, ValueError):
    """Partial encoder rows are not independent, so no extension exists."""


class SynthesisFailureError(QconvError, RuntimeError):
    """No non-catastrophic row completion was found."""


class ConsistencyError(SynthesisFailureError):
    """Forward and backward memory obligations disagree on a valid code."""


class MemoryBoundError(QconvError, RuntimeError):
    """Analysis refused: memory-qubit count exceeds the configured bound."""

    def __init__(self, m: int, bound: int):
        self.m = m
        self.bound = bound
        super().__init__(f"m={m} memory qubits exceed the --max-memory bound of {bound}")
