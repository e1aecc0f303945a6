"""Exception types shared across the package.

The CLI maps these onto process exit codes: parse failures exit 1,
parameter/validation failures exit 2, solver non-convergence exits 3.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input data (edge lists, summary files).

    The message names the 1-based line number when the line is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParameterError(ValueError):
    """A caller-supplied parameter violates an operation's precondition."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    ``residuals`` holds the best per-eigenpair residual norms seen, when
    available, so callers can report how close the solver got.
    """

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals
