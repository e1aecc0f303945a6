"""Exception types shared across the package.

Each type carries the CLI's exit code for it as ``exit_code``: parse
failures exit 1, parameter/validation failures 2, non-convergence 3.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input data (edge lists, summary files).

    The message names the 1-based line number when the line is known.
    """

    exit_code = 1

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParameterError(ValueError):
    """A caller-supplied parameter violates an operation's precondition."""

    exit_code = 2


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    ``residuals`` holds the best per-eigenpair residual norms seen, when
    available, so callers can report how close the solver got.
    """

    exit_code = 3

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals
