"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """A Matsubara sum did not converge within the configured term cap.

    ``detail`` is the sum's ``LifshitzDetail``, so the caller can decide
    whether its partial value is still usable.
    """

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


class FitError(RuntimeError):
    """A least-squares fit failed (degenerate data or no convergence)."""


class ParseError(ValueError):
    """A data file could not be parsed; ``line`` is the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
