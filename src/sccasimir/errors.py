"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """A Matsubara sum did not converge within the configured term cap.

    Carries the partial result and the tolerance actually achieved so the
    caller can decide whether the partial value is still usable.
    """

    def __init__(self, message, partial, achieved_rel, n_terms):
        super().__init__(message)
        self.partial = partial
        self.achieved_rel = achieved_rel
        self.n_terms = n_terms


class FitError(RuntimeError):
    """A least-squares fit failed (degenerate data or no convergence)."""


class ParseError(ValueError):
    """A data file could not be parsed; ``line`` is the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
