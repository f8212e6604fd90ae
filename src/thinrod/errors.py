"""Exception types shared across the package."""


class ThinRodError(Exception):
    """Base class for all thinrod errors."""


class InvalidCurve(ThinRodError):
    """Sampled curve is self-intersecting, too short, or degenerate."""


class FrameDrift(ThinRodError):
    """Frame transport lost orthonormality beyond tolerance."""


class SolverFail(ThinRodError):
    """An eigen or linear solver missed its residual target.

    carries `history`: per-iteration residual diagnostics when available.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class MultipleEigenvalue(ThinRodError):
    """Requested mode is not numerically simple; expansion refused."""


class SolvabilityViolation(ThinRodError):
    """A deflated solve received a right-hand side with a component along
    the deflated direction. Signals an inconsistency in the recurrence."""


class DegenerateReduced(ThinRodError):
    """The reduced 1D operator returned a numerically degenerate pair."""


class EpsilonOutOfRange(ThinRodError):
    """epsilon too large: the weight 1 - eps*q would drop below 1/2."""


class ConfigError(ThinRodError):
    """Configuration rejected; `path` names the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnderresolvedWindow(UserWarning):
    """Fewer direct eigenpairs computed than expansion modes requested."""
