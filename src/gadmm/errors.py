"""Exception types shared across the package."""


class GadmmError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GadmmError):
    """Invalid configuration: bad parameters, malformed instance, unusable mode."""


class NotPositiveDefiniteError(GadmmError):
    """A matrix that must be (semi)definite failed its factorization or probe."""


class IterationLimitError(GadmmError):
    """An iterative routine hit its iteration cap before converging."""


class DivergenceError(GadmmError):
    """The iteration produced a non-finite iterate; carries the first such k."""

    def __init__(self, message, *, k):
        super().__init__(message)
        self.k = k


class InternalCheckError(GadmmError):
    """An internal consistency check failed (signals a bug, not user error)."""


class CertificationError(GadmmError):
    """A recorded trajectory violated one of the certified inequalities.

    Carries the first offending iteration and the name of the violated check.
    """

    def __init__(self, message, *, k=None, check=None):
        super().__init__(message)
        self.k = k
        self.check = check
