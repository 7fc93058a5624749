"""Exception types shared across the package, each with the exit code of
``gadmm`` and the label that starts the one stderr line naming it."""


class GadmmError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2
    label = "error"


class ConfigError(GadmmError):
    """Invalid configuration: bad parameters, malformed instance, unusable mode."""

    exit_code = 1


class NotPositiveDefiniteError(GadmmError):
    """A matrix that must be (semi)definite failed its factorization or probe."""

    label = "solver error"


class IterationLimitError(GadmmError):
    """An iterative routine hit its iteration cap before converging."""

    label = "solver error"


class DivergenceError(GadmmError):
    """The iteration produced a non-finite iterate; carries the first such k."""

    label = "solver error"

    def __init__(self, message, *, k):
        super().__init__(message)
        self.k = k


class InternalCheckError(GadmmError):
    """An internal consistency check failed (signals a bug, not user error)."""

    label = "internal check failed"


class CertificationError(GadmmError):
    """A recorded trajectory violated one of the certified inequalities.

    Carries the first offending iteration and the name of the violated check.
    """

    exit_code = 3
    label = "certification failed"

    def __init__(self, message, *, k=None, check=None):
        super().__init__(message)
        self.k = k
        self.check = check
