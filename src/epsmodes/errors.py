"""Exception hierarchy shared across the package."""


class EpsmodesError(Exception):
    """Base class for all package-specific errors."""


class PlacementError(EpsmodesError):
    """A field was supplied with the wrong staggered placement."""


class GridMismatchError(EpsmodesError):
    """Two objects that must share a grid do not."""


class ProfileError(EpsmodesError):
    """Invalid medium descriptor or sampling request."""


class SolverError(EpsmodesError):
    """Iterative solver failed to reach the requested tolerance.

    Carries the best residual and the iteration count at failure.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class FeasibilityError(EpsmodesError):
    """Request exceeds what the discrete problem can provide."""


class BandCoverageError(EpsmodesError):
    """Transition frequency outside the reliable band of a mode bank."""


class IncompleteBankError(EpsmodesError):
    """Operation requires a complete (full transverse spectrum) bank."""


class BankFileError(EpsmodesError):
    """Malformed mode-bank file; names the failing byte offset when known."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ConfigError(EpsmodesError):
    """Run configuration failed schema or feasibility validation."""
