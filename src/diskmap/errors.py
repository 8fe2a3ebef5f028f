"""Exception taxonomy shared across the package.

The CLI maps these to exit codes: bad input/config -> 2, a computation that
ran but failed its contract (divergence, failed certificate) -> 1.
"""


class DiskmapError(Exception):
    """Base class for package-specific failures."""


class ConfigError(DiskmapError):
    """Malformed configuration, unknown key, or unreadable input file."""


class DivergenceError(DiskmapError):
    """A non-finite update or mixing system, or an update past the divergence guard."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class NonFiniteWeightError(DiskmapError, ValueError):
    """A weight field met a NaN or infinite value in the middle of a computation."""


class NotUnivalentError(DiskmapError):
    """A certificate that needs an injective boundary was given a folded one."""


class DegenerateBoundaryError(DiskmapError):
    """Boundary data hits a zero where a logarithm or quotient is needed."""


class EmptyIntersectionError(DiskmapError):
    """Region intersection does not contain the basepoint."""


class InvalidSequenceError(DiskmapError):
    """Region family is not strictly shrinking at raster scale."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
