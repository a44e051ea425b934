"""Exception types shared across the package.

Two families: configuration problems (bad config text, violated scenario
constraints) and computation failures (geometry that breaks the integrand,
quadrature that will not settle, singular or near-singular linear systems).
The CLI maps ConfigError to exit code 2, and ComputationError and
Python's MemoryError (an array too large to allocate) to exit code 3.

Every argument after the message has a default, so Python's own exception
pickling (type, args, ``__dict__``) carries a failure raised in a worker
process to the caller with its type, annotated message and payload.
"""


class RisMcrbError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RisMcrbError):
    """Malformed config text or a scenario constraint violation."""


class ComputationError(RisMcrbError):
    """A numerical operation could not produce a trustworthy result."""


class DegenerateGeometryError(ComputationError):
    """Wire segments overlap, so the distance kernel reaches zero."""


class ResonanceError(ComputationError):
    """sin(k0*h) is (numerically) zero; the sinusoidal current
    normalization of the impedance integrand blows up."""


class QuadratureConvergenceError(ComputationError):
    """Refinement hit its cap before successive estimates agreed."""

    def __init__(self, message, previous=None, latest=None):
        super().__init__(message)
        self.previous = previous
        self.latest = latest


class SingularModelError(ComputationError):
    """An (N x N) impedance system is singular or numerically rank
    deficient; carries the reciprocal condition estimate."""

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class DegenerateDesignError(ComputationError):
    """The model matrix is rank deficient, so least-squares
    quantities and bound traces would be numerical noise."""

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


def annotate(exc: RisMcrbError, label: str) -> RisMcrbError:
    """Prefix an error's message with a location, in place, so its type
    and payload (``rcond``, ``previous``, ``latest``) survive."""
    exc.args = (f"{label}: {exc}",)
    return exc
