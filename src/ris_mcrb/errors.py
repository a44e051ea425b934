"""Exception types shared across the package.

Two families: configuration problems (bad config text, violated scenario
constraints) and computation failures (geometry that breaks the integrand,
quadrature that will not settle, singular or near-singular linear systems).
The CLI maps ConfigError to exit code 2 and ComputationError to exit code 3.
"""


class RisMcrbError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RisMcrbError):
    """Malformed config text or a scenario constraint violation."""


class ComputationError(RisMcrbError):
    """A numerical operation could not produce a trustworthy result.

    Pickling keeps the type, the (possibly annotated) message and the
    payload attributes without calling ``__init__``, so a failure raised in
    a worker process reaches the caller unchanged."""

    def __reduce__(self):
        return _rebuild, (type(self), self.args), self.__dict__


class DegenerateGeometryError(ComputationError):
    """Wire segments overlap, so the distance kernel reaches zero."""


class ResonanceError(ComputationError):
    """sin(k0*h) is (numerically) zero; the sinusoidal current
    normalization of the impedance integrand blows up."""


class QuadratureConvergenceError(ComputationError):
    """Refinement hit its cap before successive estimates agreed."""

    def __init__(self, message, previous, latest):
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


def _rebuild(cls, args):
    exc = cls.__new__(cls)
    exc.args = args
    return exc


def annotate(exc: RisMcrbError, label: str) -> RisMcrbError:
    """Prefix an error's message with a location, in place, so its type
    and payload (``rcond``, ``previous``, ``latest``) survive."""
    exc.args = (f"{label}: {exc}",)
    return exc
