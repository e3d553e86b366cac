"""Exception types shared across the package.

:data:`COMPUTATION_ERRORS` is what a computation on valid input may raise
when it fails: a :class:`RelMechError`, a floating-point exception
(``OverflowError`` and numpy's ``FloatingPointError`` are ``ArithmeticError``)
or a ``ValueError`` (numpy's ``LinAlgError`` is one).  Every caller that
recovers from, or reports, a failed computation catches this one tuple.
"""


class RelMechError(Exception):
    """Base class for all errors raised by relmech.

    ``tau`` carries the last good curve parameter when the error occurs
    inside an integration loop, else None.
    """

    def __init__(self, message: str, tau: float | None = None):
        super().__init__(message)
        self.tau = tau


COMPUTATION_ERRORS = (RelMechError, ArithmeticError, ValueError)


class DimensionMismatch(RelMechError):
    """An array argument has the wrong length or shape."""


class DomainError(RelMechError):
    """A point lies outside the domain of a field or chart."""


class SingularMetric(RelMechError):
    """The metric (or another required linear map) is not invertible."""


class ZeroTimeVelocity(RelMechError):
    """Cannot form three-velocities: the time component of u vanishes."""


class ConstraintUnreachable(RelMechError):
    """No four-velocity on the unit level set exists for these data."""


class ProjectiveInfinity(RelMechError):
    """The image leaves the affine chart (projective denominator ~ 0)."""


class ZeroVector(RelMechError):
    """A direction argument must be nonzero."""


class NonMonotoneTime(RelMechError):
    """Chart time samples must be strictly increasing."""


class NonPositiveG(RelMechError):
    """The velocity form G(x, u) must be positive for this operation."""


class StepRejected(RelMechError):
    """Integration produced a non-finite state."""
