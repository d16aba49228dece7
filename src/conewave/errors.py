"""Exception and warning types shared across the package."""


class NumericsError(Exception):
    """Base class for all numerical failures raised by this package."""


class DomainError(NumericsError):
    """Argument outside the admissible domain of an operation."""


class GridSizeError(DomainError):
    """A grid size that ``collocation.build`` cannot use at this d; the
    command line treats it as a configuration error (exit 64)."""


class PoleError(NumericsError):
    """Evaluation requested at (or too close to) a pole."""


class ParamError(NumericsError):
    """Parameter combination for which the object is undefined."""


class IndexCollisionError(NumericsError):
    """Frobenius indices collide; the requested branch is degenerate."""


class StepFailure(NumericsError):
    """Adaptive integrator step size underflowed."""


class NearEigenvalueError(NumericsError):
    """Resolvent construction attempted too close to an eigenvalue."""


class QuadratureError(NumericsError):
    """An endpoint integral failed to converge."""


class ContourTooCloseError(NumericsError):
    """A scan rectangle edge passes too close to a root of the indicator."""


class EigensolverFailure(NumericsError):
    """Dense eigenvalue iteration did not converge."""


class DegenerateEigenvalueError(NumericsError):
    """The unstable eigenvalue is not simple on the discrete level."""


class NoBracketError(NumericsError):
    """The gauge-mode coefficient has the same sign at both ends of the
    blowup-time bracket 1 +/- delta."""


class SecantFailure(NumericsError):
    """The blowup-time secant did not converge; names the last pair."""


class TruncationWarning(UserWarning):
    """Contour truncation tail estimate is not negligible."""


class NotConvergedWarning(UserWarning):
    """Time horizon too small: the trailing segment still contributes."""
