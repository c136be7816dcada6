"""Exception taxonomy for the grasp effective-mass workbench."""


class GraspmassError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(GraspmassError):
    """An array argument has the wrong shape or length."""


class SingularRepresentation(GraspmassError):
    """Euler-angle representation at (or numerically at) gimbal lock."""


class NotPositiveDefinite(GraspmassError):
    """A matrix required to be positive definite is not."""


class IkDidNotConverge(GraspmassError):
    """Inverse kinematics ran out of iterations.

    Carries the best-effort joint vector and the residuals at that state.
    ``sample_index`` is filled in when the failure happens while tracking a
    trajectory (0 = the initial grasp-pose solve, 1..N = trajectory samples).
    """

    def __init__(self, message, best_q=None, pos_err=None, rot_err=None,
                 sample_index=None):
        super().__init__(message)
        self.best_q = best_q
        self.pos_err = pos_err
        self.rot_err = rot_err
        self.sample_index = sample_index


class NonPositiveDuration(GraspmassError):
    """Trajectory duration must be > 0."""


class InvalidStep(GraspmassError):
    """Sampling step outside (0, t_f]."""


class DegenerateTrajectory(GraspmassError):
    """All trajectory samples are at rest; no motion direction exists."""


class RingOutOfRange(GraspmassError):
    """A tensor-object ring sits outside its cylinder."""


class EmptyInput(GraspmassError):
    """An operation requiring at least one element got none."""


class LengthMismatch(GraspmassError):
    """Profiles (or series) that must have equal length do not."""


class ParseError(GraspmassError):
    """Scene file is not well-formed."""


class ValidationError(GraspmassError):
    """Scene content violates an invariant; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class NearSingularConfiguration(UserWarning):
    """Jacobian near singular; a damped task-space inertia was returned.

    A warning, not an error: the contract is to degrade (damped inverse
    plus quality flag) rather than fail, so profiles stay complete.
    """
