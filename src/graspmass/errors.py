"""Exception taxonomy for the grasp effective-mass workbench: a bad
argument is a ``ValueError``. A near-singular arm posture is no error or
warning, only a flag."""


class GraspmassError(Exception):
    """Base class of the errors a caller acts on by type; a bad argument
    is a plain ``ValueError`` instead."""


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


class InvalidStep(GraspmassError):
    """Sampling step outside (0, t_f], or one giving over MAX_SAMPLES."""


class DampingOutOfRange(GraspmassError):
    """A contact damping too large for the effective mass: the contact
    model squares their ratio, which would overflow."""


class StiffnessOutOfRange(GraspmassError):
    """A contact stiffness too large or too small for the effective
    mass: the contact model triples their ratio k/M and takes the
    square root of its inverse M/k, either of which would overflow."""


class ParseError(GraspmassError):
    """Scene file is not well-formed."""


class ValidationError(GraspmassError):
    """Scene content violates an invariant; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field

