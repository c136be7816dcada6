"""Tolerance and guard table: the tolerances of the orthonormality,
symmetry, definiteness and unit-axis checks, the singularity guard, the
IK settings, the grid size limit and the speed and chord floors.

Thresholds private to one check sit beside it: ``bodies.TRIANGLE_TOL``,
``impact.TRACE_POINTS`` and the inline tolerances of the unit direction
``effective_mass`` takes (1e-9), of ``TensorObjectConfig`` and
``ForceTrace`` (1e-12) and of ``rotation_log`` (1e-12 and 1e-6).
"""

# Orthonormality / symmetry checks on constructed matrices.
ORTHONORMAL_TOL = 1e-9
SYMMETRY_TOL = 1e-9

# Smallest singular value of the Jacobian below which the operational-space
# inertia switches to its damped form and is flagged degraded.
JACOBIAN_SINGULARITY_GUARD = 1e-6
OSI_DAMPING = 1e-4

# Most samples one trajectory grid may hold (book-fine has 200).
MAX_SAMPLES = 100_000

# Damped-least-squares inverse kinematics.
IK_MAX_ITERS = 200
IK_DAMPING = 1e-3
IK_STEP_CLAMP = 0.2        # rad, per-iteration joint-step bound
IK_POS_TOL = 1e-4          # m
IK_ROT_TOL = 1e-3          # rad

# Positive-definiteness floor for 6x6 kinetic-energy matrices.
PD_MIN_EIG = 1e-12

# Direction handling.
UNIT_NORM_TOL = 1e-6       # a joint axis norm may deviate this much from 1
ZERO_SPEED_TOL = 1e-8      # a chord (m) this short has no direction

# Contact model: an approach speed at or below this cannot drive an impact.
MIN_APPROACH_SPEED = 1e-12  # m/s
