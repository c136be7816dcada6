"""Central tolerance and guard table.

Every numeric threshold used by the library lives here so the guards stay
consistent across modules and are easy to audit.
"""

# Orthonormality / symmetry checks on constructed matrices.
ORTHONORMAL_TOL = 1e-9
SYMMETRY_TOL = 1e-9

# Representation-singularity guard: |cos(pitch)| below this is gimbal lock.
EULER_SINGULARITY_GUARD = 1e-6

# Smallest singular value of the Jacobian below which the operational-space
# inertia switches to its damped form and is flagged degraded.
JACOBIAN_SINGULARITY_GUARD = 1e-6
OSI_DAMPING = 1e-4

# Damped-least-squares inverse kinematics.
IK_MAX_ITERS = 200
IK_DAMPING = 1e-3
IK_STEP_CLAMP = 0.2        # rad, per-iteration joint-step bound
IK_POS_TOL = 1e-4          # m
IK_ROT_TOL = 1e-3          # rad

# Positive-definiteness floor for 6x6 kinetic-energy matrices.
PD_MIN_EIG = 1e-12

# Direction handling.
UNIT_NORM_TOL = 1e-6       # |v| may deviate this much before a warning
ZERO_SPEED_TOL = 1e-8      # below this a sample counts as at rest

# Contact model: an approach speed at or below this cannot drive an impact.
MIN_APPROACH_SPEED = 1e-12  # m/s

# Fixed-format CSV output.
CSV_SIG_DIGITS = 9
