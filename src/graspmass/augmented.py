"""Augmented robot+object model and directional effective mass.

The 6x6 kinetic-energy matrix L pairs a twist u with energy 1/2 u^T L u.
Blocks, linear components first:

    L = [[L_u,    L_uw],
         [L_uw^T, L_w ]]

The effective mass along a unit direction v is 1/(v^T [L^-1]_uu v): the
scalar mass the environment feels when the reference point is struck along
v. It must be computed from the inverse's top-left block (the inverse of
the Schur complement L_u - L_uw L_w^-1 L_uw^T), never from L_u alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import PD_MIN_EIG, SYMMETRY_TOL, UNIT_NORM_TOL
from .errors import DimensionMismatch, NotPositiveDefinite

def checked_energy_matrices(m: np.ndarray) -> np.ndarray:
    """Symmetrized copy of a 6x6 matrix or an (..., 6, 6) stack.

    Raises unless every matrix is symmetric within SYMMETRY_TOL and its
    smallest eigenvalue is at least -PD_MIN_EIG.
    """
    m_t = np.swapaxes(m, -1, -2)
    if np.abs(m - m_t).max() > SYMMETRY_TOL:
        raise ValueError("kinetic-energy matrix must be symmetric")
    m = (m + m_t) / 2.0
    if np.linalg.eigvalsh(m)[..., 0].min() < -PD_MIN_EIG:
        raise NotPositiveDefinite("kinetic-energy matrix has negative eigenvalue")
    return m


@dataclass(frozen=True, eq=False)
class KineticEnergyMatrix:
    """Symmetric positive-semidefinite 6x6 energy matrix.

    Normal pipeline products are strictly positive definite; an exactly
    zero matrix is tolerated at construction so a no-load augmentation is
    expressible. Operations that need strict definiteness check it
    themselves (partition_inverse).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (6, 6):
            raise DimensionMismatch(f"expected 6x6, got {m.shape}")
        m = checked_energy_matrices(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def ww(self) -> np.ndarray:
        return self.matrix[3:, 3:]

    def expressed_in(self, rotation: np.ndarray) -> "KineticEnergyMatrix":
        """Re-express in a rotated frame.

        ``rotation`` maps this matrix's coordinates into the target frame
        (same reference point). Energy is preserved: this is a congruence by
        blockdiag(R, R).
        """
        q = np.zeros((6, 6))
        q[:3, :3] = rotation
        q[3:, 3:] = rotation
        return KineticEnergyMatrix(q @ self.matrix @ q.T)


@dataclass(frozen=True, eq=False)
class EffectiveMass:
    """Directional effective mass in kg along a unit direction."""

    value: float
    direction: np.ndarray

    def __post_init__(self):
        d = np.array(self.direction, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)
        if not self.value > 0.0:
            raise ValueError("effective mass must be positive")
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise ValueError("direction must be a unit vector")


def augment(lam_robot: KineticEnergyMatrix, lam_obj: KineticEnergyMatrix) -> KineticEnergyMatrix:
    """Total kinetic-energy matrix of the robot rigidly holding the object.

    Both operands must be expressed at the same reference point, in the same
    axes and the same coordinate representation; then the matrices simply
    add.
    """
    return KineticEnergyMatrix(lam_robot.matrix + lam_obj.matrix)


def partition_inverse(lam_tot: KineticEnergyMatrix):
    """Blocks of the full inverse: (top-left 3x3, top-right 3x3, bottom-right 3x3).

    The top-left block equals the inverse of the Schur complement of the
    angular block. Raises NotPositiveDefinite when the matrix is not
    strictly positive definite.
    """
    m = lam_tot.matrix
    if np.linalg.eigvalsh(m)[0] <= PD_MIN_EIG:
        raise NotPositiveDefinite("matrix not positive definite; cannot invert")
    inv = np.linalg.inv(m)
    inv = (inv + inv.T) / 2.0
    return inv[:3, :3], inv[:3, 3:], inv[3:, 3:]


def effective_mass(lam_tot: KineticEnergyMatrix, v) -> EffectiveMass:
    """Effective mass of the system along direction v.

    Non-unit v is normalized with a warning; a zero vector is rejected.
    """
    v = unit_direction(v)
    lam_u_inv, _, _ = partition_inverse(lam_tot)
    return EffectiveMass(1.0 / float(v @ lam_u_inv @ v), v)


def unit_direction(v) -> np.ndarray:
    """Unit copy of a 3-vector; warns when it rescales, rejects zero."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionMismatch("direction must be a 3-vector")
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(n - 1.0) > UNIT_NORM_TOL:
        warnings.warn("direction not unit norm; normalizing", stacklevel=3)
    return v / n
