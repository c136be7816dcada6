"""Augmented robot+object model and directional effective mass.

The 6x6 kinetic-energy matrix L pairs a twist u with energy 1/2 u^T L u.
Blocks, linear components first:

    L = [[L_u,    L_uw],
         [L_uw^T, L_w ]]

The effective mass along a unit direction v is 1/(v^T [L^-1]_uu v): the
scalar mass the environment feels when the reference point is struck along
v. It must be computed from the inverse's top-left block (the inverse of
the Schur complement L_u - L_uw L_w^-1 L_uw^T), never from L_u alone.
``effective_masses`` computes it for a stack, by solves with no explicit
inverse; the pipeline calls it, and ``effective_mass`` is the float it
gives on a stack of one.

Definiteness is checked by Cholesky, never by eigenvalues: a stack is
positive semidefinite within the floor when m + PD_MIN_EIG I factors
(``checked_energy_matrices``) and strictly positive definite when
L - PD_MIN_EIG I factors (``effective_masses``). Cholesky reads one
triangle only and factors NaN without failing, so both test that every
entry is finite first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PD_MIN_EIG, SYMMETRY_TOL
from .errors import NotPositiveDefinite
from .spatial import _check_rotation

_EYE6 = np.eye(6)


def _factors(m: np.ndarray) -> bool:
    """True when Cholesky factors every matrix of the stack."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def checked_energy_matrices(m: np.ndarray) -> np.ndarray:
    """Symmetrized copy of a 6x6 matrix or an (..., 6, 6) stack.

    Raises unless every entry is finite, every matrix is symmetric within
    SYMMETRY_TOL and m + PD_MIN_EIG I factors, i.e. no eigenvalue is
    below -PD_MIN_EIG.
    """
    if not np.isfinite(m).all():
        raise ValueError("kinetic-energy matrix must be finite")
    m_t = np.swapaxes(m, -1, -2)
    if (np.abs(m - m_t) > SYMMETRY_TOL).any():
        raise ValueError("kinetic-energy matrix must be symmetric")
    m = (m + m_t) / 2.0
    if not _factors(m + PD_MIN_EIG * _EYE6):
        raise NotPositiveDefinite("kinetic-energy matrix has negative eigenvalue")
    return m


@dataclass(frozen=True, eq=False)
class KineticEnergyMatrix:
    """Symmetric positive-semidefinite 6x6 energy matrix.

    Normal pipeline products are strictly positive definite; an exactly
    zero matrix is tolerated at construction so a no-load augmentation is
    expressible. Operations that need strict definiteness check it
    themselves (effective_masses).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (6, 6):
            raise ValueError(f"expected 6x6, got {m.shape}")
        m = checked_energy_matrices(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def expressed_in(self, rotation: np.ndarray) -> "KineticEnergyMatrix":
        """Re-express in a rotated frame.

        ``rotation`` maps this matrix's coordinates into the target frame
        (same reference point). Energy is preserved: this is a congruence by
        blockdiag(R, R), so R must be a rotation.
        """
        _check_rotation(rotation)
        q = np.zeros((6, 6))
        q[:3, :3] = rotation
        q[3:, 3:] = rotation
        return KineticEnergyMatrix(q @ self.matrix @ q.T)


def augment(lam_robot: KineticEnergyMatrix, lam_obj: KineticEnergyMatrix) -> KineticEnergyMatrix:
    """Total kinetic-energy matrix of the robot rigidly holding the object.

    Both operands must be expressed at the same reference point, in the same
    axes and the same coordinate representation; then the matrices simply
    add.
    """
    return KineticEnergyMatrix(lam_robot.matrix + lam_obj.matrix)


def effective_masses(lam_tot: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Effective masses (N,) of a positive-definite (N, 6, 6) stack.

    Raises unless every entry is finite and L - PD_MIN_EIG I factors for
    every L, i.e. every eigenvalue is above PD_MIN_EIG."""
    if not np.isfinite(lam_tot).all():
        raise ValueError("augmented matrix must be finite")
    if not _factors(lam_tot - PD_MIN_EIG * _EYE6):
        raise NotPositiveDefinite("augmented matrix not positive definite; "
                                  "cannot invert")
    # [v, 0] as one (1, 6, 1) matrix: numpy 1 and 2 broadcast it alike
    rhs = np.concatenate([v, np.zeros(3)])[None, :, None]
    # [L^-1]_uu v is the top half of L^-1 [v, 0]; einsum sums each dot in
    # the order of the per-matrix products (x @ v does not)
    x = np.linalg.solve(lam_tot, rhs)[:, :3, 0]
    return 1.0 / np.einsum("ni,i->n", x, v)


def effective_mass(lam_tot: KineticEnergyMatrix, v) -> float:
    """Effective mass in kg of the system along the unit direction v; any
    other direction, zero included, is refused before the solve."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:   # NaN is refused too
        raise ValueError("direction must be a unit vector")
    return float(effective_masses(lam_tot.matrix[None], v)[0])
