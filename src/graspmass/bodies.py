"""Rigid-object inertial models and the grasp-frame transform chain.

Pipeline for one object and one grasp, all pure congruences:

  com_energy_matrix   blockdiag(m I3, I_com) at the CoM, CoM axes
  transform_to_grasp  re-expressed at the grasp origin, grasp axes

Builders for the two demo objects (a cuboid and a cross-shaped rig of five
cylinders with one sliding ring each) live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augmented import KineticEnergyMatrix
from .constants import SYMMETRY_TOL
from .errors import NotPositiveDefinite, RingOutOfRange
from .spatial import Pose, skew
from .spatial import _frozen  # shared array normalization

TRIANGLE_TOL = 1e-9


def check_inertia_tensor(inertia: np.ndarray, name: str = "inertia") -> np.ndarray:
    """Validate a 3x3 inertia tensor about a body's CoM.

    Symmetric, positive definite, and principal moments satisfying the
    triangle inequalities (each moment at most the sum of the other two),
    which every physical mass distribution obeys.
    """
    i = np.array(inertia, dtype=float)
    if i.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3")
    if np.abs(i - i.T).max() > SYMMETRY_TOL:
        raise ValueError(f"{name} must be symmetric")
    i = (i + i.T) / 2.0
    w = np.linalg.eigvalsh(i)
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"{name} must be positive definite")
    if w[0] + w[1] < w[2] - TRIANGLE_TOL:
        raise ValueError(f"{name} violates the principal-moment triangle inequality")
    i.setflags(write=False)
    return i


@dataclass(frozen=True, eq=False)
class RigidBodyInertia:
    """Mass, CoM frame (in the object's reference frame), inertia about CoM."""

    mass: float
    com_pose: Pose
    inertia: np.ndarray

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")
        object.__setattr__(self, "inertia", check_inertia_tensor(self.inertia))


@dataclass(frozen=True, eq=False)
class GraspCandidate:
    """A labeled grasp: pose of the grasp frame relative to the CoM frame."""

    id: str
    grasp_pose: Pose


@dataclass(frozen=True, eq=False)
class TensorObjectConfig:
    """Five solid cylinders forming a 3D cross, one thin ring sliding on each.

    The handle spans the x axis symmetrically (length ``handle_length``);
    four arm cylinders of length ``cylinder_length`` run outward along
    +y, -y, +z, -z from the origin. ``ring_positions`` are distances from
    the object origin along (handle x-axis, +y, -y, +z, -z); the handle
    entry may be negative, arm entries must lie in [0, cylinder_length].
    Ring positions modulate the inertia tensor at fixed total mass.
    """

    handle_length: float
    cylinder_length: float
    cylinder_mass: float
    ring_mass: float
    ring_positions: np.ndarray
    cylinder_radius: float = 0.012
    ring_radius: float = 0.035

    def __post_init__(self):
        for name in ("handle_length", "cylinder_length", "cylinder_mass",
                     "ring_mass", "cylinder_radius", "ring_radius"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        pos = _frozen(self.ring_positions, (5,), "ring_positions")
        object.__setattr__(self, "ring_positions", pos)
        if abs(pos[0]) > self.handle_length / 2.0 + 1e-12:
            raise RingOutOfRange(f"handle ring at {pos[0]} exceeds half-length "
                                 f"{self.handle_length / 2.0}")
        for k in range(1, 5):
            if not -1e-12 <= pos[k] <= self.cylinder_length + 1e-12:
                raise RingOutOfRange(f"arm ring {k} at {pos[k]} outside "
                                     f"[0, {self.cylinder_length}]")

    @property
    def total_mass(self) -> float:
        return 5.0 * self.cylinder_mass + 5.0 * self.ring_mass


def com_energy_matrix(body: RigidBodyInertia) -> KineticEnergyMatrix:
    """Kinetic-energy matrix at the CoM in CoM axes: blockdiag(m I3, I_com)."""
    m = np.zeros((6, 6))
    m[:3, :3] = body.mass * np.eye(3)
    m[3:, 3:] = body.inertia
    return KineticEnergyMatrix(m)


def transform_to_grasp(lam_ocom: KineticEnergyMatrix,
                       grasp: GraspCandidate) -> KineticEnergyMatrix:
    """Re-express a CoM energy matrix at the grasp origin, in grasp axes.

    With r the grasp origin's offset from the CoM (grasp axes), the blocks
    come out in parallel-axis form:

        [[m I3,          m skew(r)                        ],
         [m skew(r)^T,   R^T I_com R + m skew(r)^T skew(r)]]

    which equals velocity_transform(r)^T @ blockdiag(m I3, R^T I_com R)
    @ velocity_transform(r). Built block-wise so the translational block is
    exactly m I3.
    """
    rot = grasp.grasp_pose.rotation            # grasp axes -> CoM axes
    m = lam_ocom.matrix[0, 0]
    i_com = lam_ocom.ww
    r = rot.T @ grasp.grasp_pose.position      # CoM -> grasp origin, grasp axes
    s = skew(r)
    i_rot = rot.T @ i_com @ rot
    ww = i_rot + m * (s.T @ s)
    out = np.zeros((6, 6))
    out[:3, :3] = m * np.eye(3)
    out[:3, 3:] = m * s
    out[3:, :3] = m * s.T
    out[3:, 3:] = (ww + ww.T) / 2.0
    return KineticEnergyMatrix(out)


def _axisymmetric_inertia(axial: float, perp: float, axis: np.ndarray) -> np.ndarray:
    u = np.asarray(axis, dtype=float)
    return perp * np.eye(3) + (axial - perp) * np.outer(u, u)


def _cylinder_inertia(mass, radius, length, axis) -> np.ndarray:
    axial = 0.5 * mass * radius**2
    perp = mass * (3.0 * radius**2 + length**2) / 12.0
    return _axisymmetric_inertia(axial, perp, axis)


def _ring_inertia(mass, radius, axis) -> np.ndarray:
    # Thin circular ring; minor (tube) radius neglected.
    return _axisymmetric_inertia(mass * radius**2, 0.5 * mass * radius**2, axis)


def _compose_parts(parts) -> RigidBodyInertia:
    """Combine (mass, center, inertia_about_own_com) parts; object axes shared."""
    total = sum(m for m, _, _ in parts)
    com = sum(m * c for m, c, _ in parts) / total
    inertia = np.zeros((3, 3))
    for m, c, i in parts:
        d = c - com
        inertia += i + m * (float(d @ d) * np.eye(3) - np.outer(d, d))
    return RigidBodyInertia(total, Pose(com, np.eye(3)), inertia)


def build_tensor_object(cfg: TensorObjectConfig) -> RigidBodyInertia:
    """Composite inertia of the five-cylinder cross with its five rings.

    Closed-form solid-cylinder and thin-ring inertias, shifted to the
    composite centroid by the parallel-axis theorem. The returned
    ``com_pose`` locates the centroid in the object frame (origin at the
    cross center, handle along +x).
    """
    x, y, z = np.eye(3)
    arms = [y, -y, z, -z]
    parts = []
    parts.append((cfg.cylinder_mass, np.zeros(3),
                  _cylinder_inertia(cfg.cylinder_mass, cfg.cylinder_radius,
                                    cfg.handle_length, x)))
    for u in arms:
        parts.append((cfg.cylinder_mass, 0.5 * cfg.cylinder_length * u,
                      _cylinder_inertia(cfg.cylinder_mass, cfg.cylinder_radius,
                                        cfg.cylinder_length, u)))
    ring_axes = [x] + arms
    for axis, s in zip(ring_axes, cfg.ring_positions):
        parts.append((cfg.ring_mass, float(s) * axis,
                      _ring_inertia(cfg.ring_mass, cfg.ring_radius, axis)))
    return _compose_parts(parts)


def build_cuboid(mass: float, dims) -> RigidBodyInertia:
    """Homogeneous cuboid: diag(m/12 (b^2+c^2), m/12 (a^2+c^2), m/12 (a^2+b^2))."""
    a, b, c = np.asarray(dims, dtype=float)
    if not (mass > 0.0 and a > 0.0 and b > 0.0 and c > 0.0):
        raise ValueError("mass and dims must be positive")
    i = mass / 12.0 * np.diag([b**2 + c**2, a**2 + c**2, a**2 + b**2])
    return RigidBodyInertia(mass, Pose.identity(), i)
