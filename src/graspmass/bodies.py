"""Rigid-object inertial models and the object terms of the grasps.

The object term of a grasp is the held body's kinetic-energy matrix at
the grasp origin, in base axes. ``grasp_energy_matrices`` builds the
terms of G bodies held at G grasps in one step, straight from each
body's mass m and CoM inertia I_com: blockdiag(m I3, I_com)
re-expressed at the grasp origin in grasp axes (parallel-axis form),
checked once as one (G, 6, 6) stack (``checked_energy_matrices``), then
turned into base axes by the held rotation. ``com_energy_matrix`` and
``transform_to_grasp`` are blockdiag(m I3, I_com) and the congruence to
the grasp frame on one body, and share the congruence's code.

Builders for the two demo objects (a cuboid and a cross-shaped rig of five
cylinders with one sliding ring each) live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augmented import KineticEnergyMatrix, checked_energy_matrices
from .constants import SYMMETRY_TOL
from .errors import NotPositiveDefinite
from .spatial import Pose, skew
from .spatial import _frozen  # shared array normalization

TRIANGLE_TOL = 1e-9


def check_mass(mass, name: str = "mass") -> None:
    """Refuse a body mass unless it is positive and twice it is finite:
    an energy matrix holding it is symmetrized as (L + L^T) / 2."""
    if not 0.0 < 2.0 * float(mass) < math.inf:
        raise ValueError(f"{name} must be positive and below half the "
                         "float range")


def check_inertia_tensor(inertia: np.ndarray, name: str = "inertia") -> np.ndarray:
    """Validate a 3x3 inertia tensor about a body's CoM.

    Finite, symmetric, positive definite, and principal moments satisfying
    the triangle inequalities (each moment at most the sum of the other
    two), which every physical mass distribution obeys.
    """
    i = np.array(inertia, dtype=float)
    if i.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3")
    if not np.isfinite(i).all():
        raise ValueError(f"{name} must be finite")
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
        check_mass(self.mass)
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
            raise ValueError(f"handle ring at {pos[0]} exceeds half-length "
                             f"{self.handle_length / 2.0}")
        for k in range(1, 5):
            if not -1e-12 <= pos[k] <= self.cylinder_length + 1e-12:
                raise ValueError(f"arm ring {k} at {pos[k]} outside "
                                 f"[0, {self.cylinder_length}]")


def _at_grasps(masses: np.ndarray, inertias: np.ndarray,
               rotations: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Checked (G, 6, 6) stack: each body's blockdiag(m I3, I_com) at its
    grasp origin, in grasp axes (``transform_to_grasp``)."""
    rot_t = rotations.swapaxes(1, 2)           # CoM axes -> grasp axes
    m = masses[:, None, None]
    # the grasp origin's offset from the CoM, in grasp axes
    r = (rot_t @ positions[:, :, None])[:, :, 0]
    s = skew(r)
    s_t = s.swapaxes(1, 2)
    ww = rot_t @ inertias @ rotations + m * (s_t @ s)
    out = np.zeros((len(masses), 6, 6))
    out[:, :3, :3] = m * np.eye(3)
    out[:, :3, 3:] = m * s
    out[:, 3:, :3] = m * s_t
    out[:, 3:, 3:] = (ww + ww.swapaxes(1, 2)) / 2.0
    return checked_energy_matrices(out)


def grasp_energy_matrices(bodies, grasps, rotation) -> np.ndarray:
    """Object terms of G grasps as one read-only (G, 6, 6) stack in base
    axes: body k's energy matrix at grasp k's origin, turned by
    blockdiag(R, R) with R = ``rotation`` (grasp axes -> base axes).
    ``bodies`` and ``grasps`` are aligned sequences of equal length."""
    # reshape keeps the stack axes when there are no grasps
    masses = np.array([b.mass for b in bodies], dtype=float)
    inertias = np.array([b.inertia for b in bodies]).reshape(-1, 3, 3)
    poses = [g.grasp_pose for g in grasps]
    rotations = np.array([p.rotation for p in poses]).reshape(-1, 3, 3)
    positions = np.array([p.position for p in poses]).reshape(-1, 3)
    rot = np.zeros((6, 6))
    rot[:3, :3] = rot[3:, 3:] = rotation
    terms = np.einsum("ij,gjk,lk->gil", rot,
                      _at_grasps(masses, inertias, rotations, positions), rot)
    terms.setflags(write=False)
    return terms


def com_energy_matrix(body: RigidBodyInertia) -> KineticEnergyMatrix:
    """Kinetic-energy matrix at the CoM in CoM axes: blockdiag(m I3, I_com)."""
    m = np.zeros((6, 6))
    m[:3, :3] = body.mass * np.eye(3)
    m[3:, 3:] = body.inertia
    return KineticEnergyMatrix(m)


def transform_to_grasp(lam_ocom: KineticEnergyMatrix,
                       grasp: GraspCandidate) -> KineticEnergyMatrix:
    """Re-express a CoM energy matrix at the grasp origin, in grasp axes.

    With R the grasp rotation (grasp axes -> CoM axes) and r the grasp
    origin's offset from the CoM (grasp axes), the blocks come out in
    parallel-axis form:

        [[m I3,          m skew(r)                        ],
         [m skew(r)^T,   R^T I_com R + m skew(r)^T skew(r)]]

    which equals T^T @ blockdiag(m I3, R^T I_com R) @ T with T = [[I3,
    skew(r)], [0, I3]], the tests' oracle ``velocity_transform``. Built
    block-wise so the translational block is exactly m I3; this is the
    congruence of ``grasp_energy_matrices`` on a stack of one, which
    reads only m and I_com: any other matrix is refused.
    """
    m = lam_ocom.matrix
    if m[:3, 3:].any() or not np.array_equal(m[:3, :3], m[0, 0] * np.eye(3)):
        raise ValueError("lam_ocom must be blockdiag(m I3, I_com), "
                         "as com_energy_matrix returns")
    r, p = grasp.grasp_pose.rotation, grasp.grasp_pose.position
    return KineticEnergyMatrix(_at_grasps(m[:1, 0], m[None, 3:, 3:],
                                          r[None], p[None])[0])


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
