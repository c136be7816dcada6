"""3D/6D spatial algebra: rotations, poses, twists, velocity transforms.

Conventions used across the whole library:
  * rotation matrices map local coordinates into the parent frame,
  * 6-vectors and 6x6 matrices put the linear components first,
  * Euler angles are ZYX (yaw about z, then pitch about y, then roll about x),
    stored in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ORTHONORMAL_TOL
from .errors import DimensionMismatch


def _frozen(a, shape, name) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _check_rotation(r: np.ndarray, name="rotation") -> None:
    """Checks a 3x3 rotation, or each of an (..., 3, 3) stack."""
    if np.abs(r @ np.swapaxes(r, -1, -2) - np.eye(3)).max() > ORTHONORMAL_TOL:
        raise ValueError(f"{name} is not orthonormal")
    if np.abs(np.linalg.det(r) - 1.0).max() > ORTHONORMAL_TOL:
        raise ValueError(f"{name} must have determinant +1")


def skew(r) -> np.ndarray:
    """Cross-product matrix: skew(r) @ v == np.cross(r, v).

    A (..., 3) stack of vectors gives a (..., 3, 3) stack of matrices.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-1:] != (3,):
        raise DimensionMismatch(f"expected (..., 3) vectors, got {r.shape}")
    out = np.zeros(r.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -r[..., 2], r[..., 1]
    out[..., 1, 0], out[..., 1, 2] = r[..., 2], -r[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -r[..., 1], r[..., 0]
    return out


def rotation_x(a) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(a) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(a) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_ypr(yaw, pitch, roll) -> np.ndarray:
    """ZYX rotation: Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    return rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll)


def rotation_axis_angle(axis, angle) -> np.ndarray:
    """Rodrigues formula for a unit axis."""
    k = skew(axis)
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def rotation_log(r) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (inverse of rotation_axis_angle)."""
    r = np.asarray(r, dtype=float)
    c = (np.trace(r) - 1.0) / 2.0
    c = min(1.0, max(-1.0, c))
    angle = math.acos(c)
    if angle < 1e-12:
        return np.zeros(3)
    if angle > math.pi - 1e-6:
        # Near pi the off-diagonal form is ill-conditioned; use the diagonal.
        a = np.sqrt(np.maximum(np.diag(r) - c, 0.0) / (1.0 - c))
        # Fix signs from the off-diagonal sums.
        if a[0] > 0:
            a[1] = math.copysign(a[1], r[0, 1] + r[1, 0])
            a[2] = math.copysign(a[2], r[0, 2] + r[2, 0])
        else:
            a[2] = math.copysign(a[2], r[1, 2] + r[2, 1])
        return angle * a / np.linalg.norm(a)
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return w * (angle / (2.0 * math.sin(angle)))


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: x_parent = rotation @ x_local + position."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen(self.position, (3,), "position"))
        object.__setattr__(self, "rotation", _frozen(self.rotation, (3, 3), "rotation"))
        _check_rotation(self.rotation)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.zeros(3), np.eye(3))

    @classmethod
    def from_ypr(cls, position, ypr) -> "Pose":
        yaw, pitch, roll = np.asarray(ypr, dtype=float)
        return cls(position, rotation_ypr(yaw, pitch, roll))


def pose_compose(a: Pose, b: Pose) -> Pose:
    return Pose(a.rotation @ b.position + a.position, a.rotation @ b.rotation)


def pose_inverse(a: Pose) -> Pose:
    rt = a.rotation.T
    return Pose(-(rt @ a.position), rt)


@dataclass(frozen=True, eq=False)
class Twist:
    """Spatial velocity, linear part first."""

    linear: np.ndarray
    angular: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "linear", _frozen(self.linear, (3,), "linear"))
        object.__setattr__(self, "angular", _frozen(self.angular, (3,), "angular"))


def velocity_transform(r) -> np.ndarray:
    """Block matrix [[I, skew(r)], [0, I]] shifting a twist's reference point.

    With r the vector from point B to point A (same axes), maps a twist
    referenced at A to the twist referenced at B: v_B = v_A + r x omega.
    Congruence runs the other way and moves a kinetic-energy matrix from
    B to A: lam_A = T.T @ lam_B @ T.
    """
    t = np.eye(6)
    t[:3, 3:] = skew(r)
    return t

