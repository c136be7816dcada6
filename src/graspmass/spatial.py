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

from .constants import EULER_SINGULARITY_GUARD, ORTHONORMAL_TOL
from .errors import DimensionMismatch, SingularRepresentation


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


def ypr_from_rotation(r) -> np.ndarray:
    """Extract (yaw, pitch, roll) with pitch inside (-pi/2, pi/2).

    Raises SingularRepresentation within the gimbal-lock guard, where yaw and
    roll are no longer separable.
    """
    r = np.asarray(r, dtype=float)
    sp = -r[2, 0]
    sp = min(1.0, max(-1.0, sp))
    pitch = math.asin(sp)
    if abs(math.cos(pitch)) < EULER_SINGULARITY_GUARD:
        raise SingularRepresentation("pitch at +/-pi/2: yaw/roll not separable")
    yaw = math.atan2(r[1, 0], r[0, 0])
    roll = math.atan2(r[2, 1], r[2, 2])
    return np.array([yaw, pitch, roll])


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

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.linear, self.angular])


@dataclass(frozen=True, eq=False)
class OperationalCoords:
    """Minimal task-space coordinates: position plus ZYX Euler angles."""

    position: np.ndarray
    euler: np.ndarray  # (yaw, pitch, roll)

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen(self.position, (3,), "position"))
        object.__setattr__(self, "euler", _frozen(self.euler, (3,), "euler"))

    @classmethod
    def from_pose(cls, pose: Pose) -> "OperationalCoords":
        return cls(pose.position, ypr_from_rotation(pose.rotation))

    def rotation(self) -> np.ndarray:
        yaw, pitch, roll = self.euler
        return rotation_ypr(yaw, pitch, roll)


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


def euler_rate_map(coords: OperationalCoords) -> np.ndarray:
    """E = blockdiag(I3, B): operational-coordinate rates to twist.

    B maps ZYX Euler-angle rates (yaw', pitch', roll') to the angular
    velocity expressed in the reference frame, so B @ euler_rates equals
    vee(R' @ R.T) along any smooth curve. Singular at pitch +/- pi/2.
    """
    yaw, pitch, _ = coords.euler
    cp = math.cos(pitch)
    if abs(cp) < EULER_SINGULARITY_GUARD:
        raise SingularRepresentation("euler_rate_map undefined at pitch +/-pi/2")
    cy, sy = math.cos(yaw), math.sin(yaw)
    b = np.array([[0.0, -sy, cy * cp],
                  [0.0, cy, sy * cp],
                  [1.0, 0.0, -math.sin(pitch)]])
    e = np.eye(6)
    e[3:, 3:] = b
    return e
