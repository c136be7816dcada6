"""Serial revolute chains: kinematics, Jacobian, mass matrix, task-space inertia.

Conventions:
  - joint frame i: parent frame, then the joint's fixed parent_transform,
    then rotation by q_i about the joint axis; link i's inertia is given in
    this frame
  - end-effector frame: last joint frame composed with tool_transform
  - the joint-space mass matrix comes from composite rigid-body assembly
    with all spatial quantities referenced at the base origin, which keeps
    every 6-vector in one frame (linear first, matching the Jacobian)

Every public call makes one frame pass on raw arrays (``_frame_pass``) and
derives what it returns from it: FK, the Jacobian, the CRBA mass matrix
(Featherstone, Rigid Body Dynamics Algorithms, 2008, ch. 6), or both of
the last two for the task-space inertia; each IK iteration makes one.
Validation sits at the boundary: joint values must be finite, and each
pass checks the end-effector pose once; joint frames are not validated
one by one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .augmented import QUALITY_CLEAN, QUALITY_NEAR_SINGULAR, KineticEnergyMatrix
from .bodies import check_inertia_tensor
from .constants import (IK_DAMPING, IK_MAX_ITERS, IK_POS_TOL, IK_ROT_TOL,
                        IK_STEP_CLAMP, JACOBIAN_SINGULARITY_GUARD, OSI_DAMPING,
                        UNIT_NORM_TOL)
from .errors import (DimensionMismatch, IkDidNotConverge,
                     NearSingularConfiguration)
from .spatial import Pose, rotation_log, skew
from .spatial import _check_rotation, _frozen

_EYE3 = np.eye(3)


@dataclass(frozen=True, eq=False)
class LinkInertia:
    """Mass, CoM offset, and CoM inertia of one link, in its joint frame."""

    mass: float
    com: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")
        object.__setattr__(self, "com", _frozen(self.com, (3,), "com"))
        object.__setattr__(self, "inertia",
                           check_inertia_tensor(self.inertia, "link inertia"))


@dataclass(frozen=True, eq=False)
class JointSpec:
    """Revolute joint: fixed offset from the parent frame, then spin axis."""

    parent_transform: Pose
    axis: np.ndarray
    limits: tuple[float, float] = (-np.pi, np.pi)
    joint_type: str = "revolute"

    def __post_init__(self):
        if self.joint_type != "revolute":
            raise ValueError(f"unsupported joint type {self.joint_type!r}")
        axis = _frozen(self.axis, (3,), "axis")
        if abs(np.linalg.norm(axis) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("axis must be a unit vector")
        object.__setattr__(self, "axis", axis)
        # Rodrigues terms of the axis, reused by every frame pass
        k = skew(axis)
        k.setflags(write=False)
        k2 = k @ k
        k2.setflags(write=False)
        object.__setattr__(self, "_axis_skew", k)
        object.__setattr__(self, "_axis_skew2", k2)
        lo, hi = float(self.limits[0]), float(self.limits[1])
        if not lo < hi:
            raise ValueError("limits must satisfy min < max")
        object.__setattr__(self, "limits", (lo, hi))


@dataclass(frozen=True, eq=False)
class ChainModel:
    joints: tuple[tuple[JointSpec, LinkInertia], ...]
    base_pose: Pose
    tool_transform: Pose

    def __post_init__(self):
        joints = tuple((j, l) for j, l in self.joints)
        if not joints:
            raise ValueError("chain needs at least one joint")
        object.__setattr__(self, "joints", joints)

    @property
    def dof(self) -> int:
        return len(self.joints)

    def limits_array(self) -> np.ndarray:
        return np.array([j.limits for j, _ in self.joints])


@dataclass(frozen=True, eq=False)
class JointState:
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).copy()
        if q.ndim != 1:
            raise DimensionMismatch("q must be a 1-D vector")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


def _qvec(model: ChainModel, q) -> np.ndarray:
    v = np.asarray(q.q if isinstance(q, JointState) else q, dtype=float)
    if v.shape != (model.dof,):
        raise DimensionMismatch(f"expected {model.dof} joint values, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("joint values must be finite")
    return v


class _Frames(NamedTuple):
    """One pass over the chain, everything in base axes."""

    rotations: np.ndarray   # (n, 3, 3) joint frames, post joint rotation
    origins: np.ndarray     # (n, 3)
    axes: np.ndarray        # (n, 3) joint axes
    ee_rotation: np.ndarray
    ee_position: np.ndarray


def _frame_pass(model: ChainModel, qv: np.ndarray) -> _Frames:
    """Joint frames and the end-effector pose for validated joint values."""
    n = model.dof
    rotations = np.empty((n, 3, 3))
    origins = np.empty((n, 3))
    axes = np.empty((n, 3))
    rot, pos = model.base_pose.rotation, model.base_pose.position
    for i, ((spec, _), qi) in enumerate(zip(model.joints, qv)):
        parent = spec.parent_transform
        pos = rot @ parent.position + pos
        # Rodrigues about the joint axis
        rot = rot @ parent.rotation @ (_EYE3 + math.sin(qi) * spec._axis_skew
                                       + (1.0 - math.cos(qi)) * spec._axis_skew2)
        rotations[i] = rot
        origins[i] = pos
        axes[i] = rot @ spec.axis
    tool = model.tool_transform
    ee_position = rot @ tool.position + pos
    ee_rotation = rot @ tool.rotation
    if not np.isfinite(ee_position).all():
        raise ValueError("end-effector position must be finite")
    _check_rotation(ee_rotation, "end-effector rotation")
    return _Frames(rotations, origins, axes, ee_rotation, ee_position)


def _jacobian(frames: _Frames) -> np.ndarray:
    jac = np.empty((6, len(frames.axes)))
    jac[:3] = np.cross(frames.axes, frames.ee_position - frames.origins).T
    jac[3:] = frames.axes.T
    return jac


def _crba(model: ChainModel, frames: _Frames) -> np.ndarray:
    n = model.dof
    # motion subspace of each joint, referenced at the base origin
    subspaces = np.empty((n, 6))
    subspaces[:, :3] = np.cross(frames.origins, frames.axes)
    subspaces[:, 3:] = frames.axes
    composite = np.zeros((6, 6))
    # one buffer for each link's spatial inertia at the base origin, linear
    # rows first; filling it and adding it whole costs fewer numpy calls
    # than adding four blocks into strided views of the composite
    inertia = np.empty((6, 6))
    m = np.zeros((n, n))
    for i in range(n - 1, -1, -1):
        link = model.joints[i][1]
        rot = frames.rotations[i]
        s = skew(frames.origins[i] + rot @ link.com)
        inertia[:3, :3] = link.mass * _EYE3
        inertia[:3, 3:] = -link.mass * s
        inertia[3:, :3] = link.mass * s
        inertia[3:, 3:] = rot @ link.inertia @ rot.T - link.mass * (s @ s)
        composite += inertia
        fi = composite @ subspaces[i]
        m[i, i] = subspaces[i] @ fi
        for j in range(i - 1, -1, -1):
            m[i, j] = m[j, i] = subspaces[j] @ fi
    return (m + m.T) / 2.0


def forward_kinematics(model: ChainModel, q) -> Pose:
    frames = _frame_pass(model, _qvec(model, q))
    return Pose(frames.ee_position, frames.ee_rotation)


def geometric_jacobian(model: ChainModel, q) -> np.ndarray:
    """6 x n map from joint rates to the end-effector twist, linear rows first."""
    return _jacobian(_frame_pass(model, _qvec(model, q)))


def mass_matrix(model: ChainModel, q) -> np.ndarray:
    """Joint-space mass matrix by the composite rigid-body recursion."""
    return _crba(model, _frame_pass(model, _qvec(model, q)))


class OperationalSpaceInertia(NamedTuple):
    """Task-space kinetic-energy matrix plus the degraded-quality flag."""

    matrix: KineticEnergyMatrix
    near_singular: bool

    @property
    def quality(self) -> str:
        return QUALITY_NEAR_SINGULAR if self.near_singular else QUALITY_CLEAN


def operational_space_inertia(model: ChainModel, q) -> OperationalSpaceInertia:
    """Λ = (J M⁻¹ Jᵀ)⁻¹ at the end-effector.

    Near a Jacobian singularity (smallest singular value below the guard)
    the damped inverse (J M⁻¹ Jᵀ + λ²I)⁻¹ is returned with the flag set
    instead of failing, so trajectory profiles stay complete.
    """
    frames = _frame_pass(model, _qvec(model, q))
    jac = _jacobian(frames)
    mm = _crba(model, frames)
    a = jac @ np.linalg.solve(mm, jac.T)
    a = (a + a.T) / 2.0
    sv = np.linalg.svd(jac, compute_uv=False)
    # a chain with fewer than 6 joints never spans the task space
    sv_min = float(sv[-1]) if sv.size >= 6 else 0.0
    near = bool(sv_min < JACOBIAN_SINGULARITY_GUARD)
    if near:
        warnings.warn(f"Jacobian near singular (min sv {sv_min:.3e}); "
                      "returning damped task-space inertia",
                      NearSingularConfiguration, stacklevel=2)
        a = a + OSI_DAMPING**2 * np.eye(6)
    lam = np.linalg.inv(a)
    return OperationalSpaceInertia(KineticEnergyMatrix((lam + lam.T) / 2.0), near)


def inverse_kinematics(model: ChainModel, target: Pose, seed) -> JointState:
    """Damped least squares with step clamping and joint-limit clipping.

    Returns once position and orientation residuals are inside tolerance;
    if the target equals FK(seed) the seed comes back unchanged. After the
    iteration budget, raises with the best configuration seen.
    """
    limits = model.limits_array()
    q = np.clip(_qvec(model, seed), limits[:, 0], limits[:, 1])
    best_q, best_err = q, np.inf
    best_pos, best_rot = np.inf, np.inf
    for it in range(IK_MAX_ITERS + 1):
        frames = _frame_pass(model, q)
        e_pos = target.position - frames.ee_position
        e_rot = rotation_log(target.rotation @ frames.ee_rotation.T)
        pos_err = float(np.linalg.norm(e_pos))
        rot_err = float(np.linalg.norm(e_rot))
        if pos_err < IK_POS_TOL and rot_err < IK_ROT_TOL:
            return JointState(q)
        if pos_err + rot_err < best_err:
            best_q, best_err = q, pos_err + rot_err
            best_pos, best_rot = pos_err, rot_err
        if it == IK_MAX_ITERS:
            break
        jac = _jacobian(frames)
        err = np.concatenate([e_pos, e_rot])
        dq = jac.T @ np.linalg.solve(jac @ jac.T + IK_DAMPING**2 * np.eye(6), err)
        step = np.abs(dq).max()
        if step > IK_STEP_CLAMP:
            dq *= IK_STEP_CLAMP / step
        q = np.clip(q + dq, limits[:, 0], limits[:, 1])
    raise IkDidNotConverge(
        f"no convergence after {IK_MAX_ITERS} iterations "
        f"(position {best_pos:.3e} m, rotation {best_rot:.3e} rad)",
        best_q=JointState(best_q), pos_err=best_pos, rot_err=best_rot)
