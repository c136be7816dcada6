"""Serial revolute chains: kinematics, Jacobian, mass matrix, task-space inertia.

Conventions:
  - joint frame i: parent frame, then the joint's fixed parent_transform,
    then rotation by q_i about the joint axis; link i's inertia is given in
    this frame
  - end-effector frame: last joint frame composed with tool_transform
  - the joint-space mass matrix comes from composite rigid-body assembly
    with all spatial quantities referenced at the base origin, which keeps
    every 6-vector in one frame (linear first, matching the Jacobian)

One frame pass on raw arrays (``_frame_pass``) gives the joint frames
and end-effector poses of one configuration, shape (n,), or of a stack,
shape (S, n); the Jacobians (``_jacobian``) take either pass, and row k
of a stack's pass and Jacobians holds the bits of those at its k-th
configuration. FK, the Jacobian and each IK iteration run on the one
configuration, without a batch axis. The CRBA mass matrices
(Featherstone, Rigid Body Dynamics Algorithms, 2008, ch. 6) and the
task-space inertias are built on stacks; the single-configuration mass
matrix and task-space inertia use a stack of one. The pass loops over
the joints once, for the rotations; the joint origins are one batched
product of the parent offsets by the preceding frames and one running
sum in joint order, the additions of pose composition in its order.
``operational_space_inertias`` returns the task-space inertia of a whole
stack, with a read-only bool array that flags each configuration near a
Jacobian singularity (damped, not inverted exactly).

Validation sits at the boundary, once per call: joint values must be
finite, and the end-effector rotation of each pass that reaches a
result must be orthonormal (``_checked``: the public calls and
``inverse_kinematics`` check theirs). The passes of intermediate IK
iterates, which are thrown away, and the joint frames are not checked.

``inverse_kinematics`` wraps ``_ik``, which works on arrays and returns
the converged configuration with its frame pass. Each iteration does
its arithmetic on plain floats and small arrays (residual norms as
``sqrt(e @ e)``, the bits of ``np.linalg.norm``). A warm-started sweep
hands that pass to the next solve, which then skips the pass at its
seed, and gets the task-space inertia of all its converged joint values
from ``operational_space_inertias``, one pass over the stack. Its flag
array is the one that every grasp's profile carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .augmented import KineticEnergyMatrix, checked_energy_matrices
from .bodies import check_inertia_tensor
from .constants import (IK_DAMPING, IK_MAX_ITERS, IK_POS_TOL, IK_ROT_TOL,
                        IK_STEP_CLAMP, JACOBIAN_SINGULARITY_GUARD, OSI_DAMPING,
                        UNIT_NORM_TOL)
from .errors import DimensionMismatch, IkDidNotConverge
from .spatial import Pose, _check_rotation, _frozen, rotation_log, skew

_EYE3 = np.eye(3)
_EYE6 = np.eye(6)
_IK_DAMPING_EYE6 = IK_DAMPING**2 * _EYE6


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

    def __post_init__(self):
        axis = _frozen(self.axis, (3,), "axis")
        norm = np.linalg.norm(axis)
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError("axis must be a unit vector")
        # a near-unit axis would make Rodrigues spins that are not
        # rotations; a unit one divides exactly
        axis = axis / norm
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        lo, hi = float(self.limits[0]), float(self.limits[1])
        if not lo < hi:
            raise ValueError("limits must satisfy min < max")
        object.__setattr__(self, "limits", (lo, hi))


class _ChainArrays(NamedTuple):
    """Per-joint constants stacked along a leading joint axis (n, ...)."""

    parent_positions: np.ndarray
    parent_rotations: np.ndarray
    axes: np.ndarray
    axis_skews: np.ndarray      # Rodrigues terms K and K @ K of each axis
    axis_skews2: np.ndarray
    lower: np.ndarray           # joint limits
    upper: np.ndarray

    @classmethod
    def of(cls, joints) -> "_ChainArrays":
        skews = skew([j.axis for j, _ in joints])
        limits = np.array([j.limits for j, _ in joints])
        arrays = cls(
            np.array([j.parent_transform.position for j, _ in joints]),
            np.array([j.parent_transform.rotation for j, _ in joints]),
            np.array([j.axis for j, _ in joints]),
            skews, skews @ skews, limits[:, 0].copy(), limits[:, 1].copy())
        for a in arrays:
            a.setflags(write=False)
        return arrays


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
        object.__setattr__(self, "_arrays", _ChainArrays.of(joints))

    @property
    def dof(self) -> int:
        return len(self.joints)

    def limits_array(self) -> np.ndarray:
        return np.column_stack((self._arrays.lower, self._arrays.upper))


@dataclass(frozen=True, eq=False)
class JointState:
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).copy()
        if q.ndim != 1:
            raise DimensionMismatch("q must be a 1-D vector")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


def _qstack(model: ChainModel, qs) -> np.ndarray:
    """Joint values of S configurations as a validated (S, n) stack."""
    v = np.asarray(qs, dtype=float)
    if v.ndim != 2 or v.shape[1] != model.dof or not len(v):
        raise DimensionMismatch(
            f"expected (S, {model.dof}) joint values, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("joint values must be finite")
    return v


def _qvec(model: ChainModel, q) -> np.ndarray:
    """One configuration as a validated (n,) vector."""
    v = np.asarray(q.q if isinstance(q, JointState) else q, dtype=float)
    if v.shape != (model.dof,):
        raise DimensionMismatch(f"expected {model.dof} joint values, got {v.shape}")
    return _qstack(model, v[None])[0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross over the last axis of (..., 3) stacks: the same products
    and differences, without its axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


class _Frames(NamedTuple):
    """One pass over the chain, all in base axes; ``...`` is () for one
    configuration and (S,) for a stack."""

    rotations: np.ndarray    # (..., n, 3, 3) joint frames, post joint rotation
    origins: np.ndarray      # (..., n, 3)
    axes: np.ndarray         # (..., n, 3) joint axes
    ee_rotation: np.ndarray  # (..., 3, 3)
    ee_position: np.ndarray  # (..., 3)


def _frame_pass(model: ChainModel, qs: np.ndarray) -> _Frames:
    """Joint frames and end-effector poses for validated joint values, one
    configuration (n,) or a stack (S, n); row k of a stack's pass holds
    the bits of the pass at ``qs[k]``.

    The end-effector rotation is not checked here: callers check the
    passes that reach a result (``_checked``)."""
    arrays = model._arrays
    # Rodrigues about each joint axis, all joints and samples at once
    spins = (_EYE3 + np.sin(qs)[..., None, None] * arrays.axis_skews
             + (1.0 - np.cos(qs))[..., None, None] * arrays.axis_skews2)
    rotations = np.empty(spins.shape)
    base = model.base_pose
    rot = base.rotation
    for i in range(model.dof):
        rot = rot @ arrays.parent_rotations[i] @ spins[..., i, :, :]
        rotations[..., i, :, :] = rot
    # joint i's offset in base axes, by the frame before it; then each
    # origin is the previous one plus its offset, summed in joint order
    preceding = np.empty(rotations.shape)
    preceding[..., 0, :, :] = base.rotation
    preceding[..., 1:, :, :] = rotations[..., :-1, :, :]
    origins = (preceding @ arrays.parent_positions[..., None])[..., 0]
    origins[..., 0, :] += base.position
    origins = np.cumsum(origins, axis=-2)
    axes = (rotations @ arrays.axes[..., None])[..., 0]
    tool = model.tool_transform
    ee_position = rot @ tool.position + origins[..., -1, :]
    ee_rotation = rot @ tool.rotation
    if not np.isfinite(ee_position).all():
        raise ValueError("end-effector position must be finite")
    return _Frames(rotations, origins, axes, ee_rotation, ee_position)


def _checked(frames: _Frames) -> _Frames:
    """The pass, once every end-effector rotation in it is checked."""
    _check_rotation(frames.ee_rotation, "end-effector rotation")
    return frames


def _jacobian(frames: _Frames) -> np.ndarray:
    """(..., 6, n) geometric Jacobians of a pass, linear rows first."""
    axes = frames.axes
    jac = np.empty(axes.shape[:-2] + (6, axes.shape[-2]))
    jac[..., :3, :] = _cross(axes, frames.ee_position[..., None, :]
                             - frames.origins).swapaxes(-1, -2)
    jac[..., 3:, :] = axes.swapaxes(-1, -2)
    return jac


def _crba(model: ChainModel, frames: _Frames) -> np.ndarray:
    """(S, n, n) joint-space mass matrices of a stack's pass by the
    composite rigid-body recursion, spatial quantities referenced at the
    base origin."""
    s_count, n = frames.axes.shape[:2]
    # motion subspace of each joint, referenced at the base origin
    subspaces = np.empty((s_count, n, 6))
    subspaces[..., :3] = _cross(frames.origins, frames.axes)
    subspaces[..., 3:] = frames.axes
    composite = np.zeros((s_count, 6, 6))
    # one buffer for each link's spatial inertia at the base origin, linear
    # rows first; one link at a time keeps the stacks at (S, 6, 6)
    inertia = np.empty((s_count, 6, 6))
    m = np.empty((s_count, n, n))
    for i in range(n - 1, -1, -1):
        link = model.joints[i][1]
        rot = frames.rotations[:, i]
        s = skew(frames.origins[:, i] + rot @ link.com)
        inertia[:, :3, :3] = link.mass * _EYE3
        inertia[:, :3, 3:] = -link.mass * s
        inertia[:, 3:, :3] = link.mass * s
        inertia[:, 3:, 3:] = (rot @ link.inertia @ rot.swapaxes(1, 2)
                              - link.mass * (s @ s))
        composite += inertia
        fi = composite @ subspaces[:, i, :, None]
        # S_j . f_i for j <= i as batched matmul, which sums each dot in
        # the order the single-vector product does (einsum does not)
        row = (subspaces[:, :i + 1, None, :] @ fi[:, None])[:, :, 0, 0]
        m[:, i, :i + 1] = row
        m[:, :i + 1, i] = row
    return m


def forward_kinematics(model: ChainModel, q) -> Pose:
    frames = _checked(_frame_pass(model, _qvec(model, q)))
    return Pose(frames.ee_position, frames.ee_rotation)


def geometric_jacobian(model: ChainModel, q) -> np.ndarray:
    """6 x n map from joint rates to the end-effector twist, linear rows first."""
    return _jacobian(_checked(_frame_pass(model, _qvec(model, q))))


def mass_matrix(model: ChainModel, q) -> np.ndarray:
    """Joint-space mass matrix by the composite rigid-body recursion."""
    return _crba(model,
                 _checked(_frame_pass(model, _qvec(model, q)[None])))[0]


class OperationalSpaceInertia(NamedTuple):
    """Task-space kinetic-energy matrix plus the near-singular flag."""

    matrix: KineticEnergyMatrix
    near_singular: bool


class OperationalSpaceInertias(NamedTuple):
    """Task-space inertias of S configurations: (S, 6, 6) checked energy
    matrices and (S,) bool near-singular flags, both read-only."""

    matrices: np.ndarray
    near_singular: np.ndarray


def _stacked_inertias(model: ChainModel,
                      frames: _Frames) -> OperationalSpaceInertias:
    """Checked, read-only task-space inertias of a checked frame pass, one
    per configuration."""
    jac = _jacobian(frames)
    a = jac @ np.linalg.solve(_crba(model, frames), jac.swapaxes(1, 2))
    a = (a + a.swapaxes(1, 2)) / 2.0
    # a chain with fewer than 6 joints never spans the task space
    sv_min = (np.linalg.svd(jac, compute_uv=False)[:, -1] if model.dof >= 6
              else np.zeros(len(jac)))
    near = sv_min < JACOBIAN_SINGULARITY_GUARD
    a[near] += OSI_DAMPING**2 * _EYE6
    lam = np.linalg.inv(a)
    lam = checked_energy_matrices((lam + lam.swapaxes(1, 2)) / 2.0)
    lam.setflags(write=False)
    near.setflags(write=False)
    return OperationalSpaceInertias(lam, near)


def operational_space_inertia(model: ChainModel, q) -> OperationalSpaceInertia:
    """Λ = (J M⁻¹ Jᵀ)⁻¹ at the end-effector.

    Near a Jacobian singularity (smallest singular value below the guard)
    the damped inverse (J M⁻¹ Jᵀ + λ²I)⁻¹ is returned with the flag set
    instead of failing or warning, so trajectory profiles stay complete.
    """
    osi = _stacked_inertias(model,
                            _checked(_frame_pass(model, _qvec(model, q)[None])))
    return OperationalSpaceInertia(KineticEnergyMatrix._of_checked(
        osi.matrices[0]), bool(osi.near_singular[0]))


def operational_space_inertias(model: ChainModel, qs) -> OperationalSpaceInertias:
    """``operational_space_inertia`` of each row of an (S, n) stack, in one
    batched pass; every near-singular sample is damped and flagged (the
    only signal: no warning). Raises like ``KineticEnergyMatrix`` if any
    result is not symmetric or not positive semidefinite."""
    return _stacked_inertias(model,
                             _checked(_frame_pass(model, _qstack(model, qs))))


def inverse_kinematics(model: ChainModel, target: Pose, seed) -> JointState:
    """Damped least squares with step clamping and joint-limit clipping.

    Returns once position and orientation residuals are inside tolerance;
    if the target equals FK(seed) the seed comes back unchanged. After the
    iteration budget, raises with the best configuration seen. The
    end-effector rotation at the solution must be orthonormal.
    """
    q, frames = _ik(model, target.position, target.rotation,
                    _qvec(model, seed))
    _checked(frames)
    return JointState(q)


def _ik(model: ChainModel, target_pos: np.ndarray, target_rot: np.ndarray,
        q: np.ndarray, frames: _Frames | None = None):
    """``inverse_kinematics`` on arrays: the converged q and its frame
    pass (of the one configuration), whose end-effector rotation the
    caller checks.

    ``frames``, the pass at the seed (the previous solve's result in a
    warm-started sweep), saves the first pass; it is used only if the
    joint limits leave the seed as it is.
    """
    lower, upper = model._arrays.lower, model._arrays.upper
    seed, q = q, np.minimum(np.maximum(q, lower), upper)
    if frames is not None and not (q == seed).all():
        frames = None
    best_q, best_err = q, np.inf
    best_pos, best_rot = np.inf, np.inf
    for it in range(IK_MAX_ITERS + 1):
        if frames is None:
            frames = _frame_pass(model, q)
        e_pos = target_pos - frames.ee_position
        e_rot = rotation_log(target_rot @ frames.ee_rotation.T)
        # the bits of np.linalg.norm on a 1-D float vector
        pos_err = math.sqrt(e_pos @ e_pos)
        rot_err = math.sqrt(e_rot @ e_rot)
        if pos_err < IK_POS_TOL and rot_err < IK_ROT_TOL:
            return q, frames
        if pos_err + rot_err < best_err:
            best_q, best_err = q, pos_err + rot_err
            best_pos, best_rot = pos_err, rot_err
        if it == IK_MAX_ITERS:
            break
        jac = _jacobian(frames)
        err = np.concatenate([e_pos, e_rot])
        dq = jac.T @ np.linalg.solve(jac @ jac.T + _IK_DAMPING_EYE6, err)
        step = np.abs(dq).max()
        if step > IK_STEP_CLAMP:
            dq *= IK_STEP_CLAMP / step
        q = np.minimum(np.maximum(q + dq, lower), upper)
        frames = None
    raise IkDidNotConverge(
        f"no convergence after {IK_MAX_ITERS} iterations "
        f"(position {best_pos:.3e} m, rotation {best_rot:.3e} rad)",
        best_q=JointState(best_q), pos_err=best_pos, rot_err=best_rot)
