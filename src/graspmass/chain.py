"""Serial revolute chains: kinematics, task-space inertia, the arm's sweep.

Conventions:
  - joint frame i: parent frame, then the joint's fixed parent_transform,
    then rotation by q_i about the joint axis; link i's inertia is given in
    this frame
  - end-effector frame: last joint frame composed with tool_transform
  - the joint-space mass matrix comes from composite rigid-body assembly
    with all spatial quantities referenced at the base origin, which keeps
    every 6-vector in one frame (linear first, matching the Jacobian)

One kernel makes every frame pass: ``_one_pass`` gives the joint frames,
end-effector pose and geometric Jacobian of one configuration, shape
(n,); FK, the Jacobian and each IK iteration read them, each 3 x 3
product a BLAS call on 2-D operands and the Jacobian's cross products on
plain floats (``np.cross``'s order), without numpy's per-call cost of a
batch axis. A pass loops over the joints once, for the rotations,
skipping the product by each parent rotation that is exactly the
identity (all of them on the bundled arms), which returns its operand;
the joint origins are one batched product of the parent offsets by the
preceding frames and one running sum in joint order, the additions of
pose composition in its order. A stack, shape (S, n), is the rows of its
kernel passes, Jacobians (S, 6, n) included (``_stack``); on it the CRBA
mass matrices (Featherstone, Rigid Body Dynamics Algorithms, 2008,
ch. 6) and the task-space inertias are built in one batch, with a
read-only flag for each configuration near a Jacobian singularity
(damped, not inverted exactly), returned as a plain pair. The
single-configuration mass matrix and task-space inertia use a stack of
one.

Validation sits at the boundary, once per call: joint values must be
finite, and the end-effector rotation of each pass that reaches a
result must be orthonormal (``_checked``: the public calls and
``inverse_kinematics`` check theirs). The passes of intermediate IK
iterates, which are thrown away, and the joint frames are not checked.

``inverse_kinematics`` wraps ``_ik``, which works on arrays and returns
the converged configuration with its frame pass and rotation residual.
Each iteration does its arithmetic on plain floats and small arrays (the
seed's limit check, the residual in one 6-vector, its norms as
``sqrt(e . e)``, the bits of ``np.linalg.norm``) and solves its damped
system with the gufunc under ``np.linalg.solve``, without the wrapper.

One ``sweep`` per trajectory computes the arm's part of an evaluation on
its sampling grid, read as arrays: warm-started IK sample by sample
(the start pose is sample 0), each solve handed the previous one's
converged pass and rotation residual, so it skips the pass and the
rotation log at its seed (the rotation is held); then the task-space
inertias and near-singular flags of all samples, one batch on the stack
of those passes (``_stacked_inertias``), so no pass runs outside IK;
and the motion direction, the path's chord, the same at every sample.
The grasps' part is ``ranking.score`` on the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
# the gufunc np.linalg.solve calls for one right-hand side
from numpy.linalg._umath_linalg import solve1 as _solve

from .augmented import _EYE6, KineticEnergyMatrix, checked_energy_matrices
from .bodies import check_inertia_tensor, check_mass
from .constants import (IK_DAMPING, IK_MAX_ITERS, IK_POS_TOL, IK_ROT_TOL,
                        IK_STEP_CLAMP, JACOBIAN_SINGULARITY_GUARD, OSI_DAMPING,
                        UNIT_NORM_TOL)
from .errors import IkDidNotConverge
from .spatial import Pose, _check_rotation, _frozen, rotation_log, skew
from .trajectory import grid, motion_direction

_EYE3 = np.eye(3)
_IK_DAMPING_EYE6 = IK_DAMPING**2 * _EYE6


@dataclass(frozen=True, eq=False)
class LinkInertia:
    """Mass, CoM offset, and CoM inertia of one link, in its joint frame."""

    mass: float
    com: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        check_mass(self.mass)
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
    axes: np.ndarray
    axis_skews: np.ndarray      # Rodrigues terms K and K @ K of each axis
    axis_skews2: np.ndarray
    lower: np.ndarray           # joint limits
    upper: np.ndarray
    # each joint's parent rotation, None where it is exactly the identity:
    # a product by it returns its operand (up to the sign of a zero entry),
    # so the frame pass skips it
    turns: tuple
    bounds: tuple               # the limits as (lower, upper) float pairs

    @classmethod
    def of(cls, joints) -> "_ChainArrays":
        skews = skew([j.axis for j, _ in joints])
        limits = np.array([j.limits for j, _ in joints])
        arrays = (
            np.array([j.parent_transform.position for j, _ in joints]),
            np.array([j.axis for j, _ in joints]),
            skews, skews @ skews, limits[:, 0].copy(), limits[:, 1].copy())
        for a in arrays:
            a.setflags(write=False)
        turns = tuple(None if (r == _EYE3).all() else r
                      for r in (j.parent_transform.rotation for j, _ in joints))
        return cls(*arrays, turns, tuple(j.limits for j, _ in joints))


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


def _qvec(model: ChainModel, q) -> np.ndarray:
    """One configuration as a validated (n,) vector."""
    v = np.asarray(q, dtype=float)
    if v.shape != (model.dof,):
        raise ValueError(f"expected {model.dof} joint values, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("joint values must be finite")
    return v


class _Frames(NamedTuple):
    """One pass over the chain, all in base axes: of one configuration
    (``_one_pass``), or the rows of S such passes (``_stack``), with a
    leading (S,) axis on each field."""

    rotations: np.ndarray    # (n, 3, 3) joint frames, post joint rotation
    origins: np.ndarray      # (n, 3)
    ee_rotation: np.ndarray  # (3, 3)
    ee_position: np.ndarray  # (3,)
    jacobian: np.ndarray     # (6, n) geometric Jacobian, linear rows first


def _spins(model: ChainModel, qs: np.ndarray) -> np.ndarray:
    """Rodrigues rotation about each joint axis, all joints at once: the
    first step of every frame pass."""
    arrays = model._arrays
    return (_EYE3 + np.sin(qs)[..., None, None] * arrays.axis_skews
            + (1.0 - np.cos(qs))[..., None, None] * arrays.axis_skews2)


def _one_pass(model: ChainModel, q: np.ndarray) -> _Frames:
    """Joint frames, end-effector pose and Jacobian of one validated
    configuration (n,), each 3 x 3 product a BLAS call on 2-D operands
    (``ndarray.dot`` reaches the routine ``@`` does), the cross products
    on plain floats in ``np.cross``'s order; the end-effector rotation is
    left to the callers that reach a result (``_checked``)."""
    arrays = model._arrays
    spins = _spins(model, q)
    base = model.base_pose
    frames = np.empty((model.dof + 1, 3, 3))  # frames[i] precedes joint i
    frames[0] = rot = base.rotation
    for i, (turn, spin) in enumerate(zip(arrays.turns, spins), 1):
        if turn is not None:
            rot = rot.dot(turn)
        frames[i] = rot = rot.dot(spin)
    origins = (frames[:-1] @ arrays.parent_positions[:, :, None])[:, :, 0]
    origins[0] += base.position
    origins = origins.cumsum(axis=0)
    rotations = frames[1:]
    axes = (rotations @ arrays.axes[:, :, None])[:, :, 0]
    tool = model.tool_transform
    ee_position = rot.dot(tool.position) + origins[-1]
    if not all(map(math.isfinite, ee_position.tolist())):
        raise ValueError("end-effector position must be finite")
    a0, a1, a2 = angular = axes.T.tolist()
    b0, b1, b2 = (ee_position - origins).T.tolist()
    jacobian = np.array([
        [y * w - z * v for y, z, v, w in zip(a1, a2, b1, b2)],
        [z * u - x * w for x, z, u, w in zip(a0, a2, b0, b2)],
        [x * v - y * u for x, y, u, v in zip(a0, a1, b0, b1)],
        *angular])
    return _Frames(rotations, origins, rot.dot(tool.rotation), ee_position,
                   jacobian)


def _stack(passes) -> _Frames:
    """Kernel passes as one pass, a leading (S,) axis on each field."""
    return _Frames(*map(np.array, zip(*passes)))


def _checked_stack(model: ChainModel, qs: np.ndarray) -> _Frames:
    """The checked stack of the kernel passes of a validated (S, n) stack."""
    return _checked(_stack([_one_pass(model, q) for q in qs]))


def _checked(frames: _Frames) -> _Frames:
    """The pass, once every end-effector rotation in it is checked."""
    _check_rotation(frames.ee_rotation, "end-effector rotation")
    return frames


def _crba(model: ChainModel, frames: _Frames) -> np.ndarray:
    """(S, n, n) joint-space mass matrices of a stack's pass by the
    composite rigid-body recursion, spatial quantities referenced at the
    base origin."""
    s_count, n = frames.origins.shape[:2]
    axes = frames.jacobian[:, 3:].swapaxes(1, 2)   # (S, n, 3) joint axes
    # motion subspace of each joint, referenced at the base origin
    subspaces = np.empty((s_count, n, 6))
    subspaces[..., :3] = np.cross(frames.origins, axes)
    subspaces[..., 3:] = axes
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
    frames = _checked(_one_pass(model, _qvec(model, q)))
    return Pose(frames.ee_position, frames.ee_rotation)


def geometric_jacobian(model: ChainModel, q) -> np.ndarray:
    """6 x n map from joint rates to the end-effector twist, linear rows first."""
    return _checked(_one_pass(model, _qvec(model, q))).jacobian


def mass_matrix(model: ChainModel, q) -> np.ndarray:
    """Joint-space mass matrix by the composite rigid-body recursion."""
    return _crba(model, _checked_stack(model, _qvec(model, q)[None]))[0]


class OperationalSpaceInertia(NamedTuple):
    """Task-space kinetic-energy matrix plus the near-singular flag."""

    matrix: KineticEnergyMatrix
    near_singular: bool


def _stacked_inertias(model: ChainModel, frames: _Frames):
    """Task-space inertias of a checked frame pass of S configurations:
    (S, 6, 6) checked energy matrices and (S,) bool near-singular flags,
    both read-only."""
    jac = frames.jacobian
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
    return lam, near


def operational_space_inertia(model: ChainModel, q) -> OperationalSpaceInertia:
    """Λ = (J M⁻¹ Jᵀ)⁻¹ at the end-effector.

    Near a Jacobian singularity (smallest singular value below the guard)
    the damped inverse (J M⁻¹ Jᵀ + λ²I)⁻¹ is returned with the flag set
    instead of failing or warning, so trajectory profiles stay complete.
    """
    lam, near = _stacked_inertias(model,
                                  _checked_stack(model, _qvec(model, q)[None]))
    return OperationalSpaceInertia(KineticEnergyMatrix(lam[0]), bool(near[0]))


def inverse_kinematics(model: ChainModel, target: Pose, seed) -> np.ndarray:
    """Damped least squares with step clamping and joint-limit clipping.

    Returns the (n,) joint values, read-only, once position and
    orientation residuals are inside tolerance; if the target equals
    FK(seed) the seed's values come back, in a new array (the caller's
    is neither returned nor frozen). After the iteration budget, raises
    with the best configuration seen (``best_q``, the same kind of
    vector). The end-effector rotation at the solution must be
    orthonormal.
    """
    q, frames, _ = _ik(model, target.position, target.rotation,
                       _qvec(model, seed))
    _checked(frames)
    q.setflags(write=False)
    return q


def _singular(err, flag):
    """``np.errstate`` handler of the damped solve: its gufunc flags a
    singular system as invalid, which ``np.linalg.solve`` raises as this."""
    raise np.linalg.LinAlgError("Singular matrix")


def _ik(model: ChainModel, target_pos: np.ndarray, target_rot: np.ndarray,
        q: np.ndarray, frames: _Frames | None = None,
        sample: int | None = None, rot_residual: np.ndarray | None = None):
    """``inverse_kinematics`` on arrays: the converged q (a new array),
    its frame pass (of the one configuration), whose end-effector
    rotation the caller checks, and the rotation residual there, the
    axis-angle vector (3,) from that rotation to ``target_rot``.

    ``frames``, the pass at the seed (the previous solve's result in a
    warm-started sweep), saves the first pass, and ``rot_residual``, its
    rotation residual against this ``target_rot``, the first rotation
    log; both are used only if the seed lies inside the joint limits,
    which are checked on plain floats (a seed outside them is clipped).
    ``sample``, the target's index in a sweep, prefixes a failure's
    message and is its ``sample_index``. Each damped system J Jᵀ + λ²I
    goes to the gufunc ``np.linalg.solve`` wraps, the same LAPACK call
    and bits without the wrapper's per-call cost; a singular one raises
    ``LinAlgError`` as the wrapper does.
    """
    arrays = model._arrays
    if all(lo <= x <= hi for x, (lo, hi) in zip(q.tolist(), arrays.bounds)):
        q = q.copy()
    else:
        q = np.minimum(np.maximum(q, arrays.lower), arrays.upper)
        frames = None
    best_q, best_err = q, np.inf
    best_pos, best_rot = np.inf, np.inf
    err = np.empty(6)   # the residual, position first
    e_pos, e_rot = err[:3], err[3:]
    for it in range(IK_MAX_ITERS + 1):
        if frames is None:
            frames, rot_residual = _one_pass(model, q), None
        if rot_residual is None:
            rot_residual = rotation_log(target_rot.dot(frames.ee_rotation.T))
        np.subtract(target_pos, frames.ee_position, out=e_pos)
        e_rot[:] = rot_residual
        # the bits of np.linalg.norm on a 1-D float vector
        pos_err = math.sqrt(e_pos.dot(e_pos))
        rot_err = math.sqrt(e_rot.dot(e_rot))
        if pos_err < IK_POS_TOL and rot_err < IK_ROT_TOL:
            return q, frames, rot_residual
        if pos_err + rot_err < best_err:
            best_q, best_err = q, pos_err + rot_err
            best_pos, best_rot = pos_err, rot_err
        if it == IK_MAX_ITERS:
            break
        jac = frames.jacobian
        system = jac.dot(jac.T) + _IK_DAMPING_EYE6
        # np.linalg.solve's own float-error state around its gufunc
        with np.errstate(call=_singular, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            x = _solve(system, err)
        dq = jac.T.dot(x)
        step = max(map(abs, dq.tolist()))
        if step > IK_STEP_CLAMP:
            dq *= IK_STEP_CLAMP / step
        q = np.minimum(np.maximum(q + dq, arrays.lower), arrays.upper)
        frames = None
    best_q.setflags(write=False)
    where = "" if sample is None else f"sample {sample}: "
    raise IkDidNotConverge(
        f"{where}no convergence after {IK_MAX_ITERS} iterations "
        f"(position {best_pos:.3e} m, rotation {best_rot:.3e} rad)",
        best_q=best_q, pos_err=best_pos, rot_err=best_rot,
        sample_index=sample)


class Sweep(NamedTuple):
    """The grasp-independent part of an evaluation, arrays read-only: the
    held rotation (3, 3), the sampling grid's times (N,) (``grid``), the
    arm's task-space inertia (N, 6, 6) in base axes, the unit motion
    direction (3,) of every sample and near-singular flags (N,)."""

    rotation: np.ndarray
    times: np.ndarray
    lam_rob: np.ndarray
    direction: np.ndarray
    near_singular: np.ndarray


def sweep(chain, traj, dt, q_seed) -> Sweep:
    """The arm's part of an evaluation along ``traj`` at ``dt``; a failed
    solve raises ``IkDidNotConverge`` with its sample index (0 = start)."""
    times, positions = grid(traj, dt)
    rotation = traj.start_rotation
    passes = []
    # float errors raise, so IK or inertia arithmetic past the float range
    # fails loudly
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        q, frames, residual = _ik(chain, traj.position(0.0), rotation,
                                  _qvec(chain, q_seed), None, 0)
        # the rotation is held, so each converged pass's rotation residual
        # is the next solve's first one
        for index, position in enumerate(positions, 1):
            q, frames, residual = _ik(chain, position, rotation, q, frames,
                                      index, residual)
            passes.append(frames)
        frames = _checked(_stack(passes))
        lam_rob, near_singular = _stacked_inertias(chain, frames)
    direction = motion_direction(traj)
    for a in (times, direction):
        a.setflags(write=False)
    return Sweep(rotation, times, lam_rob, direction, near_singular)
