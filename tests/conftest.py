"""Shared oracle helpers.

Everything here is deliberately written from scratch against textbook
formulas so the tests cross-check the library instead of re-running it.
"""

import math

import numpy as np

from graspmass import (
    ChainModel,
    GraspCandidate,
    JointSpec,
    KineticEnergyMatrix,
    LinkInertia,
    Pose,
    RigidBodyInertia,
    com_energy_matrix,
    parse_scene,
    rotation_log,
    skew,
    transform_to_grasp,
)
from graspmass.cli import demo_scene_path
from graspmass.chain import _Frames, _stacked_inertias
from graspmass.constants import (IK_DAMPING, IK_MAX_ITERS, IK_POS_TOL,
                                 IK_ROT_TOL, IK_STEP_CLAMP,
                                 JACOBIAN_SINGULARITY_GUARD, OSI_DAMPING,
                                 PD_MIN_EIG, ZERO_SPEED_TOL)
from graspmass.errors import IkDidNotConverge, NotPositiveDefinite
from graspmass.trajectory import grid


# where a non-finite entry goes: on the diagonal, below it only, above it
# only, or in a symmetric off-diagonal pair (valid in 3x3 and 6x6)
NON_FINITE_PLACES = {"diagonal": ((1, 1),), "lower": ((2, 0),),
                     "upper": ((0, 2),), "pair": ((0, 2), (2, 0))}
NON_FINITE_CASES = [(value, where) for value in (math.nan, math.inf, -math.inf)
                    for where in NON_FINITE_PLACES]


def poisoned(m, value, where):
    """Copy of ``m`` with ``value`` at the places NON_FINITE_PLACES[where]."""
    m = np.array(m, dtype=float)
    for place in NON_FINITE_PLACES[where]:
        m[place] = value
    return m


def with_lowest_eigenvalue(rng, lowest):
    """Q diag(lowest, 1, 2, 3, 4, 5) Q^T with a random orthogonal Q."""
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    return q @ np.diag([lowest, 1.0, 2.0, 3.0, 4.0, 5.0]) @ q.T


def rotation_axis_angle(axis, angle) -> np.ndarray:
    """Rodrigues formula for a unit axis."""
    k = skew(axis)
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_axis_angle(axis, rng.uniform(-np.pi, np.pi))


def cloud_inertia(rng, n=12, spread=0.3):
    """CoM inertia of a random point cloud; PD and physically realizable."""
    pts = rng.normal(scale=spread, size=(n, 3))
    masses = rng.uniform(0.05, 1.0, size=n)
    com = masses @ pts / masses.sum()
    d = pts - com
    eye = np.eye(3)
    inertia = sum(m * ((d_ @ d_) * eye - np.outer(d_, d_))
                  for m, d_ in zip(masses, d))
    return masses.sum(), inertia


def random_body(rng):
    mass, inertia = cloud_inertia(rng)
    return RigidBodyInertia(mass, Pose.identity(), inertia)


def random_grasp(rng, reach=0.4):
    pose = Pose(rng.uniform(-reach, reach, size=3), random_rotation(rng))
    return GraspCandidate("g", pose)


def partition_inverse(lam_tot: KineticEnergyMatrix):
    """Blocks of the full inverse: (top-left 3x3, top-right 3x3, bottom-right 3x3).

    The top-left block equals the inverse of the Schur complement of the
    angular block, so 1/(v^T uu v) is the effective mass along a unit v:
    an explicit-inverse oracle of the library's solve. Raises
    NotPositiveDefinite when the matrix is not strictly positive definite.
    """
    m = lam_tot.matrix
    if np.linalg.eigvalsh(m)[0] <= PD_MIN_EIG:
        raise NotPositiveDefinite("matrix not positive definite; cannot invert")
    inv = np.linalg.inv(m)
    inv = (inv + inv.T) / 2.0
    return inv[:3, :3], inv[:3, 3:], inv[3:, 3:]


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


def impulse_oracle_mass(body, grasp, v):
    """Free-body effective mass from a unit impulse at the grasp point.

    Apply impulse v at the grasp point of a floating rigid body and
    measure the velocity change of that point along v; the effective
    mass is the reciprocal.  Pure Newton/Euler, no 6x6 machinery.
    """
    rot = grasp.grasp_pose.rotation
    r = rot.T @ grasp.grasp_pose.position       # CoM -> grasp, grasp axes
    inertia_g = rot.T @ body.inertia @ rot
    dv_com = v / body.mass
    domega = np.linalg.solve(inertia_g, np.cross(r, v))
    dv_grasp = dv_com + np.cross(domega, r)
    return 1.0 / float(v @ dv_grasp)


def random_chain(rng, dof):
    """Random serial chain with point-cloud link inertias."""
    joints = []
    for _ in range(dof):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        offset = rng.uniform(-0.3, 0.3, size=3)
        mass, inertia = cloud_inertia(rng, spread=0.15)
        com = rng.uniform(-0.15, 0.15, size=3)
        joints.append((JointSpec(Pose(offset, np.eye(3)), axis),
                       LinkInertia(mass, com, inertia)))
    tool = Pose(rng.uniform(-0.1, 0.1, size=3), np.eye(3))
    return ChainModel(tuple(joints), Pose.identity(), tool)


def turned_chain(chain, rng):
    """``chain`` with each joint frame i turned by a random rotation R_i:
    the same arm, each quantity re-expressed in the turned frames, so no
    parent rotation is the identity. Joint i's parent rotation P_i becomes
    R_{i-1}^T P_i R_i and its offset R_{i-1}^T p_i (R_0 = I, the base);
    its axis, its link's CoM and inertia are taken by R_i^T, the tool by
    R_n^T."""
    joints, prev = [], np.eye(3)
    for joint, link in chain.joints:
        turn = random_rotation(rng)
        parent = joint.parent_transform
        joints.append((JointSpec(Pose(prev.T @ parent.position,
                                      prev.T @ parent.rotation @ turn),
                                 turn.T @ joint.axis, joint.limits),
                       LinkInertia(link.mass, turn.T @ link.com,
                                   turn.T @ link.inertia @ turn)))
        prev = turn
    tool = chain.tool_transform
    return ChainModel(tuple(joints), chain.base_pose,
                      Pose(prev.T @ tool.position, prev.T @ tool.rotation))


def count_frame_passes(monkeypatch):
    """A list that gains the joint values of each frame pass: every pass,
    of one configuration or of a stack's row, is a ``_one_pass`` call."""
    import graspmass.chain as chain_module
    passes = []
    kernel = chain_module._one_pass

    def counting(model, q):
        passes.append(q)
        return kernel(model, q)

    monkeypatch.setattr(chain_module, "_one_pass", counting)
    return passes


def naive_frames(model, q):
    """Joint frames by plain pose chaining; test-local FK."""
    frames = []
    pose = model.base_pose
    for (spec, _), angle in zip(model.joints, q):
        pose = Pose(pose.position + pose.rotation @ spec.parent_transform.position,
                    pose.rotation @ spec.parent_transform.rotation
                    @ rotation_axis_angle(spec.axis, angle))
        frames.append(pose)
    return frames


def naive_ee_pose(model, q):
    last = naive_frames(model, q)[-1]
    return Pose(last.position + last.rotation @ model.tool_transform.position,
                last.rotation @ model.tool_transform.rotation)


def pose_jacobian(model, q):
    """Column by column from Pose-composed frames."""
    frames = naive_frames(model, q)
    p_ee = naive_ee_pose(model, q).position
    jac = np.zeros((6, model.dof))
    for i, (frame, (spec, _)) in enumerate(zip(frames, model.joints)):
        z = frame.rotation @ spec.axis
        jac[:3, i] = np.cross(z, p_ee - frame.position)
        jac[3:, i] = z
    return jac


def pose_crba(model, q):
    """Composite rigid-body recursion on Pose-composed frames, spatial
    quantities referenced at the base origin, linear rows first."""
    frames = naive_frames(model, q)
    n = model.dof
    subspaces = np.zeros((n, 6))
    for i, (frame, (spec, _)) in enumerate(zip(frames, model.joints)):
        z = frame.rotation @ spec.axis
        subspaces[i, :3] = np.cross(frame.position, z)
        subspaces[i, 3:] = z
    composite = np.zeros((6, 6))
    m = np.zeros((n, n))
    for i in range(n - 1, -1, -1):
        link = model.joints[i][1]
        rot = frames[i].rotation
        com_w = frames[i].position + rot @ link.com
        s = skew(com_w)
        inertia = np.zeros((6, 6))
        inertia[:3, :3] = link.mass * np.eye(3)
        inertia[:3, 3:] = -link.mass * s
        inertia[3:, :3] = link.mass * s
        inertia[3:, 3:] = rot @ link.inertia @ rot.T - link.mass * (s @ s)
        composite = composite + inertia
        fi = composite @ subspaces[i]
        m[i, i] = subspaces[i] @ fi
        for j in range(i - 1, -1, -1):
            m[i, j] = m[j, i] = subspaces[j] @ fi
    return (m + m.T) / 2.0


def pose_osi(model, q):
    """Task-space inertia of one configuration, sample by sample from
    Pose-composed frames: (matrix, near-singular flag)."""
    jac = pose_jacobian(model, q)
    a = jac @ np.linalg.solve(pose_crba(model, q), jac.T)
    a = (a + a.T) / 2.0
    sv = np.linalg.svd(jac, compute_uv=False)
    near = sv.size < 6 or sv[-1] < JACOBIAN_SINGULARITY_GUARD
    if near:
        a = a + OSI_DAMPING**2 * np.eye(6)
    lam = np.linalg.inv(a)
    return (lam + lam.T) / 2.0, near


def euler_rate_map(ypr):
    """E = blockdiag(I3, B): (linear velocity, ZYX Euler-angle rates) to
    the twist; test-local oracle of the operational-coordinate map.

    With R = Rz(yaw) Ry(pitch) Rx(roll), each rate spins about its own
    axis as carried by the rotations before it:
    omega = yaw' z + pitch' Rz(yaw) y + roll' Rz(yaw) Ry(pitch) x.
    B is singular at pitch +/-pi/2.
    """
    yaw, pitch, _ = ypr
    x, y, z = np.eye(3)
    rz = rotation_axis_angle(z, yaw)
    ry = rotation_axis_angle(y, pitch)
    e = np.eye(6)
    e[3:, 3:] = np.column_stack([z, rz @ y, rz @ ry @ x])
    return e


def acceleration(traj, t):
    """Second derivative of a ``QuinticTrajectory`` at t, term by term
    from its coefficient table; test-local."""
    k = np.arange(2, 6)
    return (traj.coeffs[2:] * (k * (k - 1))[:, None]).T @ (t ** (k - 2))


def direction_at(samp, samples):
    """Unit motion direction at a ``TrajectorySample``, from its own
    velocity; test-local oracle of the path's chord direction.

    At (near-)rest samples, endpoints in particular, the direction of the
    nearest sample with nonzero speed (the earlier one on a tie)
    substitutes, so it stays defined along the whole path.
    """
    v = samp.velocity.linear
    speed = float(np.linalg.norm(v))
    if speed >= ZERO_SPEED_TOL:
        return v / speed
    best = None
    best_dist = None
    for other in samples:
        s = float(np.linalg.norm(other.velocity.linear))
        if s < ZERO_SPEED_TOL:
            continue
        dist = abs(other.sample_index - samp.sample_index)
        if best is None or dist < best_dist:
            best, best_dist = other, dist
    if best is None:
        raise ValueError("all samples are at rest")
    v = best.velocity.linear
    return v / np.linalg.norm(v)


def fd_jacobian(model, q, h=1e-6):
    """Geometric Jacobian by central differences on the test-local FK."""
    q = np.asarray(q, dtype=float)
    cols = []
    for j in range(len(q)):
        dq = np.zeros_like(q)
        dq[j] = h
        hi = naive_ee_pose(model, q + dq)
        lo = naive_ee_pose(model, q - dq)
        dpos = (hi.position - lo.position) / (2.0 * h)
        drot = rotation_log(hi.rotation @ lo.rotation.T) / (2.0 * h)
        cols.append(np.concatenate([dpos, drot]))
    return np.column_stack(cols)


def link_energy(model, q, qdot):
    """Total kinetic energy from per-link rigid-body terms.

    Link twists are accumulated joint by joint (omega from the axes,
    CoM velocity from the lever arms), independent of the CRBA.
    """
    frames = naive_frames(model, q)
    energy = 0.0
    for i, (spec_link, frame) in enumerate(zip(model.joints, frames)):
        _, link = spec_link
        com_w = frame.position + frame.rotation @ link.com
        omega = np.zeros(3)
        v_com = np.zeros(3)
        pose = model.base_pose
        for j in range(i + 1):
            spec_j = model.joints[j][0]
            pose = Pose(pose.position + pose.rotation @ spec_j.parent_transform.position,
                        pose.rotation @ spec_j.parent_transform.rotation
                        @ rotation_axis_angle(spec_j.axis, q[j]))
            z = pose.rotation @ spec_j.axis
            omega += qdot[j] * z
            v_com += qdot[j] * np.cross(z, com_w - pose.position)
        inertia_w = frame.rotation @ link.inertia @ frame.rotation.T
        energy += 0.5 * link.mass * (v_com @ v_com)
        energy += 0.5 * (omega @ inertia_w @ omega)
    return energy


def integrate_contact(scenario):
    """Contact trace by semi-implicit Euler steps; test-local oracle.

    Steps 1e-4 * sqrt(M/k) from x = 0, x' = v until x returns to zero or
    the duration runs out, and returns the raw (t, F) series.
    """
    m, k, c = (scenario.effective_mass, scenario.contact_stiffness,
               scenario.contact_damping)
    dt = 1e-4 * math.sqrt(m / k)
    n_max = int(math.ceil(scenario.duration / dt))
    times = [0.0]
    forces = [max(0.0, c * scenario.approach_speed)]
    x, v = 0.0, scenario.approach_speed
    for i in range(1, n_max + 1):
        v += dt * (-k * x - c * v) / m
        x += dt * v
        if x <= 0.0:
            times.append(i * dt)
            forces.append(0.0)
            break
        times.append(i * dt)
        forces.append(max(0.0, k * x + c * v))
    return np.array(times), np.array(forces)


def reference_score(sweep, bodies, grasps):
    """Effective masses of each grasp along a ``chain.Sweep``, with the
    object term rotated into base axes sample by sample: one
    blockdiag(R, R) per sample, stacked. The library builds the term once
    per grasp; the arithmetic is the same, so the masses must be equal."""
    times, lam_rob = sweep.times, sweep.lam_rob
    dirs = np.tile(sweep.direction, (len(times), 1))
    rot = np.zeros((len(times), 6, 6))
    rot[:, :3, :3] = rot[:, 3:, 3:] = sweep.rotation
    rhs = np.concatenate([dirs, np.zeros_like(dirs)], axis=1)[:, :, None]
    masses = []
    for body, grasp in zip(bodies, grasps):
        lam_gp = transform_to_grasp(com_energy_matrix(body), grasp).matrix
        lam_tot = lam_rob + np.einsum("nij,jk,nlk->nil", rot, lam_gp, rot)
        if np.linalg.eigvalsh(lam_tot)[:, 0].min() <= PD_MIN_EIG:
            raise NotPositiveDefinite(f"grasp {grasp.id}: augmented matrix "
                                      "not positive definite; cannot invert")
        x = np.linalg.solve(lam_tot, rhs)[:, :3, 0]
        masses.append(1.0 / np.einsum("ni,ni->n", dirs, x))
    return masses


def book_scene():
    return parse_scene(demo_scene_path("book"))


def tensor_scene():
    return parse_scene(demo_scene_path("tensor"))


# The warm-started IK sweep with numpy's own norms, clipping, trace and
# array comparisons, one matmul per joint origin: the library computes
# the same quantities with fewer calls per iteration, so its joint
# solutions and task-space inertias must be equal to these bit for bit.

def reference_rotation_log(r):
    """Axis-angle vector of a rotation matrix, numpy array arithmetic."""
    r = np.asarray(r, dtype=float)
    c = (np.trace(r) - 1.0) / 2.0
    c = min(1.0, max(-1.0, c))
    angle = math.acos(c)
    if angle < 1e-12:
        return np.zeros(3)
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if angle > math.pi - 1e-6:
        # the largest-diagonal row of R + R^T - 2c I, signed along w; the
        # angle from |w| = 2 sin(angle), as acos loses digits near -1
        angle = math.atan2(np.linalg.norm(w) / 2.0, c)
        b = r + r.T - 2.0 * c * np.eye(3)
        row = b[np.argmax(np.diag(b))]
        sign = 1.0 if np.dot(row, w) >= 0.0 else -1.0
        return sign * angle / np.linalg.norm(row) * row
    return w * (angle / (2.0 * math.sin(angle)))


def reference_frame_pass(model, qs):
    """Joint frames, end-effector poses and Jacobians of an (S, n) stack,
    each joint origin accumulated inside the loop over the joints."""
    k = skew([spec.axis for spec, _ in model.joints])
    spins = (np.eye(3) + np.sin(qs)[..., None, None] * k
             + (1.0 - np.cos(qs))[..., None, None] * (k @ k))
    rotations = np.empty(spins.shape)
    origins = np.empty(qs.shape + (3,))
    rot, pos = model.base_pose.rotation, model.base_pose.position
    for i, (spec, _) in enumerate(model.joints):
        pos = rot @ spec.parent_transform.position + pos
        rot = rot @ spec.parent_transform.rotation @ spins[:, i]
        rotations[:, i] = rot
        origins[:, i] = pos
    axes = (rotations @ np.array([spec.axis for spec, _ in model.joints])
            [..., None])[..., 0]
    tool = model.tool_transform
    ee_position = rot @ tool.position + pos
    return _Frames(rotations, origins, rot @ tool.rotation, ee_position,
                   reference_jacobian(axes, origins, ee_position))


def reference_jacobian(axes, origins, ee_position):
    """(S, 6, n) Jacobians of a stack's joint axes (S, n, 3), joint
    origins (S, n, 3) and end-effector positions (S, 3), linear rows
    first, by np.cross on the whole stack."""
    jac = np.empty((len(axes), 6, axes.shape[1]))
    jac[:, :3] = np.cross(axes, ee_position[:, None] - origins).swapaxes(1, 2)
    jac[:, 3:] = axes.swapaxes(1, 2)
    return jac


def reference_ik(model, target_pos, target_rot, q, frames=None):
    """Damped least squares from q; the converged q and its frame pass.
    ``frames`` is the pass at q, reused unless the limits move q."""
    lower, upper = np.array([joint.limits for joint, _ in model.joints]).T
    seed, q = q, np.clip(q, lower, upper)
    if frames is not None and not np.array_equal(q, seed):
        frames = None
    for _ in range(IK_MAX_ITERS + 1):
        if frames is None:
            frames = reference_frame_pass(model, q[None])
        e_pos = target_pos - frames.ee_position[0]
        e_rot = reference_rotation_log(target_rot @ frames.ee_rotation[0].T)
        pos_err = float(np.linalg.norm(e_pos))
        rot_err = float(np.linalg.norm(e_rot))
        if pos_err < IK_POS_TOL and rot_err < IK_ROT_TOL:
            return q, frames
        jac = frames.jacobian[0]
        err = np.concatenate([e_pos, e_rot])
        dq = jac.T @ np.linalg.solve(jac @ jac.T + IK_DAMPING**2 * np.eye(6),
                                     err)
        step = np.abs(dq).max()
        if step > IK_STEP_CLAMP:
            dq *= IK_STEP_CLAMP / step
        q = np.clip(q + dq, lower, upper)
        frames = None
    raise IkDidNotConverge("reference IK did not converge")


def reference_sweep(chain, traj, dt, q_seed):
    """From the joint values ``q_seed``: joint solutions (N, n) along the grid, each solve seeded with the
    previous one and its pass, the start pose first; and the arm's
    task-space inertias (N, 6, 6) of the stacked converged passes."""
    _, positions = grid(traj, dt)
    rotation = traj.start_rotation
    q, frames = reference_ik(chain, traj.position(0.0), rotation,
                             np.asarray(q_seed, dtype=float))
    qs, passes = [], []
    for position in positions:
        q, frames = reference_ik(chain, position, rotation, q, frames)
        qs.append(q)
        passes.append(frames)
    stack = _Frames(*(np.concatenate(a) for a in zip(*passes)))
    return np.array(qs), _stacked_inertias(chain, stack)[0]
