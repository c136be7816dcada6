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
    LinkInertia,
    Pose,
    RigidBodyInertia,
    com_energy_matrix,
    parse_scene,
    rotation_axis_angle,
    rotation_log,
    skew,
    transform_to_grasp,
)
from graspmass.cli import demo_scene_path
from graspmass.constants import (JACOBIAN_SINGULARITY_GUARD, OSI_DAMPING,
                                 PD_MIN_EIG, ZERO_SPEED_TOL)
from graspmass.errors import DegenerateTrajectory, NotPositiveDefinite


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
        raise DegenerateTrajectory("all samples are at rest")
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
    """Effective masses of each grasp along a ``ranking._Sweep``, with the
    object term rotated into base axes sample by sample: one
    blockdiag(R, R) per sample, stacked. The library builds the term once
    per grasp; the arithmetic is the same, so the masses must be equal."""
    times, lam_rob, dirs = sweep.times, sweep.lam_rob, sweep.dirs
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
