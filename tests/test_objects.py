import math
import warnings

import numpy as np
import pytest

from graspmass import (
    GraspCandidate,
    KineticEnergyMatrix,
    Pose,
    RigidBodyInertia,
    TensorObjectConfig,
    build_cuboid,
    build_tensor_object,
    com_energy_matrix,
    skew,
    transform_to_grasp,
)
from graspmass.bodies import check_inertia_tensor
from graspmass.chain import LinkInertia
from graspmass.errors import NotPositiveDefinite

from conftest import (NON_FINITE_CASES, poisoned, random_body, random_grasp,
                      random_rotation)

MID = np.array([0.0, 0.10, 0.10, 0.10, 0.10])


def mid_config(**overrides):
    kwargs = dict(handle_length=0.5, cylinder_length=0.25,
                  cylinder_mass=0.05, ring_mass=0.036, ring_positions=MID)
    kwargs.update(overrides)
    return TensorObjectConfig(**kwargs)


def test_check_inertia_tensor_rejects_asymmetric():
    bad = np.diag([1.0, 1.0, 1.0])
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError):
        check_inertia_tensor(bad)


@pytest.mark.parametrize("shape", [(2, 2), (3,), (1, 3, 3)])
def test_check_inertia_tensor_rejects_a_shape_other_than_3x3(shape):
    with pytest.raises(ValueError, match="^inertia must be 3x3$"):
        check_inertia_tensor(np.ones(shape))


def test_check_inertia_tensor_rejects_non_pd():
    with pytest.raises(NotPositiveDefinite):
        check_inertia_tensor(np.diag([1.0, 1.0, -0.1]))


def test_check_inertia_tensor_rejects_triangle_violation():
    # no mass distribution gives I_zz > I_xx + I_yy
    with pytest.raises(ValueError):
        check_inertia_tensor(np.diag([1.0, 1.0, 2.5]))


@pytest.mark.parametrize("value, where", NON_FINITE_CASES)
def test_inertia_tensors_reject_a_non_finite_entry(value, where):
    bad = poisoned(np.eye(3), value, where)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^inertia must be finite$"):
            RigidBodyInertia(1.0, Pose.identity(), bad)
        with pytest.raises(ValueError, match="^link inertia must be finite$"):
            LinkInertia(1.0, np.zeros(3), bad)


@pytest.mark.parametrize("mass", [math.inf, math.nan, 1e308, 0.0, -1.0])
def test_bodies_refuse_a_mass_whose_double_is_not_finite_and_positive(mass):
    # math.inf used to pass, and the object terms then warned "invalid
    # value encountered in multiply"; 1e308 overflowed their symmetrization
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for body, com in ((RigidBodyInertia, Pose.identity()),
                          (LinkInertia, np.zeros(3))):
            with pytest.raises(ValueError, match="^mass must be positive "
                               "and below half the float range$"):
                body(mass, com, np.eye(3))


def test_cuboid_closed_form():
    body = build_cuboid(0.34, (0.22, 0.15, 0.015))
    want_xx = 0.34 * (0.15**2 + 0.015**2) / 12.0
    assert np.isclose(body.inertia[0, 0], want_xx, rtol=1e-12)
    assert np.isclose(body.inertia[0, 0], 6.44e-4, rtol=1e-2)
    assert np.allclose(body.com_pose.position, 0.0)


def test_unit_cube_inertia():
    body = build_cuboid(12.0, (1.0, 1.0, 1.0))
    assert np.allclose(body.inertia, np.diag([2.0, 2.0, 2.0]), atol=1e-12)


def test_com_energy_matrix_blocks():
    body = random_body(np.random.default_rng(20))
    lam = com_energy_matrix(body).matrix
    assert np.allclose(lam[:3, :3], body.mass * np.eye(3))
    assert np.allclose(lam[:3, 3:], 0.0)
    assert np.allclose(lam[3:, 3:], body.inertia)
    assert np.isclose(np.trace(lam[:3, :3]), 3.0 * body.mass)


def test_transform_to_grasp_point_offset():
    body = RigidBodyInertia(1.0, Pose.identity(), np.eye(3))
    grasp = GraspCandidate("g", Pose(np.array([0.0, 0.0, 0.5]), np.eye(3)))
    lam = transform_to_grasp(com_energy_matrix(body), grasp).matrix
    assert np.allclose(lam[:3, :3], np.eye(3), atol=1e-12)
    assert np.allclose(lam[3:, 3:], np.diag([1.25, 1.25, 1.0]), atol=1e-12)
    r = np.array([0.0, 0.0, 0.5])
    assert np.allclose(lam[:3, 3:], 1.0 * skew(r), atol=1e-12)


def test_transform_to_grasp_preserves_energy():
    # the com twist and its grasp-frame counterpart carry equal energy
    rng = np.random.default_rng(21)
    for _ in range(25):
        body = random_body(rng)
        grasp = random_grasp(rng)
        lam_com = com_energy_matrix(body).matrix
        lam_gp = transform_to_grasp(com_energy_matrix(body), grasp).matrix
        rot = grasp.grasp_pose.rotation
        r = rot.T @ grasp.grasp_pose.position
        v_gp, omega_gp = rng.normal(size=(2, 3))
        # same motion seen from the com, com axes
        omega_com = rot @ omega_gp
        v_com = rot @ (v_gp + np.cross(r, omega_gp))
        t_gp = np.concatenate([v_gp, omega_gp])
        t_com = np.concatenate([v_com, omega_com])
        assert np.isclose(t_gp @ lam_gp @ t_gp, t_com @ lam_com @ t_com,
                          rtol=1e-10)


def test_transform_to_grasp_refuses_all_but_a_com_matrix():
    # it reads only m and I_com: a matrix already moved to a grasp, or one
    # whose translational block is not m I3, would be read in part
    rng = np.random.default_rng(23)
    body, grasp = random_body(rng), random_grasp(rng)
    at_grasp = transform_to_grasp(com_energy_matrix(body), grasp)
    uneven = KineticEnergyMatrix(np.diag([1.0, 2.0, 3.0, 1.0, 1.0, 1.0]))
    for lam in (at_grasp, uneven):
        with pytest.raises(ValueError, match="^lam_ocom must be blockdiag"):
            transform_to_grasp(lam, grasp)


def test_grasp_rotation_only_is_congruence():
    rng = np.random.default_rng(22)
    body = random_body(rng)
    rot = random_rotation(rng)
    grasp = GraspCandidate("g", Pose(np.zeros(3), rot))
    lam = transform_to_grasp(com_energy_matrix(body), grasp).matrix
    assert np.allclose(lam[:3, :3], body.mass * np.eye(3), atol=1e-12)
    assert np.allclose(lam[3:, 3:], rot.T @ body.inertia @ rot, atol=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvalsh(lam[3:, 3:])),
                       np.sort(np.linalg.eigvalsh(body.inertia)), atol=1e-10)


def test_tensor_centered_rings_symmetric():
    cfg = mid_config(ring_positions=np.array([0.0, 0.1, 0.1, 0.1, 0.1]))
    body = build_tensor_object(cfg)
    assert np.allclose(body.com_pose.position, 0.0, atol=1e-12)
    off_diag = body.inertia - np.diag(np.diag(body.inertia))
    assert np.abs(off_diag).max() < 1e-12
    # y and z arms are interchangeable with centered rings
    assert np.isclose(body.inertia[1, 1], body.inertia[2, 2], rtol=1e-12)
    # all four arms straddle the handle axis, so x is the hardest spin
    assert body.inertia[0, 0] > body.inertia[1, 1]


def test_tensor_total_mass():
    cfg = mid_config()
    body = build_tensor_object(cfg)
    assert np.isclose(5.0 * cfg.cylinder_mass + 5.0 * cfg.ring_mass, 0.43,
                      atol=1e-12)
    assert np.isclose(body.mass, 0.43, atol=1e-12)


def test_ring_shift_parallel_axis_increment():
    # move the handle ring outward: I_yy and I_zz about the frame origin
    # grow by m_r (d^2 - d0^2); compare about the origin, not the com
    d0, d = 0.05, 0.2
    ring_m = 0.036
    bodies = []
    for pos in (d0, d):
        cfg = mid_config(ring_positions=np.array([pos, 0.1, 0.1, 0.1, 0.1]))
        bodies.append(build_tensor_object(cfg))

    def inertia_at_origin(body):
        c = body.com_pose.position
        shift = body.mass * ((c @ c) * np.eye(3) - np.outer(c, c))
        rot = body.com_pose.rotation
        return rot @ body.inertia @ rot.T + shift

    delta = inertia_at_origin(bodies[1]) - inertia_at_origin(bodies[0])
    want = ring_m * (d**2 - d0**2)
    assert np.isclose(delta[1, 1], want, rtol=1e-10)
    assert np.isclose(delta[2, 2], want, rtol=1e-10)
    assert np.isclose(delta[0, 0], 0.0, atol=1e-12)


def grid_points(cfg):
    """Point-mass discretization of the cross rig for an inertia oracle."""
    pts, masses = [], []

    def add_cylinder(mass, radius, half_from, half_to, axis):
        n_z, n_r, n_t = 60, 6, 16
        edges_z = np.linspace(half_from, half_to, n_z + 1)
        edges_r = np.linspace(0.0, radius, n_r + 1)
        theta = (np.arange(n_t) + 0.5) * 2.0 * np.pi / n_t
        cell_mass = mass / (n_z * n_t)
        for z0, z1 in zip(edges_z[:-1], edges_z[1:]):
            zc = 0.5 * (z0 + z1)
            for r0, r1 in zip(edges_r[:-1], edges_r[1:]):
                # radius that preserves the annulus second moment
                rc = np.sqrt((r1**4 - r0**4) / (2.0 * (r1**2 - r0**2)))
                frac = (r1**2 - r0**2) / radius**2
                for th in theta:
                    p_local = np.array([rc * np.cos(th), rc * np.sin(th), zc])
                    pts.append(_orient(p_local, axis))
                    masses.append(cell_mass * frac)

    def add_ring(mass, radius, center, axis):
        n = 64
        theta = (np.arange(n) + 0.5) * 2.0 * np.pi / n
        for th in theta:
            p_local = np.array([radius * np.cos(th), radius * np.sin(th), center])
            pts.append(_orient(p_local, axis))
            masses.append(mass / n)

    def _orient(p_local, axis):
        # local z becomes the given axis
        if axis == "x":
            return np.array([p_local[2], p_local[0], p_local[1]])
        if axis == "y":
            return np.array([p_local[1], p_local[2], p_local[0]])
        return p_local

    half = cfg.handle_length / 2.0
    add_cylinder(cfg.cylinder_mass, cfg.cylinder_radius, -half, half, "x")
    add_cylinder(cfg.cylinder_mass, cfg.cylinder_radius, 0.0, cfg.cylinder_length, "y")
    add_cylinder(cfg.cylinder_mass, cfg.cylinder_radius, 0.0, -cfg.cylinder_length, "y")
    add_cylinder(cfg.cylinder_mass, cfg.cylinder_radius, 0.0, cfg.cylinder_length, "z")
    add_cylinder(cfg.cylinder_mass, cfg.cylinder_radius, 0.0, -cfg.cylinder_length, "z")
    h, py, my, pz, mz = cfg.ring_positions
    add_ring(cfg.ring_mass, cfg.ring_radius, h, "x")
    add_ring(cfg.ring_mass, cfg.ring_radius, py, "y")
    add_ring(cfg.ring_mass, cfg.ring_radius, -my, "y")
    add_ring(cfg.ring_mass, cfg.ring_radius, pz, "z")
    add_ring(cfg.ring_mass, cfg.ring_radius, -mz, "z")
    return np.array(pts), np.array(masses)


def test_tensor_inertia_against_point_discretization():
    cfg = mid_config(ring_positions=np.array([0.17, 0.21, 0.04, 0.13, 0.08]))
    body = build_tensor_object(cfg)
    pts, masses = grid_points(cfg)
    assert np.isclose(masses.sum(), body.mass, rtol=1e-12)
    com = masses @ pts / masses.sum()
    assert np.allclose(com, body.com_pose.position, atol=1e-6)
    d = pts - com
    eye = np.eye(3)
    inertia = sum(m * ((d_ @ d_) * eye - np.outer(d_, d_))
                  for m, d_ in zip(masses, d))
    assert np.allclose(inertia, body.inertia, rtol=1e-2, atol=1e-8)


def test_ring_out_of_range():
    with pytest.raises(ValueError,
                       match=r"^handle ring at 0\.3 exceeds half-length 0\.25$"):
        mid_config(ring_positions=np.array([0.3, 0.1, 0.1, 0.1, 0.1]))
    with pytest.raises(ValueError,
                       match=r"^arm ring 1 at 0\.3 outside \[0, 0\.25\]$"):
        mid_config(ring_positions=np.array([0.0, 0.3, 0.1, 0.1, 0.1]))
    with pytest.raises(ValueError,
                       match=r"^arm ring 1 at -0\.01 outside \[0, 0\.25\]$"):
        mid_config(ring_positions=np.array([0.0, -0.01, 0.1, 0.1, 0.1]))
