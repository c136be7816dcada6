import warnings

import numpy as np
import pytest

from graspmass import (
    GraspCandidate,
    KineticEnergyMatrix,
    Pose,
    augment,
    com_energy_matrix,
    effective_mass,
    geometric_jacobian,
    mass_matrix,
    operational_space_inertia,
    skew,
    transform_to_grasp,
)
from graspmass.augmented import checked_energy_matrices, effective_masses
from graspmass.constants import PD_MIN_EIG
from graspmass.errors import DimensionMismatch, NotPositiveDefinite

from conftest import (
    NON_FINITE_CASES,
    cloud_inertia,
    euler_rate_map,
    impulse_oracle_mass,
    partition_inverse,
    poisoned,
    random_body,
    random_chain,
    random_grasp,
    random_rotation,
    with_lowest_eigenvalue,
)


def random_pd6(rng, scale=1.0):
    a = rng.normal(size=(6, 6))
    return KineticEnergyMatrix(a @ a.T * scale + 0.1 * np.eye(6))


def test_partition_inverse_matches_full_inverse():
    rng = np.random.default_rng(30)
    for _ in range(200):
        lam = random_pd6(rng)
        uu, uw, ww = partition_inverse(lam)
        full = np.linalg.inv(lam.matrix)
        tol = 1e-9 * np.abs(full).max()
        assert np.allclose(uu, full[:3, :3], atol=tol)
        assert np.allclose(uw, full[:3, 3:], atol=tol)
        assert np.allclose(ww, full[3:, 3:], atol=tol)
        # top-left block is the inverse Schur complement of the angular part
        m = lam.matrix
        schur = m[:3, :3] - m[:3, 3:] @ np.linalg.solve(m[3:, 3:], m[3:, :3])
        assert np.allclose(uu, np.linalg.inv(schur), atol=tol)


def test_partition_inverse_rejects_singular():
    # construction tolerates PSD, inversion must not
    lam = KineticEnergyMatrix(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(NotPositiveDefinite):
        partition_inverse(lam)


def test_augment_adds_matrices():
    a = KineticEnergyMatrix(np.diag([1.0, 2, 3, 4, 5, 6]))
    b = KineticEnergyMatrix(np.diag([6.0, 5, 4, 3, 2, 1]))
    assert np.allclose(augment(a, b).matrix, 7.0 * np.eye(6))


def test_effective_mass_blockdiag_example():
    lam = KineticEnergyMatrix(np.diag([2.0, 2, 2, 1, 1, 1]))
    em = effective_mass(lam, np.array([1.0, 0.0, 0.0]))
    assert np.isclose(em, 2.0, rtol=1e-12)


def test_effective_mass_against_impulse_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        body = random_body(rng)
        grasp = random_grasp(rng)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        lam_gp = transform_to_grasp(com_energy_matrix(body), grasp)
        got = effective_mass(lam_gp, v)
        want = impulse_oracle_mass(body, grasp, v)
        assert abs(got - want) < 1e-9 * want
        assert got <= body.mass * (1.0 + 1e-12)


def test_effective_mass_equals_total_when_r_parallel_v():
    rng = np.random.default_rng(32)
    for _ in range(50):
        body = random_body(rng)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        grasp = GraspCandidate("g", Pose(0.37 * v, np.eye(3)))
        lam_gp = transform_to_grasp(com_energy_matrix(body), grasp)
        em = effective_mass(lam_gp, v)
        assert np.isclose(em, body.mass, rtol=1e-10)


def test_whole_system_augmentation_identity():
    # lock a rigid body to the end effector and fold its reflected
    # inertia into the joint-space mass matrix; the task-space inertia
    # of that combined system must equal the sum of the two 6x6 models
    rng = np.random.default_rng(33)
    for trial in range(10):
        model = random_chain(rng, 7)
        q = rng.uniform(-1.2, 1.2, size=7)
        body = random_body(rng)
        grasp = random_grasp(rng, reach=0.25)
        lam_rob = operational_space_inertia(model, q).matrix
        lam_obj = transform_to_grasp(com_energy_matrix(body), grasp)

        # grasp frame kept axis-aligned with the world for this check
        rot = grasp.grasp_pose.rotation
        r = rot.T @ grasp.grasp_pose.position
        inertia_g = rot.T @ body.inertia @ rot
        lam6 = np.zeros((6, 6))
        lam6[:3, :3] = body.mass * np.eye(3)
        lam6[:3, 3:] = body.mass * skew(r)
        lam6[3:, :3] = body.mass * skew(r).T
        lam6[3:, 3:] = inertia_g + body.mass * skew(r).T @ skew(r)
        assert np.allclose(lam6, lam_obj.matrix, atol=1e-12)

        jac = geometric_jacobian(model, q)
        m_joint = mass_matrix(model, q) + jac.T @ lam6 @ jac
        lam_combined = np.linalg.inv(jac @ np.linalg.solve(m_joint, jac.T))
        want = lam_rob.matrix + lam6
        err = np.abs(lam_combined - want).max() / np.abs(want).max()
        assert err < 1e-9


def test_flipped_grasp_offset_breaks_the_identity():
    # same check with the grasp lever sign flipped must NOT hold;
    # guards against a silent sign convention swap in the coupling block
    rng = np.random.default_rng(34)
    worst = 0.0
    for trial in range(10):
        model = random_chain(rng, 7)
        q = rng.uniform(-1.2, 1.2, size=7)
        body = random_body(rng)
        grasp = random_grasp(rng, reach=0.25)
        rot = grasp.grasp_pose.rotation
        r = -(rot.T @ grasp.grasp_pose.position)
        inertia_g = rot.T @ body.inertia @ rot
        lam6 = np.zeros((6, 6))
        lam6[:3, :3] = body.mass * np.eye(3)
        lam6[:3, 3:] = body.mass * skew(r)
        lam6[3:, :3] = body.mass * skew(r).T
        lam6[3:, 3:] = inertia_g + body.mass * skew(r).T @ skew(r)
        lam_obj = transform_to_grasp(com_energy_matrix(body), grasp)
        jac = geometric_jacobian(model, q)
        m_joint = mass_matrix(model, q) + jac.T @ lam_obj.matrix @ jac
        lam_combined = np.linalg.inv(jac @ np.linalg.solve(m_joint, jac.T))
        want = operational_space_inertia(model, q).matrix.matrix + lam6
        worst = max(worst, np.abs(lam_combined - want).max())
    assert worst > 1e-4


def test_object_only_profiles_coincide_for_colinear_offsets():
    # two grasps offset purely along the motion direction feel the same
    # total mass when the robot's translational inertia is isotropic
    rng = np.random.default_rng(35)
    for _ in range(25):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        w = rng.normal(size=(3, 3))
        lam_rob = KineticEnergyMatrix(np.block([
            [3.7 * np.eye(3), np.zeros((3, 3))],
            [np.zeros((3, 3)), w @ w.T + 0.2 * np.eye(3)]]))
        body = random_body(rng)
        values = []
        for c in (0.05, 0.4):
            grasp = GraspCandidate("g", Pose(c * v, np.eye(3)))
            lam_obj = transform_to_grasp(com_energy_matrix(body), grasp)
            em = effective_mass(augment(lam_rob, lam_obj), v)
            values.append(em)
        assert np.isclose(values[0], values[1], rtol=1e-6)
        assert np.isclose(values[0], 3.7 + body.mass, rtol=1e-6)


def test_augmentation_never_reduces_effective_mass():
    rng = np.random.default_rng(36)
    for _ in range(100):
        lam_rob = random_pd6(rng)
        body = random_body(rng)
        grasp = random_grasp(rng)
        lam_obj = transform_to_grasp(com_energy_matrix(body), grasp)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        alone = effective_mass(lam_rob, v)
        combined = effective_mass(augment(lam_rob, lam_obj), v)
        assert combined >= alone - 1e-12


def test_effective_mass_is_invariant_to_euler_rate_coordinates():
    # E = blockdiag(I, B), so the translational block of (E^T L E)^-1 is
    # that of L^-1: the effective mass cannot depend on the Euler angles
    rng = np.random.default_rng(39)
    for _ in range(100):
        lam = random_pd6(rng)
        ypr = np.array([rng.uniform(-np.pi, np.pi), rng.uniform(-1.2, 1.2),
                        rng.uniform(-np.pi, np.pi)])
        e = euler_rate_map(ypr)
        lam_op = KineticEnergyMatrix(e.T @ lam.matrix @ e)
        assert np.allclose(np.linalg.inv(lam_op.matrix)[:3, :3],
                           np.linalg.inv(lam.matrix)[:3, :3],
                           rtol=1e-9, atol=0.0)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert np.isclose(effective_mass(lam_op, v),
                          effective_mass(lam, v), rtol=1e-9)


def test_effective_mass_direction_sign_invariant():
    rng = np.random.default_rng(37)
    lam = random_pd6(rng)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    assert np.isclose(effective_mass(lam, v),
                      effective_mass(lam, -v), rtol=1e-12)


@pytest.mark.parametrize("v", [[2.0, 0.0, 0.0], [0.0, 0.6, 0.6],
                               [0.0, 0.0, 1.0 + 2e-9], [0.0, 0.0, 0.0],
                               [float("nan"), 0.0, 0.0]])
def test_effective_mass_refuses_a_non_unit_direction(v):
    # refused before the solve, which would fail on this singular matrix
    lam = KineticEnergyMatrix(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^direction must be a unit vector$"):
            effective_mass(lam, np.array(v))


@pytest.mark.parametrize("rotation, message", [
    (2.0 * np.eye(3), "is not orthonormal"),
    (np.full((3, 3), np.nan), "is not orthonormal"),
    (np.diag([1.0, 1.0, -1.0]), "must have determinant"),
])
def test_expressed_in_refuses_a_matrix_that_is_not_a_rotation(rotation,
                                                              message):
    # a congruence by any other matrix changes the energy it must keep
    lam = KineticEnergyMatrix(np.diag([2.0, 2.0, 2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match=f"^rotation {message}"):
        lam.expressed_in(rotation)


def test_effective_mass_refuses_a_direction_that_is_not_a_3_vector():
    lam = KineticEnergyMatrix(np.diag([2.0, 2.0, 2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(DimensionMismatch,
                       match="^direction must be a 3-vector$"):
        effective_mass(lam, np.array([1.0, 0.0]))


def test_effective_mass_zero_direction_raises():
    rng = np.random.default_rng(39)
    with pytest.raises(ValueError):
        effective_mass(random_pd6(rng), np.zeros(3))


def test_effective_mass_continuous_in_matrix():
    rng = np.random.default_rng(41)
    lam = random_pd6(rng)
    v = np.array([0.0, 1.0, 0.0])
    base = effective_mass(lam, v)
    bump = rng.normal(size=(6, 6))
    bump = 1e-8 * (bump + bump.T) / 2.0
    shifted = effective_mass(KineticEnergyMatrix(lam.matrix + bump), v)
    assert abs(shifted - base) < 1e-4


def test_minimum_over_directions_is_inverse_top_eigenvalue():
    rng = np.random.default_rng(42)
    lam = random_pd6(rng)
    uu, _, _ = partition_inverse(lam)
    eigs, vecs = np.linalg.eigh(uu)
    v_star = vecs[:, -1]
    floor = 1.0 / eigs[-1]
    assert np.isclose(effective_mass(lam, v_star), floor, rtol=1e-10)
    for _ in range(200):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert effective_mass(lam, v) >= floor - 1e-12


def test_grasp_rotation_does_not_change_free_mass_along_rotated_direction():
    # rotating the grasp frame re-expresses the same physics
    rng = np.random.default_rng(43)
    for _ in range(25):
        body = random_body(rng)
        pos = rng.uniform(-0.3, 0.3, size=3)
        rot = random_rotation(rng)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        plain = effective_mass(
            transform_to_grasp(com_energy_matrix(body),
                               GraspCandidate("a", Pose(pos, np.eye(3)))), v)
        rotated = effective_mass(
            transform_to_grasp(com_energy_matrix(body),
                               GraspCandidate("b", Pose(pos, rot))), rot.T @ v)
        assert np.isclose(plain, rotated, rtol=1e-10)


def test_effective_mass_equals_the_block_inverse_oracle():
    # the library solves against [v, 0]; the oracle inverts explicitly
    rng = np.random.default_rng(44)
    for _ in range(500):
        lam = random_pd6(rng, scale=10.0 ** rng.uniform(-3.0, 3.0))
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        uu, _, _ = partition_inverse(lam)
        want = 1.0 / float(v @ uu @ v)
        assert abs(effective_mass(lam, v) - want) <= 1e-12 * want


def test_a_stack_gives_each_matrix_its_own_mass():
    rng = np.random.default_rng(45)
    stack = np.array([random_pd6(rng).matrix for _ in range(40)])
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    masses = effective_masses(stack, v)
    assert masses.shape == (40,)
    for m, got in zip(stack, masses):
        one = effective_mass(KineticEnergyMatrix(m), v)
        assert type(one) is float
        assert one == got == effective_masses(m[None], v)[0]


def test_effective_mass_rejects_a_singular_total():
    # construction tolerates PSD, the effective mass must not
    lam = KineticEnergyMatrix(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(NotPositiveDefinite, match="not positive definite"):
        effective_mass(lam, np.array([1.0, 0.0, 0.0]))



@pytest.mark.parametrize("value, where", NON_FINITE_CASES)
def test_energy_matrix_rejects_a_non_finite_entry(value, where):
    m = poisoned(np.diag([2.0, 2, 2, 1, 1, 1]), value, where)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^kinetic-energy matrix must be finite$"):
            KineticEnergyMatrix(m)


@pytest.mark.parametrize("value, where", NON_FINITE_CASES)
def test_effective_masses_rejects_a_non_finite_entry(value, where):
    stack = np.array([np.diag([2.0, 2, 2, 1, 1, 1])] * 3)
    stack[1] = poisoned(stack[1], value, where)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^augmented matrix must be finite$"):
            effective_masses(stack, np.array([1.0, 0.0, 0.0]))


def asymmetric():
    m = np.diag([2.0, 2, 2, 1, 1, 1])
    m[0, 4] = 1e-3
    return m


@pytest.mark.parametrize("m, error, message", [
    (asymmetric(), ValueError, "^kinetic-energy matrix must be symmetric$"),
    (np.eye(5), DimensionMismatch, r"^expected 6x6, got \(5, 5\)$"),
    (np.eye(6)[None], DimensionMismatch, r"^expected 6x6, got \(1, 6, 6\)$"),
], ids=["asymmetric", "5x5", "stack"])
def test_energy_matrix_refuses_an_asymmetric_or_misshapen_matrix(m, error,
                                                                 message):
    with pytest.raises(error, match=message):
        KineticEnergyMatrix(m)


def test_energy_check_tolerates_eigenvalues_down_to_minus_the_floor():
    rng = np.random.default_rng(46)
    stack = np.array([with_lowest_eigenvalue(rng, -0.5 * PD_MIN_EIG)
                      for _ in range(50)])
    checked_energy_matrices(stack)
    zero = np.zeros((6, 6))
    assert np.array_equal(checked_energy_matrices(zero), zero)


@pytest.mark.parametrize("k", [0, 3, 6])
def test_energy_check_rejects_an_eigenvalue_below_minus_the_floor(k):
    rng = np.random.default_rng(47)
    stack = np.array([with_lowest_eigenvalue(rng, 1.0) for _ in range(7)])
    checked_energy_matrices(stack)
    stack[k] = with_lowest_eigenvalue(rng, -2.0 * PD_MIN_EIG)
    with pytest.raises(NotPositiveDefinite, match="negative eigenvalue"):
        checked_energy_matrices(stack)


def test_effective_masses_needs_every_eigenvalue_above_the_floor():
    rng = np.random.default_rng(48)
    v = np.array([0.0, 0.6, 0.8])
    above = np.array([with_lowest_eigenvalue(rng, 2.0 * PD_MIN_EIG)
                      for _ in range(50)])
    assert (effective_masses(above, v) > 0.0).all()
    for k in (0, 21, 49):
        stack = above.copy()
        stack[k] = with_lowest_eigenvalue(rng, 0.5 * PD_MIN_EIG)
        with pytest.raises(NotPositiveDefinite, match="not positive definite"):
            effective_masses(stack, v)
