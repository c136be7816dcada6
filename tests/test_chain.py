import warnings

import numpy as np
import pytest

from graspmass import (
    ChainModel,
    JointSpec,
    LinkInertia,
    Pose,
    forward_kinematics,
    geometric_jacobian,
    inverse_kinematics,
    mass_matrix,
    operational_space_inertia,
)
from graspmass.chain import _checked_stack, _stacked_inertias
from graspmass.constants import OSI_DAMPING
from graspmass.errors import IkDidNotConverge

from conftest import (
    book_scene,
    fd_jacobian,
    link_energy,
    naive_ee_pose,
    pose_crba,
    pose_jacobian,
    pose_osi,
    random_chain,
    random_rotation,
    reference_frame_pass,
    tensor_scene,
)


def planar_pendulum(mass=1.3, length=0.7):
    # point mass at the rod tip, hinge about z
    joint = JointSpec(Pose.identity(), np.array([0.0, 0.0, 1.0]))
    link = LinkInertia(mass, np.array([length, 0.0, 0.0]), 1e-9 * np.eye(3))
    return ChainModel(((joint, link),), Pose.identity(),
                      Pose(np.array([length, 0.0, 0.0]), np.eye(3)))


def test_frame_pass_equals_pose_composition_exactly():
    # the frame pass does the arithmetic of composing Poses, in its order
    rng = np.random.default_rng(18)
    for dof in range(3, 8):
        model = random_chain(rng, dof)
        for _ in range(4):
            q = rng.uniform(-np.pi, np.pi, size=dof)
            ee = forward_kinematics(model, q)
            want = naive_ee_pose(model, q)
            assert isinstance(ee, Pose)
            assert np.array_equal(ee.position, want.position)
            assert np.array_equal(ee.rotation, want.rotation)
            assert np.array_equal(geometric_jacobian(model, q),
                                  pose_jacobian(model, q))
            assert np.array_equal(mass_matrix(model, q), pose_crba(model, q))


def test_frame_pass_equals_the_reference_on_rotated_frames():
    # random parent rotations, base and tool poses, so that the order of
    # every product and sum shows; the kernel of one configuration and
    # stacks of one and of several of its passes, with their Jacobians:
    # the kernel's cross products on plain floats give np.cross's bits
    from graspmass.chain import _one_pass, _stack
    rng = np.random.default_rng(31)
    for dof in (1, 3, 7):
        chain = random_chain(rng, dof)
        joints = tuple((JointSpec(Pose(j.parent_transform.position,
                                       random_rotation(rng)), j.axis), link)
                       for j, link in chain.joints)
        model = ChainModel(joints, Pose(rng.normal(size=3),
                                        random_rotation(rng)),
                           Pose(rng.normal(size=3), random_rotation(rng)))
        for count in (1, 5):
            qs = rng.uniform(-np.pi, np.pi, size=(count, dof))
            passes = [_one_pass(model, q) for q in qs]
            got = _stack(passes)
            want = reference_frame_pass(model, qs)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            for k, (q, one) in enumerate(zip(qs, passes)):
                reference = reference_frame_pass(model, q[None])
                for field, a, b in zip(one._fields, one, reference):
                    assert a.shape == b.shape[1:], field
                    assert np.array_equal(a, b[0]), field
                assert np.array_equal(got.jacobian[k], reference.jacobian[0])


def test_frame_pass_skips_identity_parent_rotations_bit_for_bit():
    # the pass skips the product by a parent rotation that is exactly the
    # identity; mixed with turned joints under a rotated base, each field
    # keeps the reference's bytes, signed zeros included
    from graspmass.chain import _one_pass
    rng = np.random.default_rng(33)
    chain = random_chain(rng, 7)
    joints = tuple((JointSpec(Pose(j.parent_transform.position,
                                   random_rotation(rng) if k % 2 else
                                   np.eye(3)), j.axis), link)
                   for k, (j, link) in enumerate(chain.joints))
    model = ChainModel(joints, Pose(rng.normal(size=3), random_rotation(rng)),
                       chain.tool_transform)
    assert [turn is None for turn in model._arrays.turns] == [
        True, False, True, False, True, False, True]
    for q in rng.uniform(-np.pi, np.pi, size=(1000, 7)):
        got, want = _one_pass(model, q), reference_frame_pass(model, q[None])
        for field, a, b in zip(got._fields, got, want):
            assert a.tobytes() == b[0].tobytes(), field


def wrist_chain(rng):
    """Three random joints, then a spherical wrist (z, y, z about one
    point): at q[4] = 0 the axes of joints 4 and 6 coincide, so the
    Jacobian loses rank exactly there."""
    model = random_chain(rng, 3)
    links = [link for _, link in random_chain(rng, 3).joints]
    offsets = ([0.0, 0.0, 0.3], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    axes = ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    wrist = tuple((JointSpec(Pose(np.array(offset), np.eye(3)),
                             np.array(axis)), link)
                  for offset, axis, link in zip(offsets, axes, links))
    return ChainModel(model.joints + wrist, Pose.identity(),
                      model.tool_transform)


def batched_osi(model, qs):
    """Task-space inertias of the stacked kernel passes of ``qs``, as the
    sweep builds them from its IK passes."""
    # the flag is the only signal for a near-singular sample: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _stacked_inertias(model, _checked_stack(model, qs))


def test_batched_osi_equals_per_sample_reference_exactly():
    # 3-5 joints never span the task space: every sample counts as
    # near singular (min sv 0) and is damped
    rng = np.random.default_rng(20)
    for dof in range(3, 8):
        model = random_chain(rng, dof)
        qs = rng.uniform(-np.pi, np.pi, size=(6, dof))
        matrices, near_singular = batched_osi(model, qs)
        want = [pose_osi(model, q) for q in qs]
        assert matrices.shape == (6, 6, 6)
        assert np.array_equal(matrices, [lam for lam, _ in want])
        assert near_singular.tolist() == [near for _, near in want]
        assert near_singular.all() == (dof < 6)
        for q, lam in zip(qs, matrices):
            assert np.array_equal(operational_space_inertia(model, q)
                                  .matrix.matrix, lam)


def test_batched_osi_damps_and_flags_only_the_singular_sample():
    rng = np.random.default_rng(21)
    model = wrist_chain(rng)
    qs = rng.uniform(-1.0, 1.0, size=(5, 6))
    qs[:, 4] = rng.uniform(0.3, 1.0, size=5)
    qs[2, 4] = 0.0
    matrices, near_singular = batched_osi(model, qs)
    assert near_singular.tolist() == [False, False, True, False, False]
    assert np.array_equal(matrices, [pose_osi(model, q)[0] for q in qs])
    # the flagged sample is (J M^-1 J^T + OSI_DAMPING^2 I)^-1: J M^-1 J^T
    # is singular, so its largest eigenvalue is the damping's 1/lambda^2
    jac = pose_jacobian(model, qs[2])
    a = jac @ np.linalg.solve(pose_crba(model, qs[2]), jac.T)
    assert np.linalg.eigvalsh((a + a.T) / 2.0)[0] < 1e-12
    assert np.isfinite(matrices[2]).all()
    assert np.isclose(np.linalg.eigvalsh(matrices[2])[-1],
                      1.0 / OSI_DAMPING**2, rtol=1e-6)
    assert not matrices.flags.writeable


KINEMATICS = [
    forward_kinematics,
    geometric_jacobian,
    mass_matrix,
    operational_space_inertia,
    lambda model, q: inverse_kinematics(
        model, forward_kinematics(model, np.zeros(model.dof)), q),
]


@pytest.mark.parametrize("fn", KINEMATICS,
                         ids=["fk", "jacobian", "mass_matrix", "osi", "ik"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_joint_values_raise(fn, bad):
    model = random_chain(np.random.default_rng(19), 5)
    q = np.full(5, 0.3)
    q[2] = bad
    with pytest.raises(ValueError, match="finite"):
        fn(model, q)
    with pytest.raises(ValueError, match="finite"):
        fn(model, q.tolist())


def test_a_chain_needs_a_joint():
    with pytest.raises(ValueError, match="^chain needs at least one joint$"):
        ChainModel((), Pose.identity(), Pose.identity())


def test_an_end_effector_position_that_overflows_is_refused():
    # two finite offsets whose sum is past the float range
    far = JointSpec(Pose([1e308, 0.0, 0.0], np.eye(3)), [0.0, 0.0, 1.0])
    link = LinkInertia(1.0, np.zeros(3), np.eye(3))
    model = ChainModel(((far, link), (far, link)), Pose.identity(),
                       Pose.identity())
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError,
                           match="^end-effector position must be finite$"):
            forward_kinematics(model, np.zeros(2))


def test_pendulum_mass_matrix():
    m, l = 1.3, 0.7
    model = planar_pendulum(m, l)
    got = mass_matrix(model, np.array([0.4]))
    assert got.shape == (1, 1)
    assert np.isclose(got[0, 0], m * l * l, rtol=1e-6)


def test_forward_kinematics_matches_naive_composition():
    rng = np.random.default_rng(10)
    for dof in range(3, 8):
        model = random_chain(rng, dof)
        for _ in range(5):
            q = rng.uniform(-2.0, 2.0, size=dof)
            got = forward_kinematics(model, q)
            want = naive_ee_pose(model, q)
            assert np.allclose(got.position, want.position, atol=1e-12)
            assert np.allclose(got.rotation, want.rotation, atol=1e-12)


def test_jacobian_against_finite_differences():
    rng = np.random.default_rng(11)
    for dof in range(3, 8):
        model = random_chain(rng, dof)
        q = rng.uniform(-1.5, 1.5, size=dof)
        err = np.abs(geometric_jacobian(model, q) - fd_jacobian(model, q)).max()
        assert err < 1e-5


def test_mass_matrix_symmetric_and_pd():
    rng = np.random.default_rng(12)
    model = random_chain(rng, 6)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, size=6)
        m = mass_matrix(model, q)
        assert np.abs(m - m.T).max() < 1e-10
        assert np.linalg.eigvalsh(m).min() > 0.0


def test_mass_matrix_energy_against_link_sum():
    rng = np.random.default_rng(13)
    for dof in range(3, 8):
        model = random_chain(rng, dof)
        q = rng.uniform(-2.0, 2.0, size=dof)
        qdot = rng.uniform(-1.0, 1.0, size=dof)
        via_m = 0.5 * qdot @ mass_matrix(model, q) @ qdot
        via_links = link_energy(model, q, qdot)
        assert abs(via_m - via_links) < 1e-9 * max(1.0, abs(via_links))


def test_joint_energy_dominates_task_energy():
    # projecting dynamics to the end effector can only lose kinetic energy
    rng = np.random.default_rng(14)
    model = random_chain(rng, 7)
    for _ in range(25):
        q = rng.uniform(-1.5, 1.5, size=7)
        qdot = rng.uniform(-1.0, 1.0, size=7)
        m = mass_matrix(model, q)
        jac = geometric_jacobian(model, q)
        osi = operational_space_inertia(model, q)
        xdot = jac @ qdot
        joint_side = 0.5 * qdot @ m @ qdot
        task_side = 0.5 * xdot @ osi.matrix.matrix @ xdot
        assert task_side <= joint_side + 1e-8


def test_osi_inverts_j_minv_jt():
    rng = np.random.default_rng(15)
    model = random_chain(rng, 7)
    q = rng.uniform(-1.0, 1.0, size=7)
    osi = operational_space_inertia(model, q)
    assert not osi.near_singular
    minv_jt = np.linalg.solve(mass_matrix(model, q), geometric_jacobian(model, q).T)
    product = osi.matrix.matrix @ geometric_jacobian(model, q) @ minv_jt
    assert np.abs(product - np.eye(6)).max() < 1e-8


def test_osi_regression_at_shipped_start_config():
    scene = book_scene()
    osi = operational_space_inertia(scene.chain, scene.ik_seed)
    assert not osi.near_singular
    want = [4.20197627, 1.78649208, 1.30213506,
            0.0276147414, 0.000183750002, 0.120718007]
    assert np.allclose(np.diag(osi.matrix.matrix), want, rtol=1e-6)


def test_osi_flags_singular_configuration():
    # a 2-dof chain with parallel z axes is always singular in 6-d task space
    joints = tuple(
        (JointSpec(Pose(np.array([0.3, 0.0, 0.0]), np.eye(3)),
                   np.array([0.0, 0.0, 1.0])),
         LinkInertia(1.0, np.array([0.15, 0.0, 0.0]), 1e-3 * np.eye(3)))
        for _ in range(2))
    model = ChainModel(joints, Pose.identity(),
                       Pose(np.array([0.3, 0.0, 0.0]), np.eye(3)))
    osi = operational_space_inertia(model, np.array([0.3, 0.5]))
    assert osi.near_singular
    assert np.all(np.isfinite(osi.matrix.matrix))


def test_wrong_q_length_raises():
    rng = np.random.default_rng(16)
    model = random_chain(rng, 4)
    with pytest.raises(ValueError,
                       match=r"^expected 4 joint values, got \(5,\)$"):
        forward_kinematics(model, np.zeros(5))
    with pytest.raises(ValueError,
                       match=r"^expected 4 joint values, got \(3,\)$"):
        mass_matrix(model, np.zeros(3))


def test_ik_fixed_point():
    scene = book_scene()
    target = forward_kinematics(scene.chain, scene.ik_seed)
    q = inverse_kinematics(scene.chain, target, scene.ik_seed)
    assert np.allclose(q, scene.ik_seed, atol=1e-6)


def test_ik_returns_a_read_only_joint_vector():
    scene = book_scene()
    assert scene.ik_seed.shape == (scene.chain.dof,)
    assert not scene.ik_seed.flags.writeable
    seed = np.array(scene.ik_seed)
    q = inverse_kinematics(scene.chain,
                           forward_kinematics(scene.chain, seed), seed)
    assert q.shape == (scene.chain.dof,)
    assert not q.flags.writeable
    assert seed.flags.writeable  # the caller's seed is left as it was


def test_ik_neither_returns_nor_freezes_an_in_limits_seed():
    # a seed inside the limits is used as it is: at its own pose it comes
    # back, and a failed solve's best iterate may be it, each in a copy
    scene = book_scene()
    seed = np.array(scene.ik_seed)
    q = inverse_kinematics(scene.chain,
                           forward_kinematics(scene.chain, seed), seed)
    assert np.array_equal(q, seed) and not np.shares_memory(q, seed)
    far = Pose(np.array([4.0, 0.0, 0.03]), scene.start.rotation)
    with pytest.raises(IkDidNotConverge) as exc:
        inverse_kinematics(scene.chain, far, seed)
    assert not np.shares_memory(exc.value.best_q, seed)
    assert seed.flags.writeable


def test_a_singular_damped_system_raises_as_numpy_solve_does():
    # two joints 4.6e11 m apart: J Jᵀ has rank 2 and λ² vanishes next to
    # its entries, so the solve's LU meets a zero pivot
    scene = book_scene()
    (first, link), (second, far_link) = scene.chain.joints[:2]
    far = JointSpec(Pose([-2.9e11, 3.6e11, 0.0], np.eye(3)), second.axis,
                    second.limits)
    chain = ChainModel(((first, link), (far, far_link)),
                       scene.chain.base_pose, scene.chain.tool_transform)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            inverse_kinematics(chain, scene.start, scene.ik_seed[:2])


def test_ik_recovers_perturbed_pose():
    scene = book_scene()
    rng = np.random.default_rng(17)
    for _ in range(10):
        dq = rng.uniform(-0.05, 0.05, size=scene.chain.dof)
        target = forward_kinematics(scene.chain, scene.ik_seed + dq)
        q = inverse_kinematics(scene.chain, target, scene.ik_seed)
        reached = forward_kinematics(scene.chain, q)
        assert np.linalg.norm(reached.position - target.position) < 1e-4
        assert np.abs(reached.rotation - target.rotation).max() < 1e-3


def test_ik_respects_joint_limits():
    scene = book_scene()
    target = forward_kinematics(scene.chain, scene.ik_seed)
    q = inverse_kinematics(scene.chain, target, scene.ik_seed)
    limits = np.array([joint.limits for joint, _ in scene.chain.joints])
    assert np.all(q >= limits[:, 0] - 1e-12)
    assert np.all(q <= limits[:, 1] + 1e-12)


def test_ik_unreachable_reports_best_effort():
    scene = book_scene()
    target = Pose(np.array([5.0, 0.0, 0.3]), np.eye(3))
    with pytest.raises(IkDidNotConverge) as exc:
        inverse_kinematics(scene.chain, target, scene.ik_seed)
    err = exc.value
    assert err.best_q is not None
    assert err.best_q.shape == (scene.chain.dof,)
    assert not err.best_q.flags.writeable
    assert err.pos_err > 1.0
    # a lone solve has no sample to name
    assert str(err).startswith("no convergence")
    assert err.sample_index is None
