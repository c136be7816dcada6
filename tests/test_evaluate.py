import dataclasses
import random
import re
import warnings

import numpy as np
import pytest

from graspmass import (
    Aggregator,
    ChainModel,
    GraspCandidate,
    JointSpec,
    KineticEnergyMatrix,
    Pose,
    RigidBodyInertia,
    augment,
    build_cuboid,
    com_energy_matrix,
    effective_mass,
    fit_quintic,
    forward_kinematics,
    geometric_jacobian,
    inverse_kinematics,
    mass_matrix,
    operational_space_inertia,
    parse_aggregator,
    rank_grasps,
    sample,
    score,
    sweep,
    transform_to_grasp,
)
from graspmass.chain import _checked_stack, _stacked_inertias
from graspmass.errors import IkDidNotConverge, NotPositiveDefinite

from conftest import (book_scene, count_frame_passes, direction_at,
                      partition_inverse, reference_sweep, tensor_scene,
                      turned_chain)


def flags(n, flagged=()):
    """``n`` near-singular flags, set at the indices in ``flagged``."""
    return np.array([i in flagged for i in range(n)])


def test_profiles_have_expected_shape():
    scene = book_scene()
    traj = scene.fit()
    arm = sweep(scene.chain, traj, scene.dt, scene.ik_seed)
    masses = score(arm, scene.bodies[:1], scene.grasps[:1])
    assert masses.shape == (1, 20)
    assert masses.dtype == float
    assert np.all(masses > 0.0)
    assert np.isclose(arm.times[0], 0.1)
    assert np.isclose(arm.times[-1], 2.0)
    assert arm.near_singular.dtype == bool
    assert not arm.near_singular.any()


def test_tiny_object_reduces_to_robot_alone():
    scene = book_scene()
    traj = scene.fit()
    crumb = RigidBodyInertia(1e-9, Pose.identity(), 1e-12 * np.eye(3))
    grasp = GraspCandidate("crumb", Pose.identity())
    row = score(sweep(scene.chain, traj, scene.dt, scene.ik_seed), [crumb],
                [grasp])[0]
    samples = sample(traj, scene.dt)
    for samp, got in zip(samples, row):
        # robot-only reference, computed directly
        from graspmass import inverse_kinematics
        state = inverse_kinematics(scene.chain, samp.pose, scene.ik_seed)
        osi = operational_space_inertia(scene.chain, state)
        want = effective_mass(osi.matrix, direction_at(samp, samples))
        assert abs(got - want) < 1e-3 * want


def test_object_mass_scaling_is_monotone():
    scene = book_scene()
    traj = scene.fit()
    base = build_cuboid(0.34, (0.15, 0.22, 0.015))
    grasp = scene.grasps[2]
    arm = sweep(scene.chain, traj, scene.dt, scene.ik_seed)
    prev = score(arm, [base], [grasp])[0]
    for alpha in (1.5, 2.0, 5.0):
        scaled = RigidBodyInertia(alpha * base.mass, base.com_pose,
                                  alpha * base.inertia)
        cur = score(arm, [scaled], [grasp])[0]
        assert np.all(cur >= prev - 1e-10)
        prev = cur


def test_sweep_and_score_are_deterministic():
    scene = book_scene()
    traj = scene.fit()
    arms = [sweep(scene.chain, traj, scene.dt, scene.ik_seed)
            for _ in range(3)]
    tables = [score(arm, scene.bodies, scene.grasps) for arm in arms]
    for arm, masses in zip(arms[1:], tables[1:]):
        assert np.array_equal(masses, tables[0])
        assert np.array_equal(arm.times, arms[0].times)


def test_score_body_list_must_align():
    # zip would silently drop the grasps (or bodies) past the shorter list
    scene = book_scene()
    arm = scene.evaluated(scene.dt)[0]
    for bodies, grasps in ((scene.bodies[:2], scene.grasps),
                           (scene.bodies, scene.grasps[:2])):
        with pytest.raises(ValueError, match="^one body per grasp required$"):
            score(arm, bodies, grasps)


def test_ik_failure_names_the_sample():
    scene = book_scene()
    start = Pose(np.array([1.0, 0.0, 0.03]), scene.start.rotation)
    far = Pose(np.array([4.0, 0.0, 0.03]), scene.start.rotation)
    traj = fit_quintic(start, far, 2.0)
    with pytest.raises(IkDidNotConverge) as exc:
        sweep(scene.chain, traj, scene.dt, scene.ik_seed)
    assert exc.value.sample_index is not None
    assert exc.value.sample_index >= 1
    assert "sample" in str(exc.value)


def test_rank_grasps_sorts_ascending_with_id_tiebreak():
    masses = np.array([[2.0, 1.0], [2.0, 1.0], [0.5, 0.4]])
    report = rank_grasps(["b", "a", "c"], masses, flags(2),
                         aggregator="max")
    assert report.grasp_ids == ("c", "a", "b")
    assert report.aggregates == (0.5, 2.0, 2.0)
    assert report.aggregator == "max"


def test_rank_grasps_rejects_empty_and_duplicates():
    with pytest.raises(ValueError, match="^no grasps to rank$"):
        rank_grasps([], np.empty((0, 2)), flags(2))


@pytest.mark.parametrize("aggregator", ["max", "mean", "at-sample=1"])
def test_rank_grasps_refuses_a_table_without_samples(aggregator):
    # max of nothing is numpy's raw ValueError, mean of nothing NaN with
    # RuntimeWarnings: neither is an order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^no samples to rank$"):
            rank_grasps(["a", "b"], np.empty((2, 0)), flags(0), aggregator)


@pytest.mark.parametrize("k", [2.5, 2.0, True, False, None, 0, -1, "2"],
                         ids=["fraction", "integral-float", "true", "false",
                              "none", "zero", "negative", "text"])
def test_at_sample_needs_an_integer_index_of_at_least_one(k):
    # a float index is numpy's raw IndexError, and True ranked at sample 1
    # under the name at-sample=True
    with pytest.raises(ValueError, match="1-based integer sample index"):
        Aggregator("at_sample", k)


def test_at_sample_takes_a_numpy_integer():
    agg = Aggregator("at_sample", np.int64(2))
    values, _ = agg(np.array([[1.0, 2.0, 6.0]]), flags(3))
    assert values.tolist() == [2.0]
    assert agg.name == "at-sample=2"


def test_aggregator_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown aggregator 'median'$"):
        Aggregator("median")


@pytest.mark.parametrize("kind, k", [("max", 3), ("mean", 1), ("max", 0)])
def test_max_and_mean_refuse_a_sample_index(kind, k):
    # the index would be ignored
    with pytest.raises(ValueError, match=f"^{kind} takes no sample index$"):
        Aggregator(kind, k)


@pytest.mark.parametrize("ids, shape, n", [
    (["a", "b"], (3, 2), 2),        # a grasp without its id
    (["a", "b", "c"], (2, 2), 2),   # an id without its row
    (["a", "b"], (2, 3), 2),        # a sample without its flag
    (["a", "b"], (2, 2), 3),        # a flag without its sample
    (["a", "b"], (2,), 2),          # not a table
], ids=["extra-row", "missing-row", "extra-column", "missing-column",
        "vector"])
def test_rank_grasps_refuses_a_misaligned_table(ids, shape, n):
    # zip would silently drop the grasps past the shorter of ids and rows
    message = (f"^mass table {re.escape(str(shape))} for {len(ids)} "
               rf"grasp\(s\) and {n} sample\(s\)$")
    with pytest.raises(ValueError, match=message):
        rank_grasps(ids, np.ones(shape), flags(n))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_rank_grasps_refuses_a_mass_that_is_not_finite_and_positive(bad):
    # a NaN compares false both ways, so sorting would order it at random
    masses = np.array([[2.0, 2.5], [1.5, bad], [1.0, bad]])
    with pytest.raises(ValueError, match="^grasp b: effective masses must "
                       "be finite and positive$"):
        rank_grasps(["a", "b", "c"], masses, flags(2))


def test_a_mean_whose_sum_overflows_is_finite():
    # only the row whose sum overflows is summed over its length; the
    # others keep the bits of their plain mean
    masses = np.array([[1.7e308, 1.5e308, 1.6e308], [0.1, 0.2, 0.7]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, note = Aggregator("mean")(masses, flags(3))
    assert values[0] == (masses[0] / 3).sum()
    assert values[1] == masses[1].mean()
    assert note is None


def test_mean_aggregator_uses_all_samples():
    agg = Aggregator("mean")
    values, note = agg(np.array([[1.0, 2.0, 6.0]]), flags(3, (2,)))
    assert np.isclose(values[0], 3.0)
    assert note is None


@pytest.mark.parametrize("name, dt", [("book", None), ("book", 0.01),
                                      ("tensor", None)],
                         ids=["book", "book-dt-0.01", "tensor"])
def test_mean_aggregate_is_each_rows_own_mean(name, dt):
    scene = tensor_scene() if name == "tensor" else book_scene()
    arm, masses = scene.evaluated(scene.dt if dt is None else dt)
    ids = [g.id for g in scene.grasps]
    report = rank_grasps(ids, masses, arm.near_singular, "mean")
    got = dict(zip(report.grasp_ids, report.aggregates))
    for gid, row in zip(ids, masses):
        assert got[gid] == float(row.mean())


def test_at_sample_aggregator_picks_and_flags():
    agg = Aggregator("at_sample", k=2)
    masses = np.array([[1.0, 2.0, 6.0]])
    values, note = agg(masses, flags(3))
    assert values[0] == 2.0 and note is None
    values, note = agg(masses, flags(3, (1,)))
    assert values[0] == 2.0
    assert "near singular" in note
    with pytest.raises(ValueError):
        agg(np.array([[1.0]]), flags(1))


def test_max_aggregator_skips_near_singular_samples():
    agg = Aggregator("max")
    masses = np.array([[1.0, 2.0, 9.0]])
    values, note = agg(masses, flags(3, (2,)))
    assert values[0] == 2.0
    assert "excluded 1" in note
    values, note = agg(masses, flags(3, (0, 1, 2)))
    assert values[0] == 9.0
    assert "all samples near singular" in note


def test_ranking_notes_name_every_grasp_in_input_order():
    masses = np.array([[3.0, 2.0, 9.0], [1.0, 2.0, 9.0]])
    report = rank_grasps(["b", "a"], masses, flags(3, (2,)))
    assert report.grasp_ids == ("a", "b")
    assert report.notes == (
        "b: excluded 1 near-singular sample(s) from max",
        "a: excluded 1 near-singular sample(s) from max")
    report = rank_grasps(["b", "a"], masses, flags(3, (1,)), "at-sample=2")
    assert report.notes == ("b: collision sample 2 is near singular",
                            "a: collision sample 2 is near singular")


def test_parse_aggregator_variants():
    assert parse_aggregator("max").kind == "max"
    assert parse_aggregator("mean").kind == "mean"
    agg = parse_aggregator("at-sample=7")
    assert (agg.kind, agg.k) == ("at_sample", 7)
    assert parse_aggregator("at_sample=3").k == 3
    with pytest.raises(ValueError):
        parse_aggregator("median")
    with pytest.raises(ValueError):
        parse_aggregator("at-sample=zero")


def test_batched_masses_match_per_sample_reference():
    # the scalar path, one sample and one grasp at a time, is the reference;
    # its last step is the explicit block inverse, not the library's solve
    scene = book_scene()
    traj = scene.fit()
    samples = sample(traj, scene.dt)
    masses = score(sweep(scene.chain, traj, scene.dt, scene.ik_seed),
                   scene.bodies, scene.grasps)
    q = inverse_kinematics(scene.chain,
                           Pose(traj.position(0.0), traj.start_rotation),
                           scene.ik_seed)
    lam_rob = []
    for samp in samples:
        q = inverse_kinematics(scene.chain, samp.pose, q)
        lam_rob.append(operational_space_inertia(scene.chain, q).matrix)
    for row, body, grasp in zip(masses, scene.bodies, scene.grasps):
        lam_gp = transform_to_grasp(com_energy_matrix(body), grasp)
        for samp, lam, got in zip(samples, lam_rob, row):
            lam_tot = augment(lam, lam_gp.expressed_in(samp.pose.rotation))
            v = direction_at(samp, samples)
            lam_u_inv, _, _ = partition_inverse(lam_tot)
            want = 1.0 / float(v @ lam_u_inv @ v)
            assert abs(got - want) <= 1e-12 * want


def pitched_path(scene, pitch):
    start = Pose.from_ypr([0.8, 0.0, 0.3], [0.0, pitch, 0.0])
    end = Pose.from_ypr([0.8, 0.1, 0.3], [0.0, pitch, 0.0])
    return fit_quintic(start, end, scene.t_f)


def test_pitch_at_gimbal_lock_evaluates():
    # ZYX Euler angles are singular at pitch pi/2; the effective mass is not
    scene = book_scene()
    at, near = (score(sweep(scene.chain, pitched_path(scene, pitch),
                            scene.dt, scene.ik_seed),
                      scene.bodies, scene.grasps)
                for pitch in (np.pi / 2, np.pi / 2 - 1e-3))
    assert np.all(np.isfinite(at))
    assert np.allclose(at, near, rtol=1e-3, atol=0.0)


def test_profiles_do_not_depend_on_grasp_order():
    scene = book_scene()
    traj = scene.fit()
    pairs = list(zip(scene.grasps, scene.bodies))
    random.Random(7).shuffle(pairs)
    grasps, bodies = zip(*pairs)
    arm = sweep(scene.chain, traj, scene.dt, scene.ik_seed)
    ref = dict(zip((g.id for g in scene.grasps),
                   score(arm, scene.bodies, scene.grasps)))
    shuffled = score(arm, bodies, grasps)
    assert shuffled.shape == (len(grasps), len(arm.times))
    for grasp, row in zip(grasps, shuffled):
        assert np.array_equal(row, ref[grasp.id])


def test_single_grasp_equals_its_row_of_the_batch():
    for scene in (tensor_scene(), book_scene()):
        arm = sweep(scene.chain, scene.fit(), scene.dt, scene.ik_seed)
        batch = score(arm, scene.bodies, scene.grasps)
        for k, row in enumerate(batch):
            one = score(arm, scene.bodies[k:k + 1], scene.grasps[k:k + 1])
            assert np.array_equal(one, row[None])


def test_non_positive_definite_total_is_rejected(monkeypatch):
    # a massless arm plus a near-massless object leaves nothing to invert
    import graspmass.chain as chain_module
    monkeypatch.setattr(chain_module, "_stacked_inertias",
                        lambda chain, frames: (
                            np.zeros((len(frames.origins), 6, 6)),
                            np.zeros(len(frames.origins), dtype=bool)))
    scene = book_scene()
    speck = RigidBodyInertia(1e-14, Pose.identity(), 1e-15 * np.eye(3))
    with pytest.raises(NotPositiveDefinite, match="^grasp speck-7: augmented "
                       "matrix not positive definite"):
        score(sweep(scene.chain, scene.fit(), scene.dt, scene.ik_seed),
              [speck], [GraspCandidate("speck-7", Pose.identity())])


def test_a_failing_total_is_named_by_its_grasp_among_several(monkeypatch):
    # with a massless arm only the near-massless middle object fails
    import graspmass.chain as chain_module
    monkeypatch.setattr(chain_module, "_stacked_inertias",
                        lambda chain, frames: (
                            np.zeros((len(frames.origins), 6, 6)),
                            np.zeros(len(frames.origins), dtype=bool)))
    scene = book_scene()
    arm = sweep(scene.chain, scene.fit(), scene.dt, scene.ik_seed)
    book = scene.bodies[0]
    speck = RigidBodyInertia(1e-14, Pose.identity(), 1e-15 * np.eye(3))
    grasps = [GraspCandidate(name, Pose.identity())
              for name in ("first", "speck-2", "last")]
    assert len(score(arm, [book, book], grasps[::2])) == 2
    with pytest.raises(NotPositiveDefinite, match="^grasp speck-2: augmented "
                       "matrix not positive definite"):
        score(arm, [book, speck, book], grasps)


def public_ik_chain(chain, traj, dt, seed):
    """Joint solutions along the grid from public IK calls, each seeded
    with the previous result, the start pose first."""
    q = inverse_kinematics(chain, Pose(traj.position(0.0),
                                       traj.start_rotation), seed)
    qs = []
    for samp in sample(traj, dt):
        q = inverse_kinematics(chain, samp.pose, q)
        qs.append(q)
    return np.array(qs)


def out_of_limits_seed(scene):
    seed = scene.ik_seed.copy()
    seed[0] = scene.chain.joints[0][0].limits[1] + 0.5
    return seed


SWEEP_PATHS = ["book", "book-dt-0.01", "tensor", "pitch-pi/2",
               "seed-out-of-limits", "book-turned"]


def turned_book():
    """Book's scene with its arm's joint frames turned (``turned_chain``):
    the order of every product in the kinematics shows in the bits."""
    scene = book_scene()
    return dataclasses.replace(
        scene, chain=turned_chain(scene.chain, np.random.default_rng(24)))


def sweep_case(path):
    """(scene, trajectory, dt, IK seed) of one ``SWEEP_PATHS`` case."""
    scene = {"tensor": tensor_scene,
             "book-turned": turned_book}.get(path, book_scene)()
    traj = (pitched_path(scene, np.pi / 2) if path == "pitch-pi/2"
            else scene.fit())
    dt = 0.01 if path == "book-dt-0.01" else scene.dt
    seed = (out_of_limits_seed(scene) if path == "seed-out-of-limits"
            else scene.ik_seed)
    return scene, traj, dt, seed


def test_turned_book_is_book_arm():
    # the same arm in other joint frames: the same poses, mass matrices
    # and task-space inertias, and IK follows book's path
    book, turned = book_scene(), turned_book()
    assert not any(np.array_equal(joint.parent_transform.rotation, np.eye(3))
                   for joint, _ in turned.chain.joints)
    rng = np.random.default_rng(5)
    for q in rng.uniform(-1.0, 1.0, size=(4, book.chain.dof)):
        want, got = (forward_kinematics(s.chain, q) for s in (book, turned))
        assert np.allclose(got.position, want.position, rtol=0, atol=1e-12)
        assert np.allclose(got.rotation, want.rotation, rtol=0, atol=1e-12)
        assert np.allclose(mass_matrix(turned.chain, q),
                           mass_matrix(book.chain, q), rtol=1e-9, atol=1e-12)
    want, got = (sweep(s.chain, s.fit(), s.dt, s.ik_seed)
                 for s in (book, turned))
    assert np.allclose(got.lam_rob, want.lam_rob, rtol=1e-6)


def recorded_sweep(monkeypatch, chain, traj, dt, seed):
    """``chain.sweep`` and the joint solution of each of its IK solves,
    the start pose's first. Recording stops when the sweep returns:
    ``inverse_kinematics`` calls the same ``_ik``."""
    import graspmass.chain as chain_module
    solve, solved = chain_module._ik, []

    def recording_ik(*args):
        result = solve(*args)
        solved.append(result[0])
        return result

    with monkeypatch.context() as patch:
        patch.setattr(chain_module, "_ik", recording_ik)
        return chain_module.sweep(chain, traj, dt, seed), solved


@pytest.mark.parametrize("path", SWEEP_PATHS)
def test_sweep_with_carried_frames_equals_public_ik_chain(path, monkeypatch):
    # the sweep hands each solve the previous frame pass; the joint
    # solutions and the arm's inertias must keep the bits of plain calls
    scene, traj, dt, seed = sweep_case(path)
    arm, solved = recorded_sweep(monkeypatch, scene.chain, traj, dt, seed)
    want = public_ik_chain(scene.chain, traj, dt, seed)
    assert len(solved) == len(arm.times) + 1
    assert np.array_equal(solved[1:], want)
    assert np.array_equal(arm.lam_rob, [
        operational_space_inertia(scene.chain, q).matrix.matrix for q in want])


@pytest.mark.parametrize("path", SWEEP_PATHS)
def test_sweep_equals_the_reference_arithmetic(path, monkeypatch):
    # the lean IK loop and frame pass must reach the bits of numpy's own
    # norms, clipping and per-joint origins
    scene, traj, dt, seed = sweep_case(path)
    arm, solved = recorded_sweep(monkeypatch, scene.chain, traj, dt, seed)
    qs, lam_rob = reference_sweep(scene.chain, traj, dt, seed)
    assert np.array_equal(solved[1:], qs)
    assert np.array_equal(arm.lam_rob, lam_rob)


def skewed_chain(chain):
    """``chain`` with each parent rotation scaled by 1 + 3e-10: each one
    passes as a rotation, their product does not."""
    joints = tuple((JointSpec(Pose(j.parent_transform.position,
                                   j.parent_transform.rotation * (1 + 3e-10)),
                              j.axis, j.limits), link)
                   for j, link in chain.joints)
    return ChainModel(joints, chain.base_pose, chain.tool_transform)


@pytest.mark.parametrize("call", ["fk", "jacobian", "mass_matrix", "osi",
                                  "osi_stack", "ik", "evaluate"])
def test_a_result_from_a_non_orthonormal_pose_is_refused(call):
    # intermediate IK passes go unchecked; every pass that reaches a
    # result is checked
    scene = book_scene()
    chain = skewed_chain(scene.chain)
    q = scene.ik_seed
    calls = {
        "fk": lambda: forward_kinematics(chain, q),
        "jacobian": lambda: geometric_jacobian(chain, q),
        "mass_matrix": lambda: mass_matrix(chain, q),
        "osi": lambda: operational_space_inertia(chain, q),
        "osi_stack": lambda: _stacked_inertias(
            chain, _checked_stack(chain, np.array([q, q]))),
        "ik": lambda: inverse_kinematics(chain, scene.start, q),
        "evaluate": lambda: score(sweep(chain, scene.fit(), scene.dt,
                                        scene.ik_seed),
                                  scene.bodies, scene.grasps),
    }
    with pytest.raises(ValueError,
                       match="^end-effector rotation is not orthonormal$"):
        calls[call]()


def test_operational_space_inertia_checks_its_stack_then_its_matrix(
        monkeypatch):
    import graspmass.augmented as augmented
    import graspmass.chain as chain_module
    calls = []
    check = augmented.checked_energy_matrices

    def counting(m):
        calls.append(m.shape)
        return check(m)

    monkeypatch.setattr(augmented, "checked_energy_matrices", counting)
    monkeypatch.setattr(chain_module, "checked_energy_matrices", counting)
    scene = book_scene()
    osi = operational_space_inertia(scene.chain, scene.ik_seed)
    assert calls == [(1, 6, 6), (6, 6)]
    assert isinstance(osi.matrix, KineticEnergyMatrix)
    assert osi.matrix.matrix.shape == (6, 6)
    assert not osi.matrix.matrix.flags.writeable


def test_stale_frames_are_not_reused_for_a_clipped_seed():
    from graspmass.chain import _ik, _one_pass
    scene = book_scene()
    chain = scene.chain
    seed = out_of_limits_seed(scene)
    target = sample(scene.fit(), scene.dt)[5].pose
    stale = _one_pass(chain, seed)   # the pass at the unclipped seed
    q, frames, _ = _ik(chain, target.position, target.rotation, seed, stale)
    assert np.array_equal(q, inverse_kinematics(chain, target, seed))
    fresh = _one_pass(chain, q)
    assert all(np.array_equal(a, b) for a, b in zip(frames, fresh))


def test_start_pose_ik_failure_reports_sample_zero():
    scene = book_scene()
    far = Pose(np.array([4.0, 0.0, 0.03]), scene.start.rotation)
    end = Pose(np.array([4.1, 0.0, 0.03]), scene.start.rotation)
    with pytest.raises(IkDidNotConverge) as exc:
        sweep(scene.chain, fit_quintic(far, end, 2.0), scene.dt,
              scene.ik_seed)
    assert exc.value.sample_index == 0
    assert str(exc.value).startswith("sample 0: ")


def test_book_at_fine_grid_makes_every_frame_pass_inside_ik(monkeypatch):
    # 201 warm-started solves make 390 passes when each starts with a
    # pass at its seed and the batched inertia makes its own; carrying
    # each converged pass forward and stacking the passes IK made makes
    # 189, all inside IK. Every pass, whatever its rank, starts with the
    # joints' Rodrigues spins, so a pass outside IK shows there
    import graspmass.chain as chain_module
    depth, spins = [0], []
    solve, rodrigues = chain_module._ik, chain_module._spins

    def in_ik(*args):
        depth[0] += 1
        try:
            return solve(*args)
        finally:
            depth[0] -= 1

    def counting(model, qs):
        spins.append(depth[0] > 0)
        return rodrigues(model, qs)

    monkeypatch.setattr(chain_module, "_ik", in_ik)
    monkeypatch.setattr(chain_module, "_spins", counting)
    passes = count_frame_passes(monkeypatch)
    scene = book_scene()
    score(sweep(scene.chain, scene.fit(), 0.01, scene.ik_seed),
          scene.bodies, scene.grasps)
    assert all(spins)
    assert len(spins) == len(passes) == 189


def test_book_at_fine_grid_makes_one_pass_log_and_solve_per_step(
        monkeypatch):
    # the start solve's pass at its seed, then one pass and one rotation
    # log after each of the 188 damped solves: each solve starts from the
    # pass and rotation residual its predecessor converged with (a log at
    # each seed made 389)
    import graspmass.chain as chain_module
    logs, solves = [], []
    log, solve = chain_module.rotation_log, chain_module._solve

    def counting_log(r):
        logs.append(r)
        return log(r)

    def counting_solve(a, b):
        solves.append(b)
        return solve(a, b)

    monkeypatch.setattr(chain_module, "rotation_log", counting_log)
    monkeypatch.setattr(chain_module, "_solve", counting_solve)
    passes = count_frame_passes(monkeypatch)
    scene = book_scene()
    sweep(scene.chain, scene.fit(), 0.01, scene.ik_seed)
    assert (len(passes), len(logs), len(solves)) == (189, 189, 188)
