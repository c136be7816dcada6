import random

import numpy as np
import pytest

from graspmass import (
    Aggregator,
    EffectiveMassProfile,
    GraspCandidate,
    Pose,
    RigidBodyInertia,
    augment,
    build_cuboid,
    com_energy_matrix,
    effective_mass,
    evaluate_grasps,
    fit_quintic,
    inverse_kinematics,
    operational_space_inertia,
    operational_space_inertias,
    parse_aggregator,
    rank_grasps,
    sample,
    transform_to_grasp,
)
from graspmass.errors import (EmptyInput, IkDidNotConverge, LengthMismatch,
                              NotPositiveDefinite)

from conftest import book_scene, direction_at, tensor_scene


def profile(grasp_id, masses, flagged=()):
    masses = np.asarray(masses, dtype=float)
    times = np.arange(1, len(masses) + 1) * 0.1
    near_singular = [i in flagged for i in range(len(masses))]
    return EffectiveMassProfile(grasp_id, times, masses, near_singular)


def test_profiles_have_expected_shape():
    scene = book_scene()
    traj = scene.fit()
    prof = evaluate_grasps(scene.chain, scene.bodies[0], scene.grasps[:1],
                           traj, scene.dt, scene.ik_seed)[0]
    assert len(prof) == 20
    assert prof.grasp_id == scene.grasps[0].id
    assert np.all(prof.masses > 0.0)
    assert np.isclose(prof.times[0], 0.1)
    assert np.isclose(prof.times[-1], 2.0)
    assert prof.near_singular.dtype == bool
    assert not prof.near_singular.any()


def test_tiny_object_reduces_to_robot_alone():
    scene = book_scene()
    traj = scene.fit()
    crumb = RigidBodyInertia(1e-9, Pose.identity(), 1e-12 * np.eye(3))
    grasp = GraspCandidate("crumb", Pose.identity())
    prof = evaluate_grasps(scene.chain, crumb, [grasp], traj, scene.dt,
                           scene.ik_seed)[0]
    samples = sample(traj, scene.dt)
    for samp, got in zip(samples, prof.masses):
        # robot-only reference, computed directly
        from graspmass import inverse_kinematics
        state = inverse_kinematics(scene.chain, samp.pose, scene.ik_seed)
        osi = operational_space_inertia(scene.chain, state)
        want = effective_mass(osi.matrix, direction_at(samp, samples)).value
        assert abs(got - want) < 1e-3 * want


def test_object_mass_scaling_is_monotone():
    scene = book_scene()
    traj = scene.fit()
    base = build_cuboid(0.34, (0.15, 0.22, 0.015))
    grasp = scene.grasps[2]
    prev = evaluate_grasps(scene.chain, base, [grasp], traj, scene.dt,
                           scene.ik_seed)[0].masses
    for alpha in (1.5, 2.0, 5.0):
        scaled = RigidBodyInertia(alpha * base.mass, base.com_pose,
                                  alpha * base.inertia)
        cur = evaluate_grasps(scene.chain, scaled, [grasp], traj, scene.dt,
                              scene.ik_seed)[0].masses
        assert np.all(cur >= prev - 1e-10)
        prev = cur


def test_evaluate_grasps_is_deterministic():
    scene = book_scene()
    traj = scene.fit()
    runs = [evaluate_grasps(scene.chain, scene.bodies, scene.grasps, traj,
                            scene.dt, scene.ik_seed)
            for _ in range(3)]
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            assert a.grasp_id == b.grasp_id
            assert np.array_equal(a.masses, b.masses)
            assert np.array_equal(a.times, b.times)


def test_evaluate_grasps_body_list_must_align():
    scene = book_scene()
    traj = scene.fit()
    with pytest.raises(LengthMismatch):
        evaluate_grasps(scene.chain, scene.bodies[:2], scene.grasps, traj,
                        scene.dt, scene.ik_seed)


def test_ik_failure_names_the_sample():
    scene = book_scene()
    start = Pose(np.array([1.0, 0.0, 0.03]), scene.start.rotation)
    far = Pose(np.array([4.0, 0.0, 0.03]), scene.start.rotation)
    traj = fit_quintic(start, far, 2.0)
    with pytest.raises(IkDidNotConverge) as exc:
        evaluate_grasps(scene.chain, scene.bodies[0], scene.grasps[:1], traj,
                        scene.dt, scene.ik_seed)
    assert exc.value.sample_index is not None
    assert exc.value.sample_index >= 1
    assert "sample" in str(exc.value)


def test_profile_leaves_the_callers_arrays_writable():
    times = np.array([0.1, 0.2])
    masses = np.array([1.0, 2.0])
    near = np.array([False, False])
    prof = EffectiveMassProfile("g", times, masses, near)
    times[0], masses[0], near[0] = 0.05, 3.0, True
    assert prof.times.tolist() == [0.1, 0.2]
    assert prof.masses.tolist() == [1.0, 2.0]
    assert prof.near_singular.tolist() == [False, False]
    for a in (prof.times, prof.masses, prof.near_singular):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_rank_grasps_sorts_ascending_with_id_tiebreak():
    profiles = [profile("b", [2.0, 1.0]), profile("a", [2.0, 1.0]),
                profile("c", [0.5, 0.4])]
    report = rank_grasps(profiles, aggregator="max")
    assert report.grasp_ids == ("c", "a", "b")
    assert report.aggregates == (0.5, 2.0, 2.0)
    assert report.aggregator == "max"


def test_rank_grasps_rejects_empty_and_duplicates():
    with pytest.raises(EmptyInput):
        rank_grasps([])


def test_mean_aggregator_uses_all_samples():
    agg = Aggregator("mean")
    value, note = agg(profile("g", [1.0, 2.0, 6.0], flagged=(2,)))
    assert np.isclose(value, 3.0)
    assert note is None


def test_at_sample_aggregator_picks_and_flags():
    agg = Aggregator("at_sample", k=2)
    value, note = agg(profile("g", [1.0, 2.0, 6.0]))
    assert value == 2.0 and note is None
    value, note = agg(profile("g", [1.0, 2.0, 6.0], flagged=(1,)))
    assert value == 2.0
    assert "near singular" in note
    with pytest.raises(ValueError):
        agg(profile("g", [1.0]))


def test_max_aggregator_skips_near_singular_samples():
    agg = Aggregator("max")
    value, note = agg(profile("g", [1.0, 2.0, 9.0], flagged=(2,)))
    assert value == 2.0
    assert "excluded 1" in note
    value, note = agg(profile("g", [1.0, 2.0, 9.0], flagged=(0, 1, 2)))
    assert value == 9.0
    assert "all samples near singular" in note


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
    # the scalar path, one sample and one grasp at a time, is the reference
    scene = book_scene()
    traj = scene.fit()
    samples = sample(traj, scene.dt)
    profiles = evaluate_grasps(scene.chain, scene.bodies, scene.grasps, traj,
                               scene.dt, scene.ik_seed)
    q = inverse_kinematics(scene.chain,
                           Pose(traj.position(0.0), traj.start_rotation),
                           scene.ik_seed)
    lam_rob = []
    for samp in samples:
        q = inverse_kinematics(scene.chain, samp.pose, q)
        lam_rob.append(operational_space_inertia(scene.chain, q).matrix)
    for prof, body, grasp in zip(profiles, scene.bodies, scene.grasps):
        lam_gp = transform_to_grasp(com_energy_matrix(body), grasp)
        for samp, lam, got in zip(samples, lam_rob, prof.masses):
            lam_tot = augment(lam, lam_gp.expressed_in(samp.pose.rotation))
            want = effective_mass(lam_tot, direction_at(samp, samples)).value
            assert abs(got - want) <= 1e-12 * want


def pitched_path(scene, pitch):
    start = Pose.from_ypr([0.8, 0.0, 0.3], [0.0, pitch, 0.0])
    end = Pose.from_ypr([0.8, 0.1, 0.3], [0.0, pitch, 0.0])
    return fit_quintic(start, end, scene.t_f)


def test_pitch_at_gimbal_lock_evaluates():
    # ZYX Euler angles are singular at pitch pi/2; the effective mass is not
    scene = book_scene()
    at, near = (evaluate_grasps(scene.chain, scene.bodies, scene.grasps,
                                pitched_path(scene, pitch), scene.dt,
                                scene.ik_seed)
                for pitch in (np.pi / 2, np.pi / 2 - 1e-3))
    for a, b in zip(at, near):
        assert np.all(np.isfinite(a.masses))
        assert np.allclose(a.masses, b.masses, rtol=1e-3, atol=0.0)


def test_profiles_do_not_depend_on_grasp_order():
    scene = book_scene()
    traj = scene.fit()
    pairs = list(zip(scene.grasps, scene.bodies))
    random.Random(7).shuffle(pairs)
    grasps, bodies = zip(*pairs)
    ref = {p.grasp_id: p for p in evaluate_grasps(
        scene.chain, scene.bodies, scene.grasps, traj, scene.dt,
        scene.ik_seed)}
    shuffled = evaluate_grasps(scene.chain, bodies, grasps, traj, scene.dt,
                               scene.ik_seed)
    assert [p.grasp_id for p in shuffled] == [g.id for g in grasps]
    for p in shuffled:
        assert np.array_equal(p.masses, ref[p.grasp_id].masses)
        assert np.array_equal(p.near_singular,
                              ref[p.grasp_id].near_singular)


def test_single_grasp_equals_its_row_of_the_batch():
    scene = tensor_scene()
    traj = scene.fit()
    batch = evaluate_grasps(scene.chain, scene.bodies, scene.grasps, traj,
                            scene.dt, scene.ik_seed)
    k = 13
    one = evaluate_grasps(scene.chain, scene.bodies[k], scene.grasps[k:k + 1],
                          traj, scene.dt, scene.ik_seed)[0]
    assert one.grasp_id == batch[k].grasp_id
    assert np.allclose(one.masses, batch[k].masses, rtol=1e-12, atol=0.0)


def test_non_positive_definite_total_is_rejected(monkeypatch):
    # a massless arm plus a near-massless object leaves nothing to invert
    import graspmass.ranking as ranking
    from graspmass.chain import OperationalSpaceInertias
    monkeypatch.setattr(ranking, "_stacked_inertias",
                        lambda chain, frames: OperationalSpaceInertias(
                            np.zeros((len(frames.axes), 6, 6)),
                            np.zeros(len(frames.axes), dtype=bool)))
    scene = book_scene()
    speck = RigidBodyInertia(1e-14, Pose.identity(), 1e-15 * np.eye(3))
    with pytest.raises(NotPositiveDefinite):
        evaluate_grasps(scene.chain, speck,
                        [GraspCandidate("g", Pose.identity())], scene.fit(),
                        scene.dt, scene.ik_seed)


def public_ik_chain(chain, traj, dt, seed):
    """Joint solutions along the grid from public IK calls, each seeded
    with the previous result, the start pose first."""
    q = inverse_kinematics(chain, Pose(traj.position(0.0),
                                       traj.start_rotation), seed)
    qs = []
    for samp in sample(traj, dt):
        q = inverse_kinematics(chain, samp.pose, q)
        qs.append(q.q)
    return np.array(qs)


def out_of_limits_seed(scene):
    seed = scene.ik_seed.q.copy()
    seed[0] = scene.chain.limits_array()[0, 1] + 0.5
    return seed


SWEEP_PATHS = ["book", "book-dt-0.01", "tensor", "pitch-pi/2",
               "seed-out-of-limits"]


@pytest.mark.parametrize("path", SWEEP_PATHS)
def test_sweep_with_carried_frames_equals_public_ik_chain(path, monkeypatch):
    # the sweep hands each solve the previous frame pass; the joint
    # solutions and the arm's inertias must keep the bits of plain calls
    import graspmass.ranking as ranking
    from graspmass.chain import _ik
    scene = tensor_scene() if path == "tensor" else book_scene()
    traj = (pitched_path(scene, np.pi / 2) if path == "pitch-pi/2"
            else scene.fit())
    dt = 0.01 if path == "book-dt-0.01" else scene.dt
    seed = (out_of_limits_seed(scene) if path == "seed-out-of-limits"
            else scene.ik_seed)
    solved = []

    def recording_ik(*args):
        q, frames = _ik(*args)
        solved.append(q)
        return q, frames

    monkeypatch.setattr(ranking, "_ik", recording_ik)
    sweep = ranking._sweep(scene.chain, traj, dt, seed)
    want = public_ik_chain(scene.chain, traj, dt, seed)
    assert len(solved) == len(sweep.times) + 1
    assert np.array_equal(solved[1:], want)
    assert np.array_equal(
        sweep.lam_rob, operational_space_inertias(scene.chain, want).matrices)


def test_stale_frames_are_not_reused_for_a_clipped_seed():
    from graspmass.chain import _frame_pass, _ik
    scene = book_scene()
    chain = scene.chain
    seed = out_of_limits_seed(scene)
    target = sample(scene.fit(), scene.dt)[5].pose
    stale = _frame_pass(chain, seed[None])   # the pass at the unclipped seed
    q, frames = _ik(chain, target.position, target.rotation, seed, stale)
    assert np.array_equal(q, inverse_kinematics(chain, target, seed).q)
    fresh = _frame_pass(chain, q[None])
    assert all(np.array_equal(a, b) for a, b in zip(frames, fresh))


def test_start_pose_ik_failure_reports_sample_zero():
    scene = book_scene()
    far = Pose(np.array([4.0, 0.0, 0.03]), scene.start.rotation)
    end = Pose(np.array([4.1, 0.0, 0.03]), scene.start.rotation)
    with pytest.raises(IkDidNotConverge) as exc:
        evaluate_grasps(scene.chain, scene.bodies, scene.grasps,
                        fit_quintic(far, end, 2.0), scene.dt, scene.ik_seed)
    assert exc.value.sample_index == 0
    assert str(exc.value).startswith("sample 0: ")


def test_book_at_fine_grid_makes_at_most_191_frame_passes(monkeypatch):
    # 201 warm-started solves make 390 passes when each starts with a
    # pass at its seed and the batched inertia makes its own; carrying
    # each converged pass forward and stacking them makes 189
    import graspmass.chain as chain_module
    passes = []
    frame_pass = chain_module._frame_pass

    def counting(model, qs):
        passes.append(qs)
        return frame_pass(model, qs)

    monkeypatch.setattr(chain_module, "_frame_pass", counting)
    scene = book_scene()
    evaluate_grasps(scene.chain, scene.bodies, scene.grasps, scene.fit(),
                    0.01, scene.ik_seed)
    assert len(passes) <= 191
