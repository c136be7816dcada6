"""End-to-end acceptance checks.

Each test covers one shipped guarantee, prints a single verdict line with
the measured numbers, and enforces a runtime budget. Run with -s to see
the lines on success.
"""

import time

import numpy as np

from graspmass import (
    GraspCandidate,
    ImpactScenario,
    KineticEnergyMatrix,
    Pose,
    com_energy_matrix,
    effective_mass,
    fit_quintic,
    geometric_jacobian,
    mass_matrix,
    predict_ordering,
    rank_grasps,
    sample,
    simulate_impact,
    transform_to_grasp,
)
from graspmass.cli import cmd_rank
from graspmass.ranking import Aggregator

from conftest import (
    acceleration,
    book_scene,
    fd_jacobian,
    impulse_oracle_mass,
    link_energy,
    partition_inverse,
    random_body,
    random_chain,
    random_grasp,
    tensor_scene,
)


def report(tag, ok, detail, elapsed, budget):
    line = (f"{'PASS' if ok else 'FAIL'} {tag}: {detail} "
            f"[{elapsed:.2f}s / {budget:.0f}s]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_acceptance_1_quintic_boundaries():
    t0 = time.perf_counter()
    start = Pose.from_ypr(np.array([1.0, 0.0, 0.03]),
                          np.array([-np.pi / 2, 0.0, 0.0]))
    end = Pose.from_ypr(np.array([1.1, -0.38, 0.16]),
                        np.array([-np.pi / 2, 0.0, 0.0]))
    traj = fit_quintic(start, end, 2.0)
    worst = max(
        np.abs(traj.position(0.0) - start.position).max(),
        np.abs(traj.position(2.0) - end.position).max(),
        np.abs(traj.velocity(0.0)).max(),
        np.abs(traj.velocity(2.0)).max(),
        np.abs(acceleration(traj, 0.0)).max(),
        np.abs(acceleration(traj, 2.0)).max(),
    )
    report("1 quintic boundaries", worst < 1e-9,
           f"worst endpoint residual {worst:.2e} (tol 1e-9)",
           time.perf_counter() - t0, 1.0)


def test_acceptance_2_sample_count():
    t0 = time.perf_counter()
    start = Pose(np.zeros(3), np.eye(3))
    end = Pose(np.array([1.0, 0.0, 0.0]), np.eye(3))
    samples = sample(fit_quintic(start, end, 2.0), 0.1)
    ok = (len(samples) == 20
          and np.isclose(samples[0].t, 0.1)
          and np.isclose(samples[-1].t, 2.0))
    report("2 sampling", ok, f"t_f=2, dt=0.1 -> {len(samples)} samples",
           time.perf_counter() - t0, 1.0)


def test_acceptance_3_effective_mass_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_rel = 0.0
    mass_bound_ok = True
    parallel_ok = True
    for _ in range(1000):
        body = random_body(rng)
        grasp = random_grasp(rng)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        lam_gp = transform_to_grasp(com_energy_matrix(body), grasp)
        got = effective_mass(lam_gp, v)
        want = impulse_oracle_mass(body, grasp, v)
        worst_rel = max(worst_rel, abs(got - want) / want)
        mass_bound_ok &= got <= body.mass * (1.0 + 1e-12)
        # same body, grasp offset moved onto the motion line
        colinear = GraspCandidate("c", Pose(0.3 * v, np.eye(3)))
        lam_c = transform_to_grasp(com_energy_matrix(body), colinear)
        parallel_ok &= np.isclose(effective_mass(lam_c, v), body.mass,
                                  rtol=1e-9)
    ok = worst_rel < 1e-9 and mass_bound_ok and parallel_ok
    report("3 impulse oracle", ok,
           f"1000 bodies, worst rel err {worst_rel:.2e} (tol 1e-9), "
           f"M<=m {mass_bound_ok}, r||v equality {parallel_ok}",
           time.perf_counter() - t0, 30.0)


def test_acceptance_4_partition_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        a = rng.normal(size=(6, 6))
        lam = KineticEnergyMatrix(a @ a.T + 0.05 * np.eye(6))
        uu, uw, ww = partition_inverse(lam)
        full = np.block([[uu, uw], [uw.T, ww]])
        resid = np.abs(full @ lam.matrix - np.eye(6)).max()
        worst = max(worst, resid)
    report("4 partition identity", worst < 1e-9,
           f"1000 PD matrices, worst reassembly residual {worst:.2e} "
           "(tol 1e-9)", time.perf_counter() - t0, 10.0)


def test_acceptance_5_dynamics_cross_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_jac = 0.0
    worst_energy = 0.0
    for dof in range(3, 8):
        for _ in range(3):
            model = random_chain(rng, dof)
            q = rng.uniform(-1.5, 1.5, size=dof)
            qdot = rng.uniform(-1.0, 1.0, size=dof)
            jac_err = np.abs(geometric_jacobian(model, q)
                             - fd_jacobian(model, q)).max()
            e_ref = link_energy(model, q, qdot)
            e_m = 0.5 * qdot @ mass_matrix(model, q) @ qdot
            worst_jac = max(worst_jac, jac_err)
            worst_energy = max(worst_energy,
                               abs(e_m - e_ref) / max(1.0, abs(e_ref)))
    ok = worst_jac < 1e-5 and worst_energy < 1e-9
    report("5 dynamics cross-checks", ok,
           f"3-7 dof chains, jacobian fd err {worst_jac:.2e} (tol 1e-5), "
           f"energy err {worst_energy:.2e} (tol 1e-9)",
           time.perf_counter() - t0, 30.0)


def test_acceptance_6_book_ordering():
    t0 = time.perf_counter()
    scene = book_scene()
    traj = scene.fit()
    arm, masses = scene.evaluated(scene.dt)
    grasp_ids = [g.id for g in scene.grasps]
    k = scene.collision_sample
    by_mass = rank_grasps(grasp_ids, masses, arm.near_singular,
                          Aggregator("at_sample", k))
    samples = sample(traj, scene.dt)
    speed = float(np.linalg.norm(samples[k - 1].velocity.linear))
    ordering = predict_ordering(grasp_ids, masses[:, k - 1], speed,
                                scene.stiffness, scene.damping)
    agree = tuple(by_mass.grasp_ids) == tuple(ordering.grasp_ids)
    ratio = ordering.peak_forces[-1] / ordering.peak_forces[0]
    ok = agree and ratio > 1.05
    report("6 book ordering", ok,
           f"force order {ordering.grasp_ids} == mass order {agree}, "
           f"peak ratio {ratio:.4f} (gate 1.05)",
           time.perf_counter() - t0, 20.0)


def test_acceptance_7_tensor_discrimination(tmp_path):
    t0 = time.perf_counter()
    scene = tensor_scene()
    artifact = cmd_rank(scene, out_dir=tmp_path)
    aggs = np.array([row["aggregate_kg"] for row in artifact["ranking"]])
    spread = (aggs.max() - aggs.min()) / np.median(aggs)
    rows = (tmp_path / "mass_map.csv").read_text().strip().splitlines()
    shape = (len(rows) - 1, len(rows[1].split(",")) - 1)
    ok = spread >= 0.05 and shape == (20, scene.n_samples)
    report("7 tensor discrimination", ok,
           f"max-aggregate spread {spread * 100:.2f}% of median (gate 5%), "
           f"mass map {shape[0]}x{shape[1]}",
           time.perf_counter() - t0, 60.0)


def test_acceptance_8_impact_analytics():
    t0 = time.perf_counter()
    worst_peak = 0.0
    k = 1e4
    masses = np.geomspace(0.1, 50.0, 15)
    peaks = []
    for m in masses:
        peak = simulate_impact(ImpactScenario(m, 1.0, k)).peak_force
        peaks.append(peak)
        worst_peak = max(worst_peak, abs(peak - np.sqrt(k * m)) / np.sqrt(k * m))
    peaks = np.array(peaks)
    # sqrt scale law between every mass pair, as a relative error
    ratio_err = np.abs(peaks / peaks[0] / np.sqrt(masses / masses[0]) - 1.0).max()
    ok = worst_peak < 0.005 and ratio_err < 0.01
    report("8 impact analytics", ok,
           f"peak vs v*sqrt(kM) err {worst_peak * 100:.3f}% (tol 0.5%), "
           f"sqrt-law err {ratio_err:.2e}",
           time.perf_counter() - t0, 10.0)


def test_acceptance_9_determinism(tmp_path):
    t0 = time.perf_counter()
    scene = book_scene()
    a = tmp_path / "a"
    b = tmp_path / "b"
    cmd_rank(scene, out_dir=a)
    cmd_rank(scene, out_dir=b)
    same = ((a / "mass_map.csv").read_bytes() == (b / "mass_map.csv").read_bytes())
    report("9 determinism", same,
           "two cmd_rank runs byte-identical mass_map.csv",
           time.perf_counter() - t0, 20.0)
