#!/usr/bin/env python3
"""End-to-end grasp ranking on the bundled book scene.

Same flow as `graspmass rank` plus `graspmass simulate-impact`, but
through the library API, so every intermediate is visible: the mass
table, aggregates, approach speed, and the simulated peak contact forces.
"""

import numpy as np

from graspmass import Aggregator, parse_scene, predict_ordering, rank_grasps
from graspmass.cli import demo_scene_path

scene = parse_scene(demo_scene_path("book"))
traj = scene.fit()

print(f"scene: {scene.name}, {scene.chain.dof}-dof arm, "
      f"{len(scene.grasps)} grasp candidates")
print(f"move: {np.round(traj.position(0.0), 3)} -> "
      f"{np.round(traj.position(traj.t_f), 3)} over {traj.t_f} s")
print()

# one row of effective masses per grasp, one column per sample
sweep, masses = scene.evaluated(scene.dt)
grasp_ids = [g.id for g in scene.grasps]
report = rank_grasps(grasp_ids, masses, sweep.near_singular, "max")

print("ranking by worst-case effective mass (safest first):")
for gid, agg in zip(report.grasp_ids, report.aggregates):
    print(f"  {gid:<12} {agg:.4f} kg")
for note in report.notes:
    print(f"  note: {note}")
print(f"recommended grasp: {report.grasp_ids[0]}")
print()

# contact happens at a known sample; feed the masses there into the
# spring model and check the force order tells the same story
k, t, speed = scene.collision(scene.dt)
print(f"collision at sample {k} (t = {t:.1f} s), "
      f"approach speed {speed:.3f} m/s, "
      f"stiffness {scene.stiffness:.0f} N/m")

ordering = predict_ordering(grasp_ids, masses[:, k - 1], speed,
                            scene.stiffness, scene.damping)
for gid, peak in zip(ordering.grasp_ids, ordering.peak_forces):
    print(f"  {gid:<12} peak {peak:7.2f} N")

by_mass = rank_grasps(grasp_ids, masses, sweep.near_singular,
                      Aggregator("at_sample", k)).grasp_ids
agree = tuple(ordering.grasp_ids) == tuple(by_mass)
print(f"force order matches effective-mass order at sample {k}: {agree}")
print()

# full force-time trace for the recommended grasp
best = report.grasp_ids[0]
trace = ordering.traces[ordering.grasp_ids.index(best)]
print(f"trace for {best}: peak {trace.peak_force:.2f} N at "
      f"t = {trace.peak_time * 1e3:.2f} ms, "
      f"contact ends at t = {trace.times[-1] * 1e3:.2f} ms")
