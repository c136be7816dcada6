#!/usr/bin/env python3
"""Telling identical-mass objects apart by where their mass sits.

The tensor scene holds a cross of rods with five sliding rings. Every
ring layout weighs exactly the same 0.43 kg; only the mass distribution
changes. The robot grips one arm tip and performs the same move for all
twenty layouts, so any spread in effective mass comes purely from the
second-order geometry: where the center of mass sits relative to the
grip, and how the inertia tensor is shaped.
"""

import numpy as np

from graspmass import evaluate_grasps, parse_scene, rank_grasps
from graspmass.cli import demo_scene_path

scene = parse_scene(demo_scene_path("tensor"))
traj = scene.fit()

masses = sorted({round(b.mass, 9) for b in scene.bodies})
print(f"scene: {scene.name}, {len(scene.grasps)} ring layouts, "
      f"every layout weighs {masses[0]:.2f} kg "
      f"({len(masses)} distinct total mass value(s))")
print()

profiles = evaluate_grasps(scene.chain, scene.bodies, scene.grasps, traj,
                           scene.dt, scene.ik_seed)
report = rank_grasps(profiles, "max")

# com relative to the grip point, in object axes
offsets = {g.id: -g.grasp_pose.position for g in scene.grasps}

print(f"{'layout':<10} {'com - grip [m]':^26} {'worst-case mass [kg]':>22}")
for gid, agg in zip(report.grasp_ids, report.aggregates):
    ox, oy, oz = offsets[gid]
    print(f"{gid:<10} ({ox:+.3f}, {oy:+.3f}, {oz:+.3f}) {agg:>22.4f}")

aggs = np.array(report.aggregates)
spread = (aggs.max() - aggs.min()) / np.median(aggs)
print()
print(f"spread: {spread * 100:.1f}% of the median, from mass placement alone")
print("Layouts that pull the center of mass far from the grip, transverse")
print("to the direction of travel, read heaviest; symmetric layouts that")
print("only fatten the inertia tensor barely move the number, because the")
print("wrist's own rotational inertia dominates small object spins.")
