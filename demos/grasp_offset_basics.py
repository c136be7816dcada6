#!/usr/bin/env python3
"""Apparent mass of a grasped book, from first principles.

A fingertip stopping a moving object feels less than the full object
mass whenever the contact line misses the center of mass: part of the
impulse spins the object instead of stopping it. This script slides a
grasp point along the spine of a 0.34 kg book and prints the effective
mass for the same push, first for the free-flying object and then felt
through a 7-dof arm that is holding it.

The free object cannot tell +y from -y offsets (the impulse algebra is
symmetric in the lever arm). The robot can: its task-space inertia is
anisotropic, so the sign of the offset changes how object and arm
couple. That asymmetry is the whole reason grasp choice matters.
"""

import numpy as np

from graspmass import (GraspCandidate, Pose, build_cuboid, com_energy_matrix,
                       effective_mass, evaluate_grasps, motion_direction,
                       parse_scene, transform_to_grasp)
from graspmass.cli import demo_scene_path

scene = parse_scene(demo_scene_path("book"))
traj = scene.fit()
book = build_cuboid(0.34, (0.22, 0.15, 0.015))

# direction of travel (the path's chord, the same at every sample), in
# grasp axes
k = scene.collision_sample
rot = traj.start_rotation  # constant-orientation move
v_grasp = rot.T @ motion_direction(traj)

print("Book: 0.34 kg, grasped along the spine, pushed at the collision sample")
print(f"travel direction in grasp axes: {np.round(v_grasp, 3)}")
print()
print(f"{'offset y [m]':>14} {'free object [kg]':>18} {'through robot [kg]':>20}")

for y in np.linspace(-0.10, 0.10, 9):
    grasp = GraspCandidate(f"y={y:+.3f}", Pose(np.array([0.0, y, 0.0]),
                                               np.eye(3)))
    lam_gp = transform_to_grasp(com_energy_matrix(book), grasp)
    free = effective_mass(lam_gp, v_grasp).value
    profile = evaluate_grasps(scene.chain, book, [grasp], traj, scene.dt,
                              scene.ik_seed)[0]
    total = profile.masses[k - 1]
    print(f"{y:>14.3f} {free:>18.4f} {total:>20.4f}")

print()
print("Free-object column is symmetric in the offset and never exceeds")
print("0.34 kg. The through-robot column is not symmetric: the arm's own")
print("task-space inertia couples with the offset, so one end of the spine")
print("is genuinely safer to grab than the other.")
