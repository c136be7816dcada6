import ast
import importlib
from pathlib import Path

import numpy as np

import graspmass
from graspmass import (augment, com_energy_matrix, effective_mass,
                       forward_kinematics, geometric_jacobian,
                       inverse_kinematics, mass_matrix,
                       operational_space_inertia, pose_compose, sample,
                       transform_to_grasp)
from graspmass.spatial import Pose

from conftest import book_scene

BENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_every_public_name_resolves():
    assert len(set(graspmass.__all__)) == len(graspmass.__all__)
    for name in graspmass.__all__:
        assert getattr(graspmass, name, None) is not None, name


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from graspmass import *", namespace)
    assert set(graspmass.__all__) <= set(namespace)


def test_every_name_the_bench_micro_timings_import_resolves():
    # the benchmark's single-call timings import the library inside a
    # function, so a missing name shows only when they run
    tree = ast.parse(BENCH_RUN.read_text())
    micro = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "micro_timings")
    imports = [(node.module, alias.name) for node in ast.walk(micro)
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "graspmass"
               for alias in node.names]
    assert {module for module, _ in imports} == {"graspmass",
                                                 "graspmass.spatial"}
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"{module}.{name}"


def test_the_bench_micro_timings_call_chain_gives_the_pipeline_mass():
    # the calls the benchmark's single-call timings make on book, untimed
    scene = book_scene()
    chain, traj = scene.chain, scene.fit()
    samples = sample(traj, scene.dt)[:scene.collision_sample]
    q = inverse_kinematics(
        chain, Pose(traj.position(0.0), traj.start_rotation), scene.ik_seed)
    for samp in samples:
        q = inverse_kinematics(chain, samp.pose, q)
    target = samples[-1]
    ee = forward_kinematics(chain, q)
    assert geometric_jacobian(chain, q).shape == (6, chain.dof)
    assert mass_matrix(chain, q).shape == (chain.dof, chain.dof)
    assert isinstance(pose_compose(ee, chain.tool_transform), Pose)
    osi = operational_space_inertia(chain, q)
    lam_obj = transform_to_grasp(com_energy_matrix(scene.bodies[0]),
                                 scene.grasps[0]).expressed_in(
                                     target.pose.rotation)
    lam_tot = augment(osi.matrix, lam_obj)
    v = target.velocity.linear / np.linalg.norm(target.velocity.linear)
    mass = effective_mass(lam_tot, v)
    assert type(mass) is float
    _, masses = scene.evaluated(scene.dt)
    assert np.isclose(mass, masses[0, scene.collision_sample - 1],
                      rtol=1e-9, atol=0.0)
