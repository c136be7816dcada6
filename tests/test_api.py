import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import graspmass
from graspmass import (KineticEnergyMatrix, TensorObjectConfig, augment,
                       com_energy_matrix, effective_mass, fit_quintic,
                       forward_kinematics, geometric_jacobian,
                       inverse_kinematics, mass_matrix, motion_direction,
                       operational_space_inertia, pose_compose,
                       predict_ordering, rank_grasps, sample, score, skew,
                       transform_to_grasp)
from graspmass.errors import GraspmassError
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


def _tensor_config(rings):
    return TensorObjectConfig(handle_length=0.5, cylinder_length=0.25,
                              cylinder_mass=0.05, ring_mass=0.036,
                              ring_positions=np.array(rings))


def _score_with_a_body_short():
    scene = book_scene()
    arm, _ = scene.evaluated(scene.dt)
    score(arm, scene.bodies[:1], scene.grasps)


_AT_REST = Pose(np.zeros(3), np.eye(3))
_NO_FLAGS = np.zeros(2, dtype=bool)
_CONTACT = dict(speed=0.5, stiffness=1e4)

BAD_ARGUMENTS = [
    (lambda: Pose(np.zeros(2), np.eye(3)),
     "position must have shape (3,), got (2,)"),
    (lambda: skew([1.0, 2.0]), "expected (..., 3) vectors, got (2,)"),
    (lambda: forward_kinematics(book_scene().chain, np.zeros(3)),
     "expected 7 joint values, got (3,)"),
    (lambda: KineticEnergyMatrix(np.eye(5)), "expected 6x6, got (5, 5)"),
    (lambda: effective_mass(KineticEnergyMatrix(np.eye(6)), [1.0, 0.0]),
     "direction must be a 3-vector"),
    (lambda: _tensor_config([0.3, 0.1, 0.1, 0.1, 0.1]),
     "handle ring at 0.3 exceeds half-length 0.25"),
    (lambda: _tensor_config([0.0, 0.3, 0.1, 0.1, 0.1]),
     "arm ring 1 at 0.3 outside [0, 0.25]"),
    (lambda: fit_quintic(_AT_REST, _AT_REST, 0.0),
     "t_f must be positive, got 0.0"),
    (lambda: motion_direction(fit_quintic(_AT_REST, _AT_REST, 1.0)),
     "start and end positions coincide"),
    (_score_with_a_body_short, "one body per grasp required"),
    (lambda: rank_grasps([], np.empty((0, 2)), _NO_FLAGS),
     "no grasps to rank"),
    (lambda: rank_grasps(["a", "b"], np.ones((3, 2)), _NO_FLAGS),
     "mass table (3, 2) for 2 grasp(s) and 2 sample(s)"),
    (lambda: predict_ordering([], np.empty(0), **_CONTACT), "no grasps"),
    (lambda: predict_ordering(["a", "b"], np.ones(3), **_CONTACT),
     "one effective mass per grasp required"),
]


@pytest.mark.parametrize("call, message", BAD_ARGUMENTS, ids=[
    "pose-shape", "skew-shape", "joint-count", "energy-matrix-shape",
    "direction-shape", "handle-ring", "arm-ring", "zero-duration",
    "null-move", "body-count", "no-grasps-to-rank", "mass-table-shape",
    "no-grasps-to-simulate", "mass-column-length"])
def test_a_bad_argument_is_a_plain_value_error(call, message):
    # a GraspmassError subclass is kept for the failures a caller acts on
    # by type; a bad argument is none of them
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        call()
    assert not isinstance(exc.value, GraspmassError)
