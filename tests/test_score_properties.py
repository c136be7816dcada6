"""Invariance properties of the per-grasp scorer over random grasp poses
on the book body, along the book scene's sweep, and of a whole scene's
evaluation under rigid motions of that scene."""

import copy
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graspmass import (GraspCandidate, Pose, rank_grasps,  # noqa: E402
                       rotation_ypr, scene_from_dict)
from graspmass.cli import demo_scene_path  # noqa: E402
from graspmass.ranking import _score  # noqa: E402

from conftest import book_scene  # noqa: E402

SCENE = book_scene()
SWEEP = SCENE._evaluated(SCENE.dt)[0]
BOOK = SCENE.bodies[0]

PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)
# grasp points within 0.3 m of the book's CoM, any orientation
offsets = st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3)
angles = st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3)


def masses(sweep, position, ypr):
    grasp = GraspCandidate("g", Pose.from_ypr(position, ypr))
    return _score(sweep, [BOOK], [grasp])[0].masses


@PROPERTY
@given(offsets, angles)
def test_holding_the_book_never_lowers_the_effective_mass(position, ypr):
    dirs = SWEEP.dirs
    rhs = np.concatenate([dirs, np.zeros_like(dirs)], axis=1)[:, :, None]
    x = np.linalg.solve(SWEEP.lam_rob, rhs)[:, :3, 0]
    arm_alone = 1.0 / np.einsum("ni,ni->n", dirs, x)
    assert np.all(masses(SWEEP, position, ypr) >= arm_alone * (1.0 - 1e-12))


@PROPERTY
@given(offsets, angles)
def test_effective_mass_does_not_change_when_the_direction_flips(position,
                                                                 ypr):
    flipped = SWEEP._replace(dirs=-SWEEP.dirs)
    assert np.array_equal(masses(flipped, position, ypr),
                          masses(SWEEP, position, ypr))


def ypr_of(r):
    """ZYX angles (yaw, pitch, roll) of a rotation matrix."""
    return [math.atan2(r[1, 0], r[0, 0]),
            -math.asin(min(1.0, max(-1.0, r[2, 0]))),
            math.atan2(r[2, 1], r[2, 2])]


def moved(doc, rot, shift):
    """The scene document after a rigid motion of the whole scene: a
    rotation, then a shift. It moves the arm's base and both trajectory
    endpoints; grasps are given in the object frame and move with it."""
    doc = copy.deepcopy(doc)
    for pose in (doc["chain"]["base_pose"], doc["trajectory"]["start"],
                 doc["trajectory"]["end"]):
        pose["position_m"] = (rot @ pose["position_m"] + shift).tolist()
        pose["ypr_rad"] = ypr_of(rot @ rotation_ypr(*pose["ypr_rad"]))
    return doc


def evaluated(doc):
    scene = scene_from_dict(doc)
    return scene._evaluated(scene.dt)


# hypothesis draws the identity first, then three motions; the explicit
# example tilts z
MOTION = settings(derandomize=True, database=None, max_examples=4,
                  deadline=None)
DOCS = {name: json.loads(demo_scene_path(name).read_text(encoding="utf-8"))
        for name in ("book", "tensor")}
PLACED = {name: evaluated(doc) for name, doc in DOCS.items()}
tilts = st.floats(-1.0, 1.0)


@pytest.mark.parametrize("name", DOCS)
@MOTION
@given(st.floats(-np.pi, np.pi), tilts, tilts,
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
@example(0.4, 0.5, -0.3, [0.3, -0.2, 0.1])
def test_a_rigid_motion_of_the_scene_leaves_the_masses_unchanged(
        name, yaw, pitch, roll, shift):
    rot = rotation_ypr(yaw, pitch, roll)
    want_sweep, want = PLACED[name]
    got_sweep, got = evaluated(moved(DOCS[name], rot, shift))
    # the motion direction turns with the scene
    assert np.allclose(got_sweep.dirs, want_sweep.dirs @ rot.T, rtol=0.0,
                       atol=1e-12)
    assert [p.grasp_id for p in got] == [p.grasp_id for p in want]
    for a, b in zip(got, want):
        assert np.allclose(a.masses, b.masses, rtol=1e-9, atol=0.0)
    assert rank_grasps(got).grasp_ids == rank_grasps(want).grasp_ids
