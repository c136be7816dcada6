"""Invariance properties of the per-grasp scorer over random grasp poses
on the book body, along the book scene's sweep."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graspmass import GraspCandidate, Pose  # noqa: E402
from graspmass.ranking import _score  # noqa: E402

from conftest import book_scene  # noqa: E402

SCENE = book_scene()
SWEEP = SCENE._sweep(SCENE.dt)
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
