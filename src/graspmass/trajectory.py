"""Rest-to-rest quintic point trajectories with uniform sampling.

One quintic per Cartesian axis, boundary conditions x(0) = start,
x(t_f) = end, first and second derivatives zero at both ends. The six
conditions differ between axes only in the endpoints, so every axis is
start + (end - start) s(t) with one time-scaling s: the path is the
straight chord from start to end, and the velocity is parallel to it at
every instant. So the motion direction is one unit vector per
trajectory, the chord's (``motion_direction``). Orientation is held at
the start pose's rotation for every sample.

``sample`` returns one validated ``TrajectorySample`` per grid point. The
pipeline reads the same grid as arrays (``_grid``: times and positions,
each row evaluated as ``position(t)`` would, finiteness checked once per
stack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MAX_SAMPLES, ZERO_SPEED_TOL
from .errors import DegenerateTrajectory, InvalidStep, NonPositiveDuration
from .spatial import Pose, Twist

_POWERS = np.arange(6)


@dataclass(frozen=True, eq=False)
class QuinticTrajectory:
    """Coefficient table (6, 3): row k holds the t^k coefficient per axis."""

    coeffs: np.ndarray
    start_rotation: np.ndarray
    t_f: float

    def position(self, t: float) -> np.ndarray:
        return self.coeffs.T @ (t ** _POWERS)

    def velocity(self, t: float) -> np.ndarray:
        c = self.coeffs[1:] * _POWERS[1:, None]
        return c.T @ (t ** _POWERS[:5])


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    t: float
    pose: Pose
    velocity: Twist
    sample_index: int  # 1-based, 1..N


def fit_quintic(start: Pose, end: Pose, t_f: float) -> QuinticTrajectory:
    """Solve the six boundary conditions per axis for the unique quintic."""
    if not t_f > 0.0:
        raise NonPositiveDuration(f"t_f must be positive, got {t_f}")
    # rows: x(0), v(0), a(0), x(t_f), v(t_f), a(t_f) against powers t^0..t^5
    a = np.zeros((6, 6))
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    a[2, 2] = 2.0
    a[3] = t_f ** _POWERS
    a[4, 1:] = _POWERS[1:] * t_f ** _POWERS[:5]
    a[5, 2:] = _POWERS[2:] * _POWERS[1:5] * t_f ** _POWERS[:4]
    b = np.zeros((6, 3))
    b[0] = start.position
    b[3] = end.position
    coeffs = np.linalg.solve(a, b)
    coeffs.setflags(write=False)
    return QuinticTrajectory(coeffs, start.rotation, float(t_f))


def motion_direction(traj: QuinticTrajectory) -> np.ndarray:
    """Unit direction of travel: the chord from start to end, which the
    velocity is parallel to at every instant (at rest too, where its
    own direction is lost to rounding)."""
    chord = traj.position(traj.t_f) - traj.position(0.0)
    norm = np.linalg.norm(chord)
    if norm <= ZERO_SPEED_TOL:
        raise DegenerateTrajectory("start and end positions coincide")
    return chord / norm


def _grid_size(t_f: float, dt: float) -> int:
    """N, the number of samples on the grid of ``sample``: ``dt`` must lie
    in (0, t_f] and give at most ``MAX_SAMPLES`` samples."""
    if not 0.0 < dt <= t_f:
        raise InvalidStep(f"dt must lie in (0, t_f], got {dt}")
    ratio = t_f / dt  # at least 1
    if math.isfinite(ratio) and round(ratio) <= MAX_SAMPLES:
        return round(ratio)
    raise InvalidStep(f"t_f/dt = {ratio:.3g}: over {MAX_SAMPLES} samples")


def _grid(traj: QuinticTrajectory, dt: float):
    """The sampling grid of ``sample`` as arrays: times (N,) and
    positions (N, 3)."""
    n = _grid_size(traj.t_f, dt)
    times = [traj.t_f * i / n for i in range(1, n + 1)]
    # per-t products, as position(t) sums them
    pos_c = traj.coeffs.T
    positions = np.array([pos_c @ (t ** _POWERS) for t in times])
    if not np.isfinite(positions).all():
        raise ValueError("trajectory samples must be finite")
    return np.array(times), positions


def sample(traj: QuinticTrajectory, dt: float) -> list[TrajectorySample]:
    """N = round(t_f/dt) samples at t = t_f/N, 2 t_f/N, ..., t_f.

    Half-open on the left: no sample at t = 0 (that is the grasp pose,
    recorded separately by callers). When dt does not divide t_f the grid
    is snapped so the last sample lands exactly on t_f.
    """
    times, positions = _grid(traj, dt)
    return [TrajectorySample(t, Pose(p, traj.start_rotation),
                             Twist(traj.velocity(t), np.zeros(3)), i)
            for i, (t, p) in enumerate(zip(times.tolist(), positions), 1)]
