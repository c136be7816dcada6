"""Rest-to-rest quintic point trajectories with uniform sampling.

One independent quintic per Cartesian axis, boundary conditions
x(0) = start, x(t_f) = end, zero velocity and acceleration at both ends.
Orientation is held at the start pose's rotation for every sample; the
end rotation is stored for future interpolation but unused.

``sample`` returns one validated ``TrajectorySample`` per grid point. The
pipeline reads the same grid as arrays (``_grid``: times, positions and
velocities, each row evaluated as ``position(t)``/``velocity(t)`` would,
finiteness checked once per stack) and takes the motion directions from
the velocity stack (``_directions``), by the rule of ``direction_at``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import ZERO_SPEED_TOL
from .errors import DegenerateTrajectory, InvalidStep, NonPositiveDuration
from .spatial import Pose, Twist

_POWERS = np.arange(6)


@dataclass(frozen=True, eq=False)
class QuinticTrajectory:
    """Coefficient table (6, 3): row k holds the t^k coefficient per axis."""

    coeffs: np.ndarray
    start_rotation: np.ndarray
    end_rotation: np.ndarray
    t_f: float

    def position(self, t: float) -> np.ndarray:
        return self.coeffs.T @ (t ** _POWERS)

    def velocity(self, t: float) -> np.ndarray:
        c = self.coeffs[1:] * _POWERS[1:, None]
        return c.T @ (t ** _POWERS[:5])

    def acceleration(self, t: float) -> np.ndarray:
        c = self.coeffs[2:] * (_POWERS[2:] * _POWERS[1:5])[:, None]
        return c.T @ (t ** _POWERS[:4])


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
    return QuinticTrajectory(coeffs, start.rotation, end.rotation, float(t_f))


def _grid(traj: QuinticTrajectory, dt: float):
    """The sampling grid of ``sample`` as arrays: times (N,), positions
    (N, 3) and linear velocities (N, 3)."""
    if not 0.0 < dt <= traj.t_f:
        raise InvalidStep(f"dt must lie in (0, t_f], got {dt}")
    n = max(1, round(traj.t_f / dt))
    times = [traj.t_f * i / n for i in range(1, n + 1)]
    # per-t products, as position(t) and velocity(t) sum them
    pos_c = traj.coeffs.T
    vel_c = (traj.coeffs[1:] * _POWERS[1:, None]).T
    positions = np.array([pos_c @ (t ** _POWERS) for t in times])
    velocities = np.array([vel_c @ (t ** _POWERS[:5]) for t in times])
    if not (np.isfinite(positions).all() and np.isfinite(velocities).all()):
        raise ValueError("trajectory samples must be finite")
    return np.array(times), positions, velocities


def sample(traj: QuinticTrajectory, dt: float) -> list[TrajectorySample]:
    """N = round(t_f/dt) samples at t = t_f/N, 2 t_f/N, ..., t_f.

    Half-open on the left: no sample at t = 0 (that is the grasp pose,
    recorded separately by callers). When dt does not divide t_f the grid
    is snapped so the last sample lands exactly on t_f.
    """
    times, positions, velocities = _grid(traj, dt)
    return [TrajectorySample(t, Pose(p, traj.start_rotation),
                             Twist(v, np.zeros(3)), i)
            for i, (t, p, v) in enumerate(
                zip(times.tolist(), positions, velocities), 1)]


def direction_at(samp: TrajectorySample,
                 samples: list[TrajectorySample]) -> np.ndarray:
    """Unit motion direction at a sample.

    At (near-)rest samples, endpoints in particular, the direction of the
    nearest sample with nonzero speed substitutes, so effective mass stays
    defined along the whole path.
    """
    v = samp.velocity.linear
    speed = float(np.linalg.norm(v))
    if speed >= ZERO_SPEED_TOL:
        return v / speed
    best = None
    best_dist = None
    for other in samples:
        s = float(np.linalg.norm(other.velocity.linear))
        if s < ZERO_SPEED_TOL:
            continue
        dist = abs(other.sample_index - samp.sample_index)
        if best is None or dist < best_dist:
            best, best_dist = other, dist
    if best is None:
        raise DegenerateTrajectory("all samples are at rest")
    v = best.velocity.linear
    return v / np.linalg.norm(v)


def _directions(velocities: np.ndarray) -> np.ndarray:
    """``direction_at`` of every row of a grid's (N, 3) velocity stack:
    each moving row over its speed; each row at rest takes the direction
    of the nearest moving row, the earlier one on a tie."""
    speeds = np.array([float(np.linalg.norm(v)) for v in velocities])
    moving = np.flatnonzero(speeds >= ZERO_SPEED_TOL)
    if not len(moving):
        raise DegenerateTrajectory("all samples are at rest")
    rows = np.arange(len(speeds))
    at = np.searchsorted(moving, rows)   # first moving row at or after
    after = moving[np.minimum(at, len(moving) - 1)]
    before = moving[np.maximum(at - 1, 0)]
    nearest = np.where(np.abs(rows - before) <= np.abs(after - rows),
                       before, after)
    return np.array([velocities[k] / speeds[k] for k in nearest.tolist()])
