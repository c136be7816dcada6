"""Effective-mass profiles along a trajectory and grasp ranking.

The arm's energy matrix depends on the trajectory alone, so one sweep
per trajectory computes it from the sampling grid, read as arrays:
warm-started IK sample by sample (each solve seeds the next and hands
it its converged frame pass), then the task-space inertia of all the
converged joint values in one batched call
(``operational_space_inertias``), with one near-singular flag per
sample, and the motion direction: the path's chord, the same at every
sample (``_sweep``). Each grasp then rotates its object matrix into
base axes once (the held orientation is the same at every sample),
adds it to the arm's at every sample and gets all its effective masses
from one batched solve (``_score``). ``evaluate_grasps`` is the two in
turn; a ``Scene`` keeps one entry per ``dt`` holding both results, so
only the first command on a scene and ``dt`` pays for them. Grasps are
ranked ascending by profile aggregate (safest first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bodies import RigidBodyInertia, com_energy_matrix, transform_to_grasp
from .chain import _ik, _qvec, operational_space_inertias
from .constants import PD_MIN_EIG
from .errors import (EmptyInput, IkDidNotConverge, LengthMismatch,
                     NotPositiveDefinite)
from .spatial import Pose
from .trajectory import _grid, motion_direction


@dataclass(frozen=True, eq=False)
class EffectiveMassProfile:
    """Effective mass of one grasp at each trajectory sample."""

    grasp_id: str
    times: np.ndarray
    masses: np.ndarray
    near_singular: np.ndarray  # bool, one per sample: damped arm inertia

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        near = np.asarray(self.near_singular, dtype=bool)
        if times.shape != masses.shape or times.ndim != 1:
            raise LengthMismatch("times and masses must be equal-length vectors")
        if near.shape != times.shape:
            raise LengthMismatch("one near-singular flag per sample required")
        if not (masses > 0.0).all():
            raise ValueError("effective masses must be positive")
        for name, a in (("times", times), ("masses", masses),
                        ("near_singular", near)):
            if a.flags.writeable:  # maybe the caller's own array
                a = a.copy()
                a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class Aggregator:
    """Profile-to-scalar rule: worst case, average, or a fixed sample."""

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("max", "mean", "at_sample"):
            raise ValueError(f"unknown aggregator {self.kind!r}")
        if self.kind == "at_sample" and (self.k is None or self.k < 1):
            raise ValueError("at_sample needs a 1-based sample index")

    @property
    def name(self) -> str:
        return f"at-sample={self.k}" if self.kind == "at_sample" else self.kind

    def __call__(self, profile: EffectiveMassProfile) -> tuple[float, str | None]:
        """Aggregate value plus an optional per-grasp note."""
        flagged = profile.near_singular
        if self.kind == "mean":
            return float(profile.masses.mean()), None
        if self.kind == "at_sample":
            if self.k > len(profile):
                raise ValueError(f"sample {self.k} out of range "
                                 f"(profile has {len(profile)})")
            note = (f"{profile.grasp_id}: collision sample {self.k} is "
                    "near singular" if flagged[self.k - 1] else None)
            return float(profile.masses[self.k - 1]), note
        # max: damped near-singular values must not fake the worst case
        if flagged.all():
            return float(profile.masses.max()), (
                f"{profile.grasp_id}: all samples near singular; "
                "max taken over damped values")
        note = (f"{profile.grasp_id}: excluded {int(flagged.sum())} "
                "near-singular sample(s) from max" if flagged.any() else None)
        return float(profile.masses[~flagged].max()), note


def parse_aggregator(text: str) -> Aggregator:
    """Accepts 'max', 'mean', 'at-sample=K' (underscore variant too)."""
    if text in ("max", "mean"):
        return Aggregator(text)
    normalized = text.replace("_", "-")
    if normalized.startswith("at-sample="):
        try:
            return Aggregator("at_sample", int(normalized.split("=", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad at-sample index in {text!r}") from exc
    raise ValueError(f"unknown aggregator {text!r}")


@dataclass(frozen=True, eq=False)
class RankingReport:
    """Grasps ascending by aggregate; entry 0 is the recommended grasp."""

    grasp_ids: tuple[str, ...]
    aggregates: tuple[float, ...]
    aggregator: str
    notes: tuple[str, ...] = ()


def evaluate_grasps(chain, bodies, grasps, traj, dt,
                    q_seed) -> list[EffectiveMassProfile]:
    """Effective-mass profiles of grasps along the sampled trajectory.

    ``bodies`` is one RigidBodyInertia shared by all grasps, or a sequence
    aligned with ``grasps``; results keep the input order. IK is warm-
    started sample to sample, once for all grasps; on failure the error
    carries the sample index (0 = grasp pose at t=0). The collision
    direction at every sample is the motion direction
    (``motion_direction``).
    """
    grasps = list(grasps)
    bodies = ([bodies] * len(grasps) if isinstance(bodies, RigidBodyInertia)
              else list(bodies))
    if len(bodies) != len(grasps):
        raise LengthMismatch("one body per grasp required")
    return _score(_sweep(chain, traj, dt, q_seed), bodies, grasps)


class _Sweep(NamedTuple):
    """The grasp-independent part of an evaluation, arrays read-only: the
    held rotation (3, 3), the sampling grid's times (N,) (``_grid``), the
    arm's task-space inertia (N, 6, 6) in base axes, the unit motion
    direction (3,) of every sample and near-singular flags (N,)."""

    rotation: np.ndarray
    times: np.ndarray
    lam_rob: np.ndarray
    direction: np.ndarray
    near_singular: np.ndarray


def _score(sweep: _Sweep, bodies, grasps) -> list[EffectiveMassProfile]:
    """Per-grasp part: each grasp's object matrix, rotated into base axes
    once, added to the arm's at every sample, and all its effective masses
    from one batched solve. ``bodies`` is aligned with ``grasps``."""
    times, lam_rob, v = sweep.times, sweep.lam_rob, sweep.direction
    # blockdiag(R, R) with the held rotation: grasp axes -> base axes; the
    # rotation is the same at every sample, so each object term is built
    # once and broadcast over the (N, 6, 6) stack
    rot = np.zeros((6, 6))
    rot[:3, :3] = rot[3:, 3:] = sweep.rotation
    # [v, 0] as one (1, 6, 1) matrix: numpy 1 and 2 broadcast it alike
    rhs = np.concatenate([v, np.zeros(3)])[None, :, None]
    profiles = []
    for body, grasp in zip(bodies, grasps):
        lam_gp = transform_to_grasp(com_energy_matrix(body), grasp).matrix
        lam_tot = lam_rob + np.einsum("ij,jk,lk->il", rot, lam_gp, rot)
        if np.linalg.eigvalsh(lam_tot)[:, 0].min() <= PD_MIN_EIG:
            raise NotPositiveDefinite(f"grasp {grasp.id}: augmented matrix "
                                      "not positive definite; cannot invert")
        # [Lambda^-1]_uu v is the top half of Lambda^-1 [v, 0]; einsum sums
        # each dot in the order of the per-sample products (x @ v does not)
        x = np.linalg.solve(lam_tot, rhs)[:, :3, 0]
        masses = 1.0 / np.einsum("ni,i->n", x, v)
        masses.setflags(write=False)
        profiles.append(EffectiveMassProfile(grasp.id, times, masses,
                                             sweep.near_singular))
    return profiles


def _sweep(chain, traj, dt, q_seed) -> _Sweep:
    """Grasp-independent pass over the sampling grid of ``traj`` at ``dt``.

    IK runs sample by sample, each solve warm-started from the previous
    solution and handed its converged frame pass, so it skips the pass at
    its seed; the start pose (sample 0) seeds sample 1 the same way. The
    task-space inertia of all N solutions is then one batched call on the
    (N, n) stack of their joint values."""
    times, positions = _grid(traj, dt)
    rotation = traj.start_rotation
    start = Pose(traj.position(0.0), rotation)
    q, frames = _solve_ik(chain, start.position, rotation,
                          _qvec(chain, q_seed), None, 0)
    qs = np.empty((len(positions), chain.dof))
    for row, position in enumerate(positions):
        q, frames = _solve_ik(chain, position, rotation, q, frames, row + 1)
        qs[row] = q
    osi = operational_space_inertias(chain, qs)
    direction = motion_direction(traj)
    for a in (times, direction):
        a.setflags(write=False)
    return _Sweep(rotation, times, osi.matrices, direction, osi.near_singular)


def _solve_ik(chain, position, rotation, q, frames, index):
    try:
        return _ik(chain, position, rotation, q, frames)
    except IkDidNotConverge as exc:
        raise IkDidNotConverge(f"sample {index}: {exc}", best_q=exc.best_q,
                               pos_err=exc.pos_err, rot_err=exc.rot_err,
                               sample_index=index) from exc


def rank_grasps(profiles, aggregator="max") -> RankingReport:
    """Order profiles ascending by aggregate; ties break on grasp id."""
    if isinstance(aggregator, str):
        aggregator = parse_aggregator(aggregator)
    profiles = list(profiles)
    if not profiles:
        raise EmptyInput("no profiles to rank")
    n = len(profiles[0])
    if any(len(p) != n for p in profiles):
        raise LengthMismatch("profiles must have equal length")
    scored, notes = [], []
    for p in profiles:
        value, note = aggregator(p)
        scored.append((value, p.grasp_id))
        if note:
            notes.append(note)
    aggregates, grasp_ids = zip(*sorted(scored))
    return RankingReport(grasp_ids, aggregates, aggregator.name, tuple(notes))
