"""Effective-mass profiles along a trajectory and grasp ranking.

The arm's energy matrix depends on the trajectory alone, so one sweep
does the warm-started IK, task-space inertia and motion direction per
sample. Each grasp then adds its object matrix, rotated into base axes,
at every sample and gets all its effective masses from one batched
solve. Grasps are ranked ascending by profile aggregate (safest first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augmented import QUALITY_NEAR_SINGULAR, unit_direction
from .bodies import (GraspCandidate, RigidBodyInertia, com_energy_matrix,
                     transform_to_grasp)
from .chain import ChainModel, inverse_kinematics, operational_space_inertia
from .constants import PD_MIN_EIG, ZERO_SPEED_TOL
from .errors import (DegenerateTrajectory, EmptyInput, IkDidNotConverge,
                     LengthMismatch, NotPositiveDefinite)
from .spatial import Pose
from .trajectory import QuinticTrajectory, direction_at, sample


@dataclass(frozen=True, eq=False)
class EffectiveMassProfile:
    """Effective mass of one grasp at each trajectory sample."""

    grasp_id: str
    times: np.ndarray
    masses: np.ndarray
    qualities: tuple[str, ...]

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if times.shape != masses.shape or times.ndim != 1:
            raise LengthMismatch("times and masses must be equal-length vectors")
        if len(self.qualities) != len(times):
            raise LengthMismatch("one quality flag per sample required")
        if not (masses > 0.0).all():
            raise ValueError("effective masses must be positive")
        times.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "qualities", tuple(self.qualities))

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
        flagged = np.array([q == QUALITY_NEAR_SINGULAR
                            for q in profile.qualities])
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
        note = None
        if flagged.any():
            note = (f"{profile.grasp_id}: excluded "
                    f"{int(flagged.sum())} near-singular sample(s) from max")
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
    profiles: tuple[EffectiveMassProfile, ...]
    notes: tuple[str, ...] = ()


def evaluate_grasp(chain: ChainModel, body: RigidBodyInertia,
                   grasp: GraspCandidate, traj: QuinticTrajectory, dt: float,
                   q_seed, *, direction=None) -> EffectiveMassProfile:
    """Effective-mass profile of one grasp: ``evaluate_grasps`` on one."""
    return evaluate_grasps(chain, body, [grasp], traj, dt, q_seed,
                           direction=direction)[0]


def evaluate_grasps(chain, bodies, grasps, traj, dt, q_seed, *,
                    direction=None) -> list[EffectiveMassProfile]:
    """Effective-mass profiles of grasps along the sampled trajectory.

    ``bodies`` is one RigidBodyInertia shared by all grasps, or a sequence
    aligned with ``grasps``; results keep the input order. IK is warm-
    started sample to sample, once for all grasps; on failure the error
    carries the sample index (0 = grasp pose at t=0). ``direction`` fixes
    the collision direction, else the motion direction at each sample.
    """
    grasps = list(grasps)
    if isinstance(bodies, RigidBodyInertia):
        bodies = [bodies] * len(grasps)
    else:
        bodies = list(bodies)
    if len(bodies) != len(grasps):
        raise LengthMismatch("one body per grasp required")
    if direction is not None:
        direction = unit_direction(direction)
    samples, lam_rob, dirs, qualities = _sweep(chain, traj, dt, q_seed,
                                               direction)
    times = np.array([s.t for s in samples])
    # blockdiag(R, R) per sample: grasp axes -> base axes
    rot = np.zeros((len(samples), 6, 6))
    rot[:, :3, :3] = rot[:, 3:, 3:] = [s.pose.rotation for s in samples]
    rhs = np.concatenate([dirs, np.zeros_like(dirs)], axis=1)[:, :, None]
    profiles = []
    for body, grasp in zip(bodies, grasps):
        lam_gp = transform_to_grasp(com_energy_matrix(body), grasp).matrix
        lam_tot = lam_rob + np.einsum("nij,jk,nlk->nil", rot, lam_gp, rot)
        if np.linalg.eigvalsh(lam_tot)[:, 0].min() <= PD_MIN_EIG:
            raise NotPositiveDefinite(f"grasp {grasp.id}: augmented matrix "
                                      "not positive definite; cannot invert")
        # [Lambda^-1]_uu v is the top half of Lambda^-1 [v, 0]
        x = np.linalg.solve(lam_tot, rhs)[:, :3, 0]
        masses = 1.0 / np.einsum("ni,ni->n", dirs, x)
        profiles.append(EffectiveMassProfile(grasp.id, times, masses,
                                             qualities))
    return profiles


def _sweep(chain, traj, dt, q_seed, direction):
    """Grasp-independent pass: the samples, the arm's task-space inertia
    (N, 6, 6) in base axes, unit directions (N, 3) and quality flags."""
    samples = sample(traj, dt)
    start = Pose(traj.position(0.0), traj.start_rotation)
    q_cur = _solve_ik(chain, start, q_seed, 0)
    lam_rob, dirs, qualities = [], [], []
    for samp in samples:
        q_cur = _solve_ik(chain, samp.pose, q_cur, samp.sample_index)
        osi = operational_space_inertia(chain, q_cur)
        lam_rob.append(osi.matrix.matrix)
        dirs.append(direction if direction is not None else
                    _motion_direction(samp, samples, traj))
        qualities.append(osi.quality)
    return samples, np.array(lam_rob), np.array(dirs), tuple(qualities)


def _motion_direction(samp, samples, traj):
    # coarse grids can leave every sample at rest (dt = t_f lands on the
    # endpoint); the rest-to-rest path is a straight chord, so use it
    try:
        return direction_at(samp, samples)
    except DegenerateTrajectory:
        chord = traj.position(traj.t_f) - traj.position(0.0)
        norm = np.linalg.norm(chord)
        if norm <= ZERO_SPEED_TOL:
            raise
        return chord / norm


def _solve_ik(chain, pose, seed, index):
    try:
        return inverse_kinematics(chain, pose, seed)
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
    scored = []
    notes = []
    for p in profiles:
        value, note = aggregator(p)
        scored.append((value, p.grasp_id, p))
        if note:
            notes.append(note)
    scored.sort(key=lambda item: (item[0], item[1]))
    return RankingReport(
        grasp_ids=tuple(gid for _, gid, _ in scored),
        aggregates=tuple(v for v, _, _ in scored),
        aggregator=aggregator.name,
        profiles=tuple(p for _, _, p in scored),
        notes=tuple(notes))


def mass_map(profiles) -> np.ndarray:
    """Stack profiles into a (grasps x samples) matrix, input order kept."""
    profiles = list(profiles)
    if not profiles:
        raise EmptyInput("no profiles")
    n = len(profiles[0])
    if any(len(p) != n for p in profiles):
        raise LengthMismatch("profiles must have equal length")
    return np.vstack([p.masses for p in profiles])
