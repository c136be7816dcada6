"""Effective masses as one grasps x samples table, and grasp ranking.

The arm's energy matrix depends on the trajectory alone, so one sweep
per trajectory computes it from the sampling grid, read as arrays:
warm-started IK sample by sample (each solve seeds the next and hands
it its converged frame pass), then the task-space inertia of all the
samples from the stack of those passes, with one near-singular flag
per sample, and the motion direction: the path's chord, the same at
every sample (``sweep``). The object terms of all grasps are then built
as one stack (``bodies.grasp_energy_matrices``) and rotated into base
axes by one einsum (the held orientation is the same at every sample);
each grasp adds its term to the arm's at every sample and gets its row
of the (G, N) mass table from one Cholesky check and one batched solve
(``score``); its columns' times and flags are the sweep's. A ``Scene``
keeps one entry per ``dt`` holding both (``Scene.evaluated``), so only
the first command on a scene and ``dt`` pays for them; a custom grasp
list is ``score`` on that scene's sweep, which costs no IK. Grasps are
ranked ascending by the aggregate of their row (safest first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .augmented import effective_masses
from .bodies import grasp_energy_matrices
from .chain import _checked, _ik, _qvec, _stack, _stacked_inertias
from .errors import (EmptyInput, IkDidNotConverge, LengthMismatch,
                     NotPositiveDefinite)
from .trajectory import _grid, motion_direction


@dataclass(frozen=True)
class Aggregator:
    """Row-to-scalar rule: worst case, average, or the 1-based sample k."""

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("max", "mean", "at_sample"):
            raise ValueError(f"unknown aggregator {self.kind!r}")
        if self.kind != "at_sample":
            if self.k is not None:
                raise ValueError(f"{self.kind} takes no sample index")
        elif (isinstance(self.k, bool)
              or not isinstance(self.k, (int, np.integer)) or self.k < 1):
            raise ValueError("at_sample needs a 1-based integer sample index")

    @property
    def name(self) -> str:
        return f"at-sample={self.k}" if self.kind == "at_sample" else self.kind

    def __call__(self, masses: np.ndarray,
                 near_singular: np.ndarray) -> tuple[np.ndarray, str | None]:
        """Each row's aggregate and an optional note shared by all rows."""
        if self.kind == "mean":
            return masses.mean(axis=1), None
        if self.kind == "at_sample":
            if self.k > len(near_singular):
                raise ValueError(f"sample {self.k} out of range "
                                 f"(grid has {len(near_singular)})")
            note = (f"collision sample {self.k} is near singular"
                    if near_singular[self.k - 1] else None)
            return masses[:, self.k - 1], note
        # max: damped near-singular values must not fake the worst case
        if near_singular.all():
            return masses.max(axis=1), ("all samples near singular; "
                                        "max taken over damped values")
        note = (f"excluded {int(near_singular.sum())} near-singular "
                "sample(s) from max" if near_singular.any() else None)
        return masses[:, ~near_singular].max(axis=1), note


def parse_aggregator(text: str) -> Aggregator:
    """Accepts 'max', 'mean', 'at-sample=K' (underscore variant too), K
    as ``str(k)`` writes it: no sign, spaces or leading zeros."""
    if text in ("max", "mean"):
        return Aggregator(text)
    normalized = text.replace("_", "-")
    if normalized.startswith("at-sample="):
        index = normalized.split("=", 1)[1]
        try:
            k = int(index)
            if not index.isascii() or str(k) != index:
                raise ValueError(index)
            return Aggregator("at_sample", k)
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


class Sweep(NamedTuple):
    """The grasp-independent part of an evaluation, arrays read-only: the
    held rotation (3, 3), the sampling grid's times (N,) (``_grid``), the
    arm's task-space inertia (N, 6, 6) in base axes, the unit motion
    direction (3,) of every sample and near-singular flags (N,)."""

    rotation: np.ndarray
    times: np.ndarray
    lam_rob: np.ndarray
    direction: np.ndarray
    near_singular: np.ndarray


def score(sweep: Sweep, bodies, grasps) -> np.ndarray:
    """Per-grasp part: the read-only (G, N) effective masses, row g for
    ``grasps[g]`` at every sample of ``sweep``. The object terms of all
    grasps are built as one (G, 6, 6) stack and rotated into base axes by
    one einsum, then each is added to the arm's at every sample, its row
    from one batched solve. ``bodies`` aligns with ``grasps``, one body per
    grasp; only one grasp's (N, 6, 6) total is held at a time."""
    if len(bodies) != len(grasps):
        raise LengthMismatch("one body per grasp required")
    # blockdiag(R, R) with the held rotation: grasp axes -> base axes; the
    # rotation is the same at every sample, so each object term is rotated
    # once and broadcast over the (N, 6, 6) stack
    rot = np.zeros((6, 6))
    rot[:3, :3] = rot[3:, 3:] = sweep.rotation
    terms = np.einsum("ij,gjk,lk->gil", rot,
                      grasp_energy_matrices(bodies, grasps), rot)
    masses = np.empty((len(grasps), len(sweep.times)))
    for row, grasp, term in zip(masses, grasps, terms):
        try:
            row[:] = effective_masses(sweep.lam_rob + term, sweep.direction)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(f"grasp {grasp.id}: {exc}") from exc
    masses.setflags(write=False)
    return masses


def sweep(chain, traj, dt, q_seed) -> Sweep:
    """Grasp-independent pass over the sampling grid of ``traj`` at ``dt``.

    IK runs sample by sample, each solve warm-started from the previous
    solution and handed its converged frame pass, so it skips the pass at
    its seed; the start pose (sample 0) seeds sample 1 the same way. The
    task-space inertia of all N samples is then one batch on the stack of
    their converged passes, so no pass runs outside IK. A failed solve
    raises ``IkDidNotConverge`` carrying its sample index (0 = start)."""
    times, positions = _grid(traj, dt)
    rotation = traj.start_rotation
    q, frames = _solve_ik(chain, traj.position(0.0), rotation,
                          _qvec(chain, q_seed), None, 0)
    passes = []
    for index, position in enumerate(positions, 1):
        q, frames = _solve_ik(chain, position, rotation, q, frames, index)
        passes.append(frames)
    lam_rob, near_singular = _stacked_inertias(chain, _checked(_stack(passes)))
    direction = motion_direction(traj)
    for a in (times, direction):
        a.setflags(write=False)
    return Sweep(rotation, times, lam_rob, direction, near_singular)


def _solve_ik(chain, position, rotation, q, frames, index):
    try:
        return _ik(chain, position, rotation, q, frames)
    except IkDidNotConverge as exc:
        raise IkDidNotConverge(f"sample {index}: {exc}", best_q=exc.best_q,
                               pos_err=exc.pos_err, rot_err=exc.rot_err,
                               sample_index=index) from exc


def rank_grasps(grasp_ids, masses, near_singular,
                aggregator="max") -> RankingReport:
    """Order the rows of a (G, N) mass table (row g for ``grasp_ids[g]``)
    ascending by aggregate; ties break on grasp id. Each mass of the
    non-empty table must be finite and positive (a NaN has no order)."""
    if isinstance(aggregator, str):
        aggregator = parse_aggregator(aggregator)
    grasp_ids = tuple(grasp_ids)
    masses = np.asarray(masses, dtype=float)
    near_singular = np.asarray(near_singular, dtype=bool)
    if not grasp_ids or not len(near_singular):
        raise EmptyInput(f"no {'samples' if grasp_ids else 'grasps'} to rank")
    if masses.shape != (len(grasp_ids), len(near_singular)):
        raise LengthMismatch(f"mass table {masses.shape} for {len(grasp_ids)} "
                             f"grasp(s) and {len(near_singular)} sample(s)")
    bad = ~(np.isfinite(masses) & (masses > 0.0)).all(axis=1)
    if bad.any():
        raise ValueError(f"grasp {grasp_ids[bad.argmax()]}: effective masses "
                         "must be finite and positive")
    values, note = aggregator(masses, near_singular)
    notes = tuple(f"{gid}: {note}" for gid in grasp_ids) if note else ()
    aggregates, grasp_ids = zip(*sorted(zip(values.tolist(), grasp_ids)))
    return RankingReport(grasp_ids, aggregates, aggregator.name, notes)
