"""Effective masses as one grasps x samples table, and grasp ranking.

The per-grasp part of an evaluation, on the arm's sweep
(``chain.sweep``): the object terms of all grasps are built in base
axes as one stack (``bodies.grasp_energy_matrices``; the held
orientation is the same at every sample); each
grasp adds its term to the arm's at every sample and gets its row of
the (G, N) mass table from one Cholesky check and one batched solve
(``score``); its columns' times and flags are the sweep's. A ``Scene``
keeps one entry per ``dt`` holding both (``Scene.evaluated``), so only
the first command on a scene and ``dt`` pays for them; a custom grasp
list is ``score`` on that scene's sweep, which costs no IK. Grasps are
ranked ascending by the aggregate of their row (safest first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augmented import effective_masses
from .bodies import grasp_energy_matrices
from .chain import Sweep
from .errors import NotPositiveDefinite


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
            # a row whose sum overflows is summed divided by its length
            with np.errstate(over="ignore"):
                means = masses.mean(axis=1)
            big = ~np.isfinite(means)
            if big.any():
                means[big] = (masses[big] / masses.shape[1]).sum(axis=1)
            return means, None
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


def score(sweep: Sweep, bodies, grasps) -> np.ndarray:
    """Per-grasp part: the read-only (G, N) effective masses, row g for
    ``grasps[g]`` at every sample of ``sweep``. The object terms of all
    grasps come in base axes as one (G, 6, 6) stack, and each is added to
    the arm's at every sample, its row from one batched solve. ``bodies``
    aligns with ``grasps``, one body per grasp; only one grasp's (N, 6, 6)
    total is held at a time."""
    if len(bodies) != len(grasps):
        raise ValueError("one body per grasp required")
    terms = grasp_energy_matrices(bodies, grasps, sweep.rotation)
    masses = np.empty((len(grasps), len(sweep.times)))
    for row, grasp, term in zip(masses, grasps, terms):
        try:
            row[:] = effective_masses(sweep.lam_rob + term, sweep.direction)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(f"grasp {grasp.id}: {exc}") from exc
    masses.setflags(write=False)
    return masses


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
        raise ValueError(f"no {'samples' if grasp_ids else 'grasps'} to rank")
    if masses.shape != (len(grasp_ids), len(near_singular)):
        raise ValueError(f"mass table {masses.shape} for {len(grasp_ids)} "
                         f"grasp(s) and {len(near_singular)} sample(s)")
    bad = ~(np.isfinite(masses) & (masses > 0.0)).all(axis=1)
    if bad.any():
        raise ValueError(f"grasp {grasp_ids[bad.argmax()]}: effective masses "
                         "must be finite and positive")
    values, note = aggregator(masses, near_singular)
    notes = tuple(f"{gid}: {note}" for gid in grasp_ids) if note else ()
    aggregates, grasp_ids = zip(*sorted(zip(values.tolist(), grasp_ids)))
    return RankingReport(grasp_ids, aggregates, aggregator.name, notes)
