"""1-DOF mass-spring-damper contact model for peak impact force.

A point of the given effective mass hits a stiff surface at the approach
speed; penetration x obeys M x'' = -k x - c x' while x > 0 and the contact
force is k x + c x' clamped at zero. Deliberately simple so the
effective-mass-to-peak-force relationship is testable without a robot
simulator: for c = 0 the peak is exactly v * sqrt(k M).

The model is solved in closed form, as in the transient-contact model of
Haddadin et al., "Requirements for safe robots" (IJRR 2009) and
ISO/TS 15066. With sigma = c / 2M and d = sqrt(sigma^2 - k/M), imaginary
when underdamped, x(t) = v e^(-sigma t) sinh(d t) / d in every damping
regime (v t e^(-sigma t) at critical damping).

``predict_ordering`` runs one contact per grasp at one column of the
(G, N) mass table (``ranking.score``): the collision instant's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DampingOutOfRange, EmptyInput, LengthMismatch,
                     StiffnessOutOfRange)

TRACE_POINTS = 2000


@dataclass(frozen=True, eq=False)
class ImpactScenario:
    """Inputs for one contact, all finite.

    ``duration``, the simulated window, is derived: 1.25 * pi * sqrt(M/k),
    a bit over the undamped contact half-period, so a contact with damping
    ratio c / (2 sqrt(k M)) up to 0.6 ends inside it.
    """

    effective_mass: float
    approach_speed: float
    contact_stiffness: float
    contact_damping: float = 0.0
    duration: float = field(init=False)

    def __post_init__(self):
        for name in ("effective_mass", "approach_speed", "contact_stiffness"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 <= self.contact_damping < math.inf:
            raise ValueError("contact_damping must be finite and >= 0")
        # plain floats: numpy scalars would warn on overflow, not give inf
        ratio = float(self.contact_damping) / float(self.effective_mass)
        if not ratio * ratio < math.inf:
            raise DampingOutOfRange(
                f"{self.contact_damping:g} N s/m is too large for an "
                f"effective mass of {self.effective_mass:g} kg: the contact "
                "model squares their ratio")
        # the peak instant takes 3 k/M, the window sqrt(M/k); a finite
        # k/M also keeps M/k, and so the window, above zero
        m, k = float(self.effective_mass), float(self.contact_stiffness)
        duration = 1.25 * math.pi * math.sqrt(m / k)
        if not (3.0 * (k / m) < math.inf and duration < math.inf):
            raise StiffnessOutOfRange(
                f"{k:g} N/m is too {'stiff' if k > m else 'soft'} for an "
                f"effective mass of {m:g} kg: the contact model needs k/M "
                "and M/k inside the float range")
        object.__setattr__(self, "duration", duration)


@dataclass(frozen=True, eq=False)
class ForceTrace:
    """(t, F) series: TRACE_POINTS + 1 even steps plus the peak instant."""

    times: np.ndarray
    forces: np.ndarray
    peak_force: float
    peak_time: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.forces, dtype=float)
        if t.shape != f.shape or t.ndim != 1 or len(t) == 0:
            raise ValueError("times and forces must be equal-length vectors")
        for name, values in (("times", t), ("forces", f),
                             ("peak_force", self.peak_force),
                             ("peak_time", self.peak_time)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if abs(f.max() - self.peak_force) > 1e-12 * max(1.0, self.peak_force):
            raise ValueError("peak_force must be the series maximum")
        t.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "forces", f)


def simulate_impact(s: ImpactScenario) -> ForceTrace:
    """Closed-form contact force from touchdown (x = 0, x' = v).

    The contact ends when x returns to zero (at pi / w_d, underdamped
    only; no sticking) or when the duration runs out. The force peaks at
    touchdown when c^2 >= k M, otherwise at the first zero of dF/dt, at
    most (pi / 2) / w_d after it: no later than half the window.
    """
    m, k, c = s.effective_mass, s.contact_stiffness, s.contact_damping
    sigma, w2, cm2 = c / (2.0 * m), k / m, (c / m) ** 2
    d = cmath.sqrt(sigma * sigma - w2)     # i * w_d when underdamped
    w_d = d.imag
    t_end = min(s.duration, math.pi / w_d) if w_d else s.duration
    t_peak = 0.0
    if cm2 < w2:                           # c^2 < k M
        t_peak = math.atan2(w_d * (w2 - cm2),
                            sigma * (3.0 * w2 - cm2)) / w_d
    t = np.linspace(0.0, t_end, TRACE_POINTS + 1)
    at = int(np.searchsorted(t, t_peak))
    if t[at] != t_peak:
        t = np.insert(t, at, t_peak)
    # e^(-sigma t) sinh(d t) / d and e^(-sigma t) cosh(d t), factored
    # through the slow mode e^((d - sigma) t) so neither can overflow
    slow = np.exp((d - sigma) * t)
    sinh_d = slow * (-np.expm1(-2.0 * d * t) / (2.0 * d) if d else t)
    cosh_d = slow - d * sinh_d
    x = s.approach_speed * sinh_d.real
    x_dot = s.approach_speed * (cosh_d - sigma * sinh_d).real
    f = np.maximum(k * x + c * x_dot, 0.0)
    if t_end < s.duration:      # x(pi / w_d) is 0, round-off of sin(pi) aside
        f[-1] = 0.0
    peak = int(f.argmax())
    return ForceTrace(t, f, float(f[peak]), float(t[peak]))


@dataclass(frozen=True, eq=False)
class ImpactOrdering:
    """Grasps ascending by simulated peak force at the collision sample,
    each with its force trace."""

    grasp_ids: tuple[str, ...]
    peak_forces: tuple[float, ...]
    traces: tuple[ForceTrace, ...]


def predict_ordering(grasp_ids, masses, speed: float, stiffness: float,
                     damping: float = 0.0) -> ImpactOrdering:
    """Simulate one impact per grasp at its effective mass there.

    ``masses`` (G,) holds each grasp's effective mass at the collision
    instant, entry g for ``grasp_ids[g]``: one column of the mass table.
    Ties in peak force break on grasp id.
    """
    grasp_ids = tuple(grasp_ids)
    if not grasp_ids:
        raise EmptyInput("no grasps")
    if np.shape(masses) != (len(grasp_ids),):
        raise LengthMismatch("one effective mass per grasp required")
    scored = []
    for gid, mass in zip(grasp_ids, masses):
        trace = simulate_impact(ImpactScenario(
            effective_mass=float(mass), approach_speed=speed,
            contact_stiffness=stiffness, contact_damping=damping))
        scored.append((trace.peak_force, gid, trace))
    peaks, grasp_ids, traces = zip(*sorted(scored, key=lambda item: item[:2]))
    return ImpactOrdering(grasp_ids, peaks, traces)
