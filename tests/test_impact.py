import math

import numpy as np
import pytest

from graspmass import (
    ForceTrace,
    ImpactScenario,
    predict_ordering,
    simulate_impact,
)
from graspmass.errors import (DampingOutOfRange, EmptyInput, LengthMismatch,
                              StiffnessOutOfRange)

from conftest import integrate_contact


def test_unit_case_peak_and_timing():
    trace = simulate_impact(ImpactScenario(1.0, 1.0, 1e4))
    assert np.isclose(trace.peak_force, 100.0, rtol=5e-3)
    # quarter period of the contact oscillator
    assert np.isclose(trace.peak_time, 0.5 * np.pi * np.sqrt(1.0 / 1e4),
                      rtol=1e-2)


def test_peak_scales_with_sqrt_mass():
    base = simulate_impact(ImpactScenario(1.0, 1.0, 1e4)).peak_force
    heavy = simulate_impact(ImpactScenario(4.0, 1.0, 1e4)).peak_force
    assert np.isclose(heavy, 2.0 * base, rtol=1e-2)
    assert np.isclose(heavy, 200.0, rtol=5e-3)


def test_sqrt_law_across_mass_range():
    for m in np.geomspace(0.1, 50.0, 12):
        peak = simulate_impact(ImpactScenario(m, 1.0, 1e4)).peak_force
        assert np.isclose(peak, np.sqrt(1e4 * m), rtol=1e-2)


def test_peak_scales_linearly_with_speed():
    slow = simulate_impact(ImpactScenario(2.0, 0.3, 1e4)).peak_force
    fast = simulate_impact(ImpactScenario(2.0, 0.6, 1e4)).peak_force
    assert np.isclose(fast, 2.0 * slow, rtol=1e-3)


def test_energy_bound_undamped():
    # peak spring energy equals the incoming kinetic energy
    s = ImpactScenario(3.0, 0.8, 2e4)
    trace = simulate_impact(s)
    x_max = trace.peak_force / s.contact_stiffness
    spring = 0.5 * s.contact_stiffness * x_max**2
    kinetic = 0.5 * s.effective_mass * s.approach_speed**2
    assert spring <= kinetic * (1.0 + 1e-6)
    assert np.isclose(spring, kinetic, rtol=1e-2)


def test_damping_slows_oscillator_and_acts_at_touchdown():
    # damped ratio zeta = 0.1: half period stretches by 1/sqrt(1 - zeta^2)
    und = simulate_impact(ImpactScenario(1.0, 1.0, 1e4, 0.0))
    damped = simulate_impact(ImpactScenario(1.0, 1.0, 1e4, 20.0))
    ratio = damped.times[-1] / und.times[-1]
    assert 1.0 < ratio < 1.0 / np.sqrt(1.0 - 0.1**2) + 1e-2
    # damper force appears the instant the contact closes
    assert np.isclose(damped.forces[0], 20.0 * 1.0, rtol=1e-12)
    assert np.isclose(und.forces[0], 0.0, atol=1e-12)


def test_monotone_in_mass_and_stiffness():
    peaks = [simulate_impact(ImpactScenario(m, 1.0, 1e4)).peak_force
             for m in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert np.all(np.diff(peaks) > 0.0)
    peaks = [simulate_impact(ImpactScenario(1.0, 1.0, k)).peak_force
             for k in (1e3, 1e4, 1e5)]
    assert np.all(np.diff(peaks) > 0.0)


def test_trace_invariants():
    trace = simulate_impact(ImpactScenario(2.0, 0.5, 5e4))
    assert np.all(trace.forces >= 0.0)
    assert np.all(np.diff(trace.times) > 0.0)
    assert trace.peak_force == trace.forces.max()
    assert np.isclose(trace.forces[-1], 0.0, atol=1e-9)
    assert len(trace.times) <= 2100


@pytest.mark.parametrize("zeta", [0.0, 0.05, 0.2, 0.5, 0.9, 1.0, 2.0])
def test_closed_form_matches_integrator(zeta):
    # zeta = 0.5 is c^2 = k M, where the peak moves to touchdown;
    # 1 is critical damping, 2 overdamped
    m, v, k = 1.3, 0.7, 1e4
    s = ImpactScenario(m, v, k, 2.0 * zeta * math.sqrt(k * m))
    trace = simulate_impact(s)
    t_ref, f_ref = integrate_contact(s)
    step = 1e-4 * math.sqrt(m / k)
    assert np.isclose(trace.peak_force, f_ref.max(), rtol=1e-4, atol=0.0)
    assert abs(trace.peak_time - t_ref[f_ref.argmax()]) <= 2.0 * step
    assert abs(trace.times[-1] - t_ref[-1]) <= 2.0 * step
    assert (trace.forces[-1] == 0.0) == (f_ref[-1] == 0.0)
    assert np.abs(trace.forces - np.interp(trace.times, t_ref, f_ref)).max() \
        <= 1e-3 * trace.peak_force


def test_exact_critical_damping():
    # sigma^2 == k/M exactly, so d = 0: x(t) = v t e^(-sigma t)
    v, sigma = 0.6, 100.0
    trace = simulate_impact(ImpactScenario(1.0, v, 1e4, 2.0 * sigma))
    t = trace.times
    expected = v * np.exp(-sigma * t) * (1e4 * t + 2.0 * sigma * (1.0 - sigma * t))
    assert np.allclose(trace.forces, np.maximum(expected, 0.0),
                       rtol=1e-12, atol=1e-12 * trace.peak_force)
    assert trace.peak_time == 0.0
    assert trace.peak_force == 2.0 * sigma * v


@pytest.mark.parametrize("m", np.geomspace(0.1, 50.0, 7))
@pytest.mark.parametrize("v, k", [(1.0, 1e4), (0.35, 2.5e3), (2.0, 1e6)])
def test_undamped_peak_is_exact(m, v, k):
    peak = simulate_impact(ImpactScenario(m, v, k)).peak_force
    assert abs(peak / (v * math.sqrt(k * m)) - 1.0) <= 1e-12


@pytest.mark.parametrize("scenario, where", [
    (ImpactScenario(1.0, 1.0, 1.0, 3.0), "start"),      # overdamped
    (ImpactScenario(1.0, 1.0, 1.0), "grid"),            # pi/2 = t_end / 2
    (ImpactScenario(1.0, 1.0, 1.0, 0.5), "between"),
])
def test_time_grid_is_the_union_with_the_peak(scenario, where):
    trace = simulate_impact(scenario)
    t_end, t_peak = trace.times[-1], trace.peak_time
    even = np.linspace(0.0, t_end, 2001)
    assert {"start": t_peak == 0.0, "grid": t_peak == even[1000],
            "between": t_peak not in even.tolist()}[where]
    assert np.array_equal(trace.times, np.union1d(even, t_peak))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["effective_mass", "approach_speed",
                                   "contact_stiffness", "contact_damping"])
def test_scenario_rejects_non_finite_inputs(field, value):
    kwargs = dict(effective_mass=1.0, approach_speed=1.0,
                  contact_stiffness=1e4, contact_damping=20.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        ImpactScenario(**kwargs)


def test_the_window_is_derived_from_mass_and_stiffness():
    s = ImpactScenario(1.0, 1.0, 1e4)
    assert s.duration == 1.25 * math.pi * math.sqrt(1.0 / 1e4)
    with pytest.raises(TypeError):
        ImpactScenario(1.0, 1.0, 1e4, duration=1.0)


@pytest.mark.parametrize("mass, stiffness", [(1e300, 1e-300),   # overflows
                                             (1e-300, 1e300)])  # underflows
def test_a_window_out_of_the_float_range_is_refused(mass, stiffness):
    word = "soft" if stiffness < mass else "stiff"
    with pytest.raises(StiffnessOutOfRange, match=f"^.* N/m is too {word} "
                       "for an effective mass of .* kg"):
        ImpactScenario(mass, 1.0, stiffness)


@pytest.mark.parametrize("mass, stiffness", [(1.0, 6e307), (1.0, 1e308),
                                             (2.0, 1.5e308)])
def test_a_stiffness_the_model_cannot_triple_is_refused(mass, stiffness):
    # 3 k / M overflowed, so the peak instant was 0 * inf = NaN and the
    # trace ended in an IndexError
    with pytest.raises(StiffnessOutOfRange, match="^.* N/m is too stiff "
                       "for an effective mass of .* kg"):
        simulate_impact(ImpactScenario(mass, 1.0, stiffness))


def test_the_largest_stiffness_the_model_triples_still_simulates():
    # k / M = 5e307 triples to 1.5e308; undamped, the peak is v sqrt(k M)
    trace = simulate_impact(ImpactScenario(1.0, 0.3, 5e307))
    assert np.isclose(trace.peak_force, 0.3 * math.sqrt(5e307), rtol=1e-9)
    assert np.isfinite(trace.forces).all()


@pytest.mark.parametrize("zeta", [0.0, 0.1, 0.2, 0.3, 0.4, 0.499, 0.5])
def test_the_peak_lies_in_the_first_half_of_the_window(zeta):
    # the first zero of dF/dt comes at most (pi / 2) / w_d after
    # touchdown, so the window never cuts the rise short
    for m in np.geomspace(1e-3, 1e3, 7):
        for k in np.geomspace(1e1, 1e8, 8):
            s = ImpactScenario(m, 0.7, k, 2.0 * zeta * math.sqrt(k * m))
            trace = simulate_impact(s)
            assert trace.times[-1] <= s.duration
            assert trace.peak_time <= 0.51 * trace.times[-1]
            assert trace.peak_force > trace.forces[-1]


def test_force_trace_rejects_inconsistent_peak():
    with pytest.raises(ValueError):
        ForceTrace(np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                   peak_force=5.0, peak_time=1.0)


def test_force_trace_rejects_series_of_different_lengths():
    with pytest.raises(ValueError, match="^times and forces must be "
                       "equal-length vectors$"):
        ForceTrace(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0]),
                   peak_force=2.0, peak_time=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["times", "forces", "peak_force",
                                   "peak_time"])
def test_force_trace_rejects_non_finite_values(field, value):
    # a NaN used to pass: abs(f.max() - peak) > tol is false for NaN
    kwargs = dict(times=np.array([0.0, 1.0]), forces=np.array([1.0, 2.0]),
                  peak_force=2.0, peak_time=1.0)
    if field in ("times", "forces"):
        kwargs[field] = np.array([0.0, value])
    else:
        kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ForceTrace(**kwargs)


def test_overflowing_damping_rate_raises():
    # sigma = c / 2M overflows; the trace used to carry a NaN peak, and a
    # finite c / M whose square overflows escaped as a bare OverflowError
    for mass, damping in ((1e-300, 1e10), (1.0, 1e200), (2.0, 3e154)):
        with pytest.raises(DampingOutOfRange, match="^.* N s/m is too large "
                           "for an effective mass of .* kg"):
            ImpactScenario(mass, 1.0, 1e4, damping)


def test_the_largest_damping_the_model_squares_still_simulates():
    # c / M = 1e154 squares to 1e308; overdamped, so the force peaks at
    # touchdown at c v
    trace = simulate_impact(ImpactScenario(1.0, 0.3, 1e4, 1e154))
    assert trace.peak_time == 0.0
    assert np.isclose(trace.peak_force, 0.3e154, rtol=1e-12)
    assert np.isfinite(trace.forces).all()


def test_predict_ordering_follows_effective_mass():
    masses = np.array([[1.0, 0.9, 0.8], [1.0, 2.5, 0.8], [1.0, 1.4, 0.8]])
    ordering = predict_ordering(["light", "heavy", "middle"], masses[:, 1],
                                speed=0.5, stiffness=1e4)
    assert ordering.grasp_ids == ("light", "middle", "heavy")
    peaks = np.array(ordering.peak_forces)
    assert np.all(np.diff(peaks) > 0.0)
    # sqrt(M) ratio carries through to the peaks
    assert np.isclose(peaks[2] / peaks[0], np.sqrt(2.5 / 0.9), rtol=1e-2)


def test_predict_ordering_carries_each_grasps_trace():
    masses = np.array([[2.5, 1.0], [0.9, 1.0]])
    ordering = predict_ordering(["heavy", "light"], masses[:, 0], speed=0.5,
                                stiffness=1e4, damping=20.0)
    assert len(ordering.traces) == 2
    for gid, peak, trace in zip(ordering.grasp_ids, ordering.peak_forces,
                                ordering.traces):
        mass = {"heavy": 2.5, "light": 0.9}[gid]
        alone = simulate_impact(ImpactScenario(mass, 0.5, 1e4, 20.0))
        assert trace.peak_force == peak
        assert np.array_equal(trace.times, alone.times)
        assert np.array_equal(trace.forces, alone.forces)


def test_predict_ordering_ties_break_by_id():
    ordering = predict_ordering(["b", "a"], np.array([1.0, 1.0]),
                                speed=0.5, stiffness=1e4)
    assert ordering.grasp_ids == ("a", "b")


def test_predict_ordering_validates_input():
    with pytest.raises(EmptyInput):
        predict_ordering([], np.empty(0), speed=0.5, stiffness=1e4)
    with pytest.raises(ValueError):
        predict_ordering(["a"], np.array([0.0]), speed=0.5, stiffness=1e4)


@pytest.mark.parametrize("ids, masses", [
    (["a", "b"], np.ones(3)),        # a mass without its grasp
    (["a", "b", "c"], np.ones(2)),   # a grasp without its mass
    (["a", "b"], np.ones((2, 2))),   # the whole table, not one column
], ids=["extra-mass", "missing-mass", "table"])
def test_predict_ordering_refuses_a_misaligned_column(ids, masses):
    # zip would silently drop the grasps past the shorter of the two
    with pytest.raises(LengthMismatch):
        predict_ordering(ids, masses, speed=0.5, stiffness=1e4)
