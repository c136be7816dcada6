import numpy as np
import pytest

from graspmass import Pose, fit_quintic, motion_direction, sample
from graspmass.constants import MAX_SAMPLES, ZERO_SPEED_TOL
from graspmass.trajectory import _grid_size, grid
from graspmass.errors import InvalidStep

from conftest import acceleration, direction_at


def unit_fit():
    start = Pose(np.zeros(3), np.eye(3))
    end = Pose(np.array([1.0, 0.0, 0.0]), np.eye(3))
    return fit_quintic(start, end, 1.0)


def book_fit():
    start = Pose.from_ypr(np.array([1.0, 0.0, 0.03]),
                          np.array([-np.pi / 2, 0.0, 0.0]))
    end = Pose.from_ypr(np.array([1.1, -0.38, 0.16]),
                        np.array([-np.pi / 2, 0.0, 0.0]))
    return fit_quintic(start, end, 2.0)


def test_unit_coefficients():
    traj = unit_fit()
    assert np.allclose(traj.coeffs[:, 0], [0, 0, 0, 10, -15, 6], atol=1e-9)
    assert np.allclose(traj.coeffs[:, 1], 0.0, atol=1e-9)


def test_rest_to_rest_boundary_conditions():
    traj = book_fit()
    assert np.allclose(traj.position(0.0), [1.0, 0.0, 0.03], atol=1e-9)
    assert np.allclose(traj.position(2.0), [1.1, -0.38, 0.16], atol=1e-9)
    for t in (0.0, 2.0):
        assert np.abs(traj.velocity(t)).max() < 1e-9
        assert np.abs(acceleration(traj, t)).max() < 1e-9


def test_midpoint_speed_of_unit_move():
    traj = unit_fit()
    assert np.isclose(traj.velocity(0.5)[0], 1.875, rtol=1e-12)


def test_sampling_count_and_grid():
    traj = book_fit()
    samples = sample(traj, 0.1)
    assert len(samples) == 20
    assert np.isclose(samples[0].t, 0.1)
    assert np.isclose(samples[-1].t, 2.0)
    assert samples[0].sample_index == 1
    assert samples[-1].sample_index == 20
    # snapped grid: uniform spacing even for dt that does not divide t_f
    uneven = sample(traj, 0.3)
    assert len(uneven) == 7
    ts = np.array([s.t for s in uneven])
    assert np.allclose(np.diff(ts), 2.0 / 7.0, atol=1e-12)


def test_single_sample_when_dt_equals_t_f():
    traj = book_fit()
    samples = sample(traj, 2.0)
    assert len(samples) == 1
    assert np.isclose(samples[0].t, 2.0)


def test_orientation_held_constant():
    traj = book_fit()
    for s in sample(traj, 0.25):
        assert np.allclose(s.pose.rotation, traj.start_rotation, atol=1e-12)
        assert np.allclose(s.velocity.angular, 0.0, atol=1e-12)


def test_sample_velocity_matches_finite_difference():
    traj = book_fit()
    h = 1e-6
    for s in sample(traj, 0.33):
        fd = (traj.position(min(s.t + h, traj.t_f))
              - traj.position(max(s.t - h, 0.0)))
        span = min(s.t + h, traj.t_f) - max(s.t - h, 0.0)
        assert np.allclose(s.velocity.linear, fd / span, atol=1e-5)


def test_time_reversal_symmetry():
    start = Pose(np.array([0.2, -0.4, 1.0]), np.eye(3))
    end = Pose(np.array([-0.7, 0.9, 0.1]), np.eye(3))
    fwd = fit_quintic(start, end, 3.0)
    rev = fit_quintic(end, start, 3.0)
    for t in np.linspace(0.0, 3.0, 31):
        assert np.allclose(fwd.position(t), rev.position(3.0 - t), atol=1e-12)


def test_bad_duration_and_step():
    start = Pose(np.zeros(3), np.eye(3))
    end = Pose(np.ones(3), np.eye(3))
    with pytest.raises(ValueError, match=r"^t_f must be positive, got 0\.0$"):
        fit_quintic(start, end, 0.0)
    traj = fit_quintic(start, end, 1.0)
    with pytest.raises(InvalidStep):
        sample(traj, 0.0)
    with pytest.raises(InvalidStep):
        sample(traj, -0.1)
    with pytest.raises(InvalidStep):
        sample(traj, 1.5)


def test_grid_size_is_bounded_and_finite():
    assert _grid_size(2.0, 2.0 / MAX_SAMPLES) == MAX_SAMPLES
    # counted before any grid is built: no list of 2e9 times, no overflow
    for t_f, dt in ((2.0, 2.0 / (MAX_SAMPLES + 1)), (2.0, 1e-9),
                    (2.0, 1e-320), (1e308, 0.1)):
        with pytest.raises(InvalidStep, match=f"over {MAX_SAMPLES} samples"):
            _grid_size(t_f, dt)
    with pytest.raises(InvalidStep):
        sample(unit_fit(), 1e-320)


def test_direction_is_unit_tangent():
    traj = book_fit()
    samples = sample(traj, 0.1)
    mid = samples[9]
    d = direction_at(mid, samples)
    v = mid.velocity.linear
    assert np.allclose(d, v / np.linalg.norm(v), atol=1e-12)


def test_direction_fallback_at_rest_endpoint():
    traj = book_fit()
    samples = sample(traj, 0.1)
    last = samples[-1]
    assert np.linalg.norm(last.velocity.linear) < 1e-8
    d = direction_at(last, samples)
    v_prev = samples[-2].velocity.linear
    assert np.allclose(d, v_prev / np.linalg.norm(v_prev), atol=1e-12)


def test_direction_degenerate_for_null_move():
    pose = Pose(np.array([0.5, 0.5, 0.5]), np.eye(3))
    traj = fit_quintic(pose, pose, 1.0)
    samples = sample(traj, 0.25)
    with pytest.raises(ValueError, match="^all samples are at rest$"):
        direction_at(samples[1], samples)


def random_fit(rng):
    from conftest import random_rotation
    start = Pose(rng.uniform(-1.0, 1.0, 3), random_rotation(rng))
    end = Pose(rng.uniform(-1.0, 1.0, 3), random_rotation(rng))
    return fit_quintic(start, end, float(rng.uniform(0.5, 4.0)))


@pytest.mark.parametrize("steps", ["divides", "does_not_divide", "t_f"])
def test_grid_arrays_equal_the_samples(steps):
    rng = np.random.default_rng(31)
    for _ in range(8):
        traj = random_fit(rng)
        dt = {"divides": traj.t_f / rng.integers(1, 60),
              "does_not_divide": traj.t_f / (rng.integers(1, 60) + 0.37),
              "t_f": traj.t_f}[steps]
        times, positions = grid(traj, dt)
        samples = sample(traj, dt)
        assert np.array_equal(times, [s.t for s in samples])
        assert np.array_equal(positions, [s.pose.position for s in samples])
        # each row keeps the bits of the per-t evaluation
        assert np.array_equal(positions, [traj.position(t) for t in times])
        assert np.array_equal([s.velocity.linear for s in samples],
                              [traj.velocity(t) for t in times])


def test_grid_rejects_non_finite_samples():
    # checked once per stack, as Pose and Twist checked each sample
    huge = fit_quintic(Pose(np.zeros(3), np.eye(3)),
                       Pose(np.full(3, 1e300), np.eye(3)), 1e-3)
    with pytest.raises(ValueError, match="finite"):
        grid(huge, 1e-4)


@pytest.mark.parametrize("dt, tol", [(0.1, 1e-12), (0.3, 1e-12),
                                     (0.001, 1e-8)])
def test_motion_direction_is_the_direction_at_every_sample(dt, tol):
    # at dt 1 ms a 10 um move leaves 11 samples at rest, at both ends;
    # near rest v/|v| carries the rounding of a small speed
    tiny = fit_quintic(Pose(np.zeros(3), np.eye(3)),
                       Pose(np.array([1e-5, 0.0, 0.0]), np.eye(3)), 1.0)
    rng = np.random.default_rng(32)
    fits = [book_fit(), unit_fit(), tiny] + [random_fit(rng) for _ in range(8)]
    for traj in fits:
        samples = sample(traj, dt)
        d = motion_direction(traj)
        # the rest endpoint at t_f is among the rows
        assert np.linalg.norm(samples[-1].velocity.linear) < ZERO_SPEED_TOL
        for samp in samples:
            assert np.abs(direction_at(samp, samples) - d).max() <= tol


def test_motion_direction_is_the_exact_chord():
    for traj in (book_fit(), unit_fit()):
        chord = traj.position(traj.t_f) - traj.position(0.0)
        assert np.array_equal(motion_direction(traj),
                              chord / np.linalg.norm(chord))
    pose = Pose(np.array([0.5, 0.5, 0.5]), np.eye(3))
    with pytest.raises(ValueError,
                       match="^start and end positions coincide$"):
        motion_direction(fit_quintic(pose, pose, 1.0))
