import numpy as np
import pytest

from graspmass import (
    Pose,
    pose_compose,
    pose_inverse,
    rotation_axis_angle,
    rotation_log,
    rotation_ypr,
    skew,
    velocity_transform,
)
from graspmass.spatial import rotation_x, rotation_y, rotation_z

from conftest import euler_rate_map, random_rotation


def test_skew_matches_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.normal(size=(2, 3))
        assert np.allclose(skew(a) @ b, np.cross(a, b))
        assert np.allclose(skew(a).T, -skew(a))


def test_elementary_rotations_are_orthonormal():
    for rot in (rotation_x, rotation_y, rotation_z):
        r = rot(0.7)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(r), 1.0)


def test_ypr_is_z_then_y_then_x():
    yaw, pitch, roll = 0.3, -0.4, 1.1
    expected = rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll)
    assert np.allclose(rotation_ypr(yaw, pitch, roll), expected, atol=1e-12)


def test_axis_angle_log_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-3.0, 3.0)
        r = rotation_axis_angle(axis, angle)
        assert np.allclose(rotation_log(r), axis * angle, atol=1e-9)


def test_pose_compose_inverse_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = Pose(rng.normal(size=3), random_rotation(rng))
        b = Pose(rng.normal(size=3), random_rotation(rng))
        ab = pose_compose(a, b)
        back = pose_compose(pose_inverse(a), ab)
        assert np.allclose(back.position, b.position, atol=1e-12)
        assert np.allclose(back.rotation, b.rotation, atol=1e-12)
        ident = pose_compose(a, pose_inverse(a))
        assert np.allclose(ident.position, 0.0, atol=1e-12)
        assert np.allclose(ident.rotation, np.eye(3), atol=1e-12)


def test_velocity_transform_moves_reference_point():
    # rigid body: v(B) = v(A) + omega x (p_B - p_A); r points B -> A
    rng = np.random.default_rng(40)
    for _ in range(20):
        p_a, p_b, v_a, omega = rng.normal(size=(4, 3))
        r = p_a - p_b
        out = velocity_transform(r) @ np.concatenate([v_a, omega])
        assert np.allclose(out[:3], v_a + np.cross(omega, p_b - p_a), atol=1e-12)
        assert np.allclose(out[3:], omega, atol=1e-12)


def test_euler_rate_map_finite_difference():
    # lower-right block maps euler rates to world angular velocity
    rng = np.random.default_rng(4)
    h = 1e-7
    for _ in range(20):
        ypr = np.array([rng.uniform(-np.pi, np.pi), rng.uniform(-1.2, 1.2),
                        rng.uniform(-np.pi, np.pi)])
        e = euler_rate_map(ypr)
        assert e.shape == (6, 6)
        assert np.allclose(e[:3, :3], np.eye(3))
        assert np.allclose(e[:3, 3:], 0.0)
        assert np.allclose(e[3:, :3], 0.0)
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            hi = rotation_ypr(*(ypr + d))
            lo = rotation_ypr(*(ypr - d))
            omega = rotation_log(hi @ lo.T) / (2.0 * h)
            assert np.allclose(e[3:, 3 + k], omega, atol=1e-5)


def test_pose_from_ypr_matches_rotation():
    pose = Pose.from_ypr(np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.3, 0.9]))
    assert np.allclose(pose.rotation, rotation_ypr(0.5, -0.3, 0.9), atol=1e-12)
    assert np.allclose(pose.position, [1.0, 2.0, 3.0])


def test_pose_rejects_bad_rotation():
    with pytest.raises(ValueError):
        Pose(np.zeros(3), np.eye(3) * 1.01)
