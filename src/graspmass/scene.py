"""Scene-file ingestion and persistence.

A scene is one JSON document holding the chain, the object (a builder
spec: cuboid, tensor rig, or raw inertia), grasp candidates, the
trajectory endpoints (the end orientation must equal the start one,
which the trajectory holds, and the end position must differ from the
start one), the collision setup, and the IK seed. The collision is one
instant, given as a time or as a sample of the scene's own grid; every
grid collides at its sample nearest it (``Scene.collision_sample_at``).
Units are explicit in field names (mass_kg, length_m, ypr_rad). Grasp
poses are given in the object frame; the parser re-expresses them
relative to the object's CoM frame. A grasp entry may override the
tensor rig's ring positions, which rebuilds the object for that grasp
(same physical grip, different mass distribution).

A ``Scene`` keeps one evaluation entry per sampling step: the arm's
sweep (``ranking._sweep``, the part of an evaluation that no grasp
changes) and the profiles of all its grasps scored on it
(``ranking._score``), built together and kept only when both succeed.
So every command run on one ``Scene`` computes each at most once per
``dt``.

Grasp ids name artifact files (``file_stem``); two ids with the same
stem are rejected at parse, so one grasp's file cannot overwrite
another's.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ranking
from .bodies import (GraspCandidate, RigidBodyInertia, TensorObjectConfig,
                     build_cuboid, build_tensor_object)
from .chain import ChainModel, JointSpec, JointState, LinkInertia
from .constants import ORTHONORMAL_TOL
from .errors import GraspmassError, ParseError, ValidationError
from .spatial import Pose, pose_compose, pose_inverse
from .trajectory import (QuinticTrajectory, _grid_size, fit_quintic,
                         motion_direction)

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class Scene:
    """Validated scene plus the document it came from, kept as JSON text
    (``spec_json``); ``spec`` parses a fresh dict from it on every read,
    so no caller can change what ``write_scene`` writes."""

    name: str
    chain: ChainModel
    object: RigidBodyInertia
    grasps: tuple[GraspCandidate, ...]
    bodies: tuple[RigidBodyInertia, ...]  # per grasp, aligned with grasps
    start: Pose
    end: Pose
    t_f: float
    dt: float
    collision_time: float  # the collision instant, s; every grid keeps it
    stiffness: float
    damping: float
    ik_seed: JointState
    spec_json: str
    digest: str
    # dt -> (the arm's sweep, the profiles of all grasps); a copy made by
    # dataclasses.replace starts empty
    _evaluations: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    @property
    def spec(self) -> dict:
        """A fresh copy of the scene document."""
        return json.loads(self.spec_json)

    def fit(self) -> QuinticTrajectory:
        return fit_quintic(self.start, self.end, self.t_f)

    def evaluated(self, dt: float) -> tuple[
            ranking._Sweep, tuple[ranking.EffectiveMassProfile, ...]]:
        """The arm's sweep along the fitted trajectory at ``dt`` and the
        profile of every grasp on it, in scene order: computed on the
        first call per ``dt`` and shared by every later one. Nothing is
        kept unless both the sweep and the scoring succeed."""
        entry = self._evaluations.get(dt)
        if entry is None:
            sweep = ranking._sweep(self.chain, self.fit(), dt, self.ik_seed)
            profiles = ranking._score(sweep, self.bodies, self.grasps)
            entry = self._evaluations[dt] = (sweep, tuple(profiles))
        return entry

    def collision_sample_at(self, dt: float) -> int:
        """Sample nearest the collision instant on the grid at ``dt``."""
        n = _grid_size(self.t_f, dt)
        return max(1, round(self.collision_time / (self.t_f / n)))

    @property
    def collision_sample(self) -> int:  # on the scene's own grid
        return self.collision_sample_at(self.dt)

    @property
    def n_samples(self) -> int:
        return _grid_size(self.t_f, self.dt)


def file_stem(grasp_id: str) -> str:
    """The grasp id as it appears in artifact file names."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in grasp_id)


def _text(value, where) -> str:
    """``value`` as text; JSON admits a lone surrogate ("\\ud800"), which
    UTF-8 cannot encode, so no artifact could be written with it."""
    text = str(value)
    if any("\ud800" <= c <= "\udfff" for c in text):
        raise ValidationError(where, f"{text!r} is not valid UTF-8 text")
    return text


def _get(d, key, path, kind=None):
    if not isinstance(d, dict) or key not in d:
        raise ValidationError(f"{path}.{key}" if path else key, "missing field")
    value = d[key]
    if kind is not None and not isinstance(value, kind):
        raise ValidationError(f"{path}.{key}" if path else key,
                              f"expected {getattr(kind, '__name__', kind)}")
    return value


def _number(d, key, path, default=None):
    """A real, finite, non-bool number; ``default`` when the key is absent."""
    if default is not None and key not in d:
        return default
    value = _get(d, key, path)
    # bool is an int subclass; strings, null and lists are not numbers
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValidationError(f"{path}.{key}" if path else key,
                          f"expected a finite number, got {value!r}")


def _vector(d, key, path, shape):
    """An array of ``shape`` of finite numbers, as ``_number`` requires of
    a scalar."""
    where = f"{path}.{key}" if path else key
    expected = f"expected {'x'.join(map(str, shape))} numbers"
    try:
        v = np.asarray(_get(d, key, path), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(where, expected) from exc
    if v.shape != shape:
        raise ValidationError(where, expected)
    if not np.isfinite(v).all():
        raise ValidationError(where, f"expected finite numbers, got "
                              f"{v.tolist()}")
    return v


def _pose(d, key, path) -> Pose:
    sub = _get(d, key, path)
    sub_path = f"{path}.{key}" if path else key
    pos = _vector(sub, "position_m", sub_path, (3,))
    ypr = _vector(sub, "ypr_rad", sub_path, (3,))
    return Pose.from_ypr(pos, ypr)


def _wrap(path, fn, *args):
    """Run a constructor, converting library errors to field-level ones."""
    try:
        return fn(*args)
    except ValidationError:
        raise
    except (GraspmassError, ValueError, TypeError) as exc:
        raise ValidationError(path, str(exc)) from exc


def _parse_chain(d, path="chain") -> ChainModel:
    base = _pose(d, "base_pose", path)
    tool = _pose(d, "tool_transform", path)
    joints = []
    entries = _get(d, "joints", path, list)
    if not entries:
        raise ValidationError(f"{path}.joints", "chain needs at least one joint")
    for k, entry in enumerate(entries):
        jp = f"{path}.joints[{k}]"
        origin = _pose(entry, "origin", jp)
        axis = _vector(entry, "axis", jp, (3,))
        limits = _vector(entry, "limits_rad", jp, (2,))
        spec = _wrap(jp, JointSpec, origin, axis, (limits[0], limits[1]))
        link_d = _get(entry, "link", jp)
        link = _wrap(f"{jp}.link", LinkInertia,
                     _number(link_d, "mass_kg", f"{jp}.link"),
                     _vector(link_d, "com_m", f"{jp}.link", (3,)),
                     _vector(link_d, "inertia_kgm2", f"{jp}.link", (3, 3)))
        joints.append((spec, link))
    return _wrap(path, ChainModel, tuple(joints), base, tool)


def _build_object(d, path="object") -> RigidBodyInertia:
    kind = _get(d, "type", path, str)
    if kind == "cuboid":
        return _wrap(path, build_cuboid, _number(d, "mass_kg", path),
                     _vector(d, "dims_m", path, (3,)))
    if kind == "tensor":
        cfg = _tensor_config(d, path)
        return _wrap(path, build_tensor_object, cfg)
    if kind == "inertia":
        com_pose = _pose(d, "com_pose", path)
        return _wrap(path, RigidBodyInertia, _number(d, "mass_kg", path),
                     com_pose, _vector(d, "inertia_kgm2", path, (3, 3)))
    raise ValidationError(f"{path}.type", f"unknown object type {kind!r}")


def _tensor_config(d, path, ring_positions=None) -> TensorObjectConfig:
    if ring_positions is None:
        ring_positions = _vector(d, "ring_positions_m", path, (5,))
    return _wrap(path, lambda: TensorObjectConfig(
        handle_length=_number(d, "handle_length_m", path),
        cylinder_length=_number(d, "cylinder_length_m", path),
        cylinder_mass=_number(d, "cylinder_mass_kg", path),
        ring_mass=_number(d, "ring_mass_kg", path),
        ring_positions=ring_positions,
        cylinder_radius=_number(d, "cylinder_radius_m", path,
                                TensorObjectConfig.cylinder_radius),
        ring_radius=_number(d, "ring_radius_m", path,
                            TensorObjectConfig.ring_radius)))


def _parse_grasps(d, obj_spec, base_object, path="grasps"):
    entries = _get(d, "grasps", "", list)
    if not entries:
        raise ValidationError(path, "at least one grasp required")
    grasps, bodies, stems = [], [], {}  # file stem -> grasp id
    for k, entry in enumerate(entries):
        gp = f"{path}[{k}]"
        gid = _text(_get(entry, "id", gp), f"{gp}.id")
        stem = file_stem(gid)
        if stem in stems:
            other = stems[stem]
            raise ValidationError(f"{gp}.id", (
                f"duplicate grasp id {gid!r}" if other == gid else
                f"grasp id {gid!r} gives the file names of grasp {other!r}"))
        stems[stem] = gid
        body = base_object
        if "ring_positions_m" in entry:
            if obj_spec.get("type") != "tensor":
                raise ValidationError(f"{gp}.ring_positions_m",
                                      "ring override needs a tensor object")
            cfg = _tensor_config(obj_spec, gp,
                                 _vector(entry, "ring_positions_m", gp, (5,)))
            body = _wrap(gp, build_tensor_object, cfg)
        pose_obj = _pose(entry, "pose_obj", gp)
        # grasp pose is stored object-frame; candidates are CoM-relative
        grasp_pose = pose_compose(pose_inverse(body.com_pose), pose_obj)
        grasps.append(_wrap(gp, GraspCandidate, gid, grasp_pose))
        bodies.append(body)
    return tuple(grasps), tuple(bodies)


def scene_from_dict(d: dict, digest: str | None = None) -> Scene:
    """Validate a scene dict into a Scene; field paths on every failure."""
    if not isinstance(d, dict):
        raise ParseError("scene document must be a JSON object")
    try:  # a set, an ndarray or a cycle has no JSON text
        spec_json = json.dumps(d)
        digest = digest or hashlib.sha256(
            json.dumps(d, sort_keys=True).encode()).hexdigest()
    except (TypeError, ValueError) as exc:
        raise ParseError(f"scene document is not JSON: {exc}") from exc
    version = d.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError("schema_version", f"unsupported version {version}")
    name = _text(d.get("name", "scene"), "name")
    chain = _parse_chain(_get(d, "chain", "", dict))
    obj_spec = _get(d, "object", "", dict)
    base_object = _build_object(obj_spec)
    grasps, bodies = _parse_grasps(d, obj_spec, base_object)
    traj = _get(d, "trajectory", "", dict)
    start = _pose(traj, "start", "trajectory")
    end = _pose(traj, "end", "trajectory")
    # the trajectory holds the start orientation; a different end one
    # would be dropped without a word
    if np.abs(end.rotation - start.rotation).max() > ORTHONORMAL_TOL:
        raise ValidationError("trajectory.end.ypr_rad", "must give the "
                              "start orientation, which the trajectory "
                              "holds")
    t_f = _number(traj, "t_f_s", "trajectory")
    dt = _number(traj, "dt_s", "trajectory")
    if not t_f > 0.0:
        raise ValidationError("trajectory.t_f_s", "must be positive")
    n = _wrap("trajectory.dt_s", _grid_size, t_f, dt)
    # a path that does not move has no motion direction; the chord rule
    # of the evaluation rejects it here, before any IK runs
    _wrap("trajectory.end.position_m", motion_direction,
          fit_quintic(start, end, t_f))
    coll = _get(d, "collision", "", dict)
    stiffness = _number(coll, "stiffness_n_per_m", "collision", 1e4)
    damping = _number(coll, "damping_ns_per_m", "collision", 0.0)
    if not stiffness > 0.0:
        raise ValidationError("collision.stiffness_n_per_m", "must be positive")
    if damping < 0.0:
        raise ValidationError("collision.damping_ns_per_m", "must be >= 0")
    if "sample" in coll:
        sample_idx = _number(coll, "sample", "collision")
        # 10.7 must not truncate to 10
        if not sample_idx.is_integer() or not 1 <= sample_idx <= n:
            raise ValidationError("collision.sample", "expected an integer "
                                  f"in 1..{n}, got {sample_idx!r}")
        time_s = t_f * sample_idx / n
    elif "time_s" in coll:
        time_s = _number(coll, "time_s", "collision")
        if not 0.0 < time_s <= t_f:
            raise ValidationError("collision.time_s", "must lie in (0, t_f]")
    else:
        raise ValidationError("collision", "needs 'sample' or 'time_s'")
    seed = _vector(d, "ik_seed_rad", "", (chain.dof,))
    ik_seed = _wrap("ik_seed_rad", JointState, seed)
    return Scene(name=name, chain=chain, object=base_object, grasps=grasps,
                 bodies=bodies, start=start, end=end, t_f=t_f, dt=dt,
                 collision_time=time_s, stiffness=stiffness,
                 damping=damping, ik_seed=ik_seed, spec_json=spec_json,
                 digest=digest)


def parse_scene(path) -> Scene:
    """Load and validate a scene file; the digest hashes the file bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        d = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scene_from_dict(d, digest=hashlib.sha256(raw).hexdigest())


def write_scene(scene: Scene, path) -> None:
    """Persist the declarative form; parse(write(scene)) reproduces it."""
    Path(path).write_text(json.dumps(scene.spec, indent=2) + "\n",
                          encoding="utf-8")
