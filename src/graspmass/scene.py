"""Scene-file ingestion: a JSON document in, the evaluation's model out.

A scene is one JSON document holding the chain, the object (a builder
spec: cuboid, tensor rig, or raw inertia), grasp candidates, the
trajectory endpoints (the end orientation must equal the start one,
which the trajectory holds, and the end position must differ from the
start one), the collision setup, and the IK seed. Each part has one
reader, which refuses a non-object and any key it does not read
(``_object``), so a misspelt key cannot take its default silently.
Numbers are JSON numbers, inside lists too, and messages quote values
as JSON. The collision is one instant, given as a time or as a sample
of the scene's own grid, not both; every grid collides at its sample
nearest it (``Scene.collision_sample_at``), and ``Scene.collision(dt)``
gives that sample, its grid time and the approach speed there, the one
place the speed is read.
Units are explicit in field names (mass_kg, length_m, ypr_rad). Grasp
poses are given in the object frame; the parser re-expresses them
relative to the object's CoM frame. A grasp entry may override the
tensor rig's ring positions, which rebuilds the object for that grasp
(same physical grip, different mass distribution).

A ``Scene`` holds the model, not the document, and keeps one evaluation
entry per sampling step: the arm's sweep (``chain.sweep``, the part
that no grasp changes, times and near-singular flags included) and the
(G, N) effective masses of its grasps on it (``ranking.score``, row g
for ``grasps[g]``), built together and kept only when both succeed.
So every command run on one ``Scene`` computes each at most once per
``dt``, and any other grasp list is ``ranking.score`` on that sweep.

The scene name and grasp ids are JSON strings, an id a non-empty one.
Grasp ids name artifact files (``file_stem``); two ids with the same
stem are rejected at parse, so one grasp's file cannot overwrite
another's.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import chain as arm, ranking   # ``chain`` names the scene's model
from .bodies import (GraspCandidate, RigidBodyInertia, TensorObjectConfig,
                     build_cuboid, build_tensor_object, check_mass)
from .chain import ChainModel, JointSpec, LinkInertia
from .constants import MIN_APPROACH_SPEED, ORTHONORMAL_TOL
from .errors import (GraspmassError, NotPositiveDefinite, ParseError,
                     ValidationError)
from .spatial import Pose, pose_compose, pose_inverse
from .trajectory import (QuinticTrajectory, _grid_size, fit_quintic,
                         motion_direction)

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class Scene:
    """Validated scene: the model the evaluation reads, and the digest
    of the document it came from."""

    name: str
    chain: ChainModel
    grasps: tuple[GraspCandidate, ...]
    bodies: tuple[RigidBodyInertia, ...]  # per grasp, aligned with grasps
    start: Pose
    end: Pose
    t_f: float
    dt: float
    collision_time: float  # the collision instant, s; every grid keeps it
    stiffness: float
    damping: float
    ik_seed: np.ndarray  # (n,), read-only
    digest: str
    # dt -> (the arm's sweep, the (G, N) mass table); a copy made by
    # dataclasses.replace starts empty
    _evaluations: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def fit(self) -> QuinticTrajectory:
        return fit_quintic(self.start, self.end, self.t_f)

    def evaluated(self, dt: float) -> tuple[arm.Sweep, np.ndarray]:
        """The arm's sweep along the fitted trajectory at ``dt`` and the
        (G, N) effective masses of the grasps on it, row g for
        ``grasps[g]``: computed on the first call per ``dt`` and shared by
        every later one. Nothing is kept unless both the sweep and the
        scoring succeed. A sweep whose inertia overflows, is singular or
        is not positive definite fails as a ``ValidationError`` at
        ``chain``."""
        entry = self._evaluations.get(dt)
        if entry is None:
            traj = self.fit()
            try:
                sweep = arm.sweep(self.chain, traj, dt, self.ik_seed)
            except (np.linalg.LinAlgError, NotPositiveDefinite,
                    FloatingPointError) as exc:
                # only the sweep's inertia step raises these (the IK solves
                # a damped, positive definite system), and it reads nothing
                # but the chain
                raise ValidationError("chain", "the arm's task-space "
                                      f"inertia cannot be computed: {exc}"
                                      ) from exc
            masses = ranking.score(sweep, self.bodies, self.grasps)
            entry = self._evaluations[dt] = (sweep, masses)
        return entry

    def collision_sample_at(self, dt: float) -> int:
        """Sample nearest the collision instant on the grid at ``dt``."""
        n = _grid_size(self.t_f, dt)
        return max(1, round(self.collision_time / (self.t_f / n)))

    def collision(self, dt: float) -> tuple[int, float, float]:
        """The collision on the grid at ``dt``: its sample k, that
        sample's time t_f k / N (``Sweep.times[k - 1]``) and the approach
        speed |velocity| there, which must not be zero."""
        k = self.collision_sample_at(dt)
        n = _grid_size(self.t_f, dt)
        t = self.t_f * k / n
        velocity = self.fit().velocity(t)
        if not np.isfinite(velocity).all():
            raise ValueError("trajectory samples must be finite")
        speed = float(np.linalg.norm(velocity))
        if speed <= MIN_APPROACH_SPEED:
            raise ValidationError("collision", (
                f"approach speed is zero at t = {t:g} s "
                f"(sample {k} of {n} at dt {dt:g})"))
        return k, t, speed

    @property
    def collision_sample(self) -> int:  # on the scene's own grid
        return self.collision_sample_at(self.dt)

    @property
    def n_samples(self) -> int:
        return _grid_size(self.t_f, self.dt)


def file_stem(grasp_id: str) -> str:
    """The grasp id as it appears in artifact file names."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in grasp_id)


def _at(path, key):
    return f"{path}.{key}" if path else key


def _text(value, where) -> str:
    """``value``, which must be a JSON string; JSON admits a lone
    surrogate ("\\ud800"), which UTF-8 cannot encode, so no artifact
    could be written with it."""
    if not isinstance(value, str):
        raise ValidationError(where, "expected a string, got "
                              + json.dumps(value))
    if any("\ud800" <= c <= "\udfff" for c in value):
        raise ValidationError(where, json.dumps(value)
                              + " is not valid UTF-8 text")
    return value


def _object(value, where, *keys) -> dict:
    """``value``, which must be a JSON object and, when ``keys`` are
    given, hold no other key: a misspelt optional key would otherwise
    take its default without a word."""
    if not isinstance(value, dict):
        raise ValidationError(where, "expected an object, got "
                              + json.dumps(value))
    for key in value if keys else ():
        if key not in keys:
            raise ValidationError(_at(where, key), "unknown field")
    return value


def _get(d, key, path):
    if key not in d:
        raise ValidationError(_at(path, key), "missing field")
    return d[key]


def _list(d, key, path, empty) -> list:
    """The JSON list at ``key``; ``empty`` says why it needs an entry."""
    value = _get(d, key, path)
    if not isinstance(value, list):
        raise ValidationError(_at(path, key), "expected a list, got "
                              + json.dumps(value))
    if not value:
        raise ValidationError(_at(path, key), empty)
    return value


def _real(value) -> float:
    """A JSON number (not a bool) as a float, an integer beyond float
    range as inf, anything else as NaN: only a finite number is finite."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf
    return math.nan


def _number(d, key, path, default=None):
    """A real, finite, non-bool number; ``default`` when the key is absent."""
    if default is not None and key not in d:
        return default
    value = _get(d, key, path)
    number = _real(value)
    if not math.isfinite(number):
        raise ValidationError(_at(path, key), "expected a finite number, "
                              "got " + json.dumps(value))
    return number


def _flatten(node, shape, flat) -> bool:
    """Append the numbers of nested lists ``node`` of ``shape`` to
    ``flat``, each as ``_real`` reads it; False unless all fit and are
    finite."""
    if not shape:
        flat.append(_real(node))
        return math.isfinite(flat[-1])
    return (isinstance(node, list) and len(node) == shape[0]
            and all(_flatten(row, shape[1:], flat) for row in node))


def _vector(d, key, path, shape):
    """An array of ``shape`` given as nested JSON lists, each element a
    finite number as ``_number`` requires of a scalar."""
    value = _get(d, key, path)
    flat = []
    if not _flatten(value, shape, flat):
        raise ValidationError(_at(path, key), "expected "
                              f"{'x'.join(map(str, shape))} finite numbers, "
                              "got " + json.dumps(value))
    return np.array(flat).reshape(shape)


def _point(d, key, path):
    """A position, as ``_vector`` reads a 3-vector, whose squared length
    is finite: norms and parallel-axis terms square it."""
    pos = _vector(d, key, path, (3,))
    if not math.isfinite(sum(x * x for x in pos.tolist())):
        raise ValidationError(_at(path, key),
                              "too large: its squared length overflows")
    return pos


def _mass(d, path) -> float:
    """A body's ``mass_kg`` as ``_number`` reads it, refused under its
    own path unless ``bodies.check_mass`` accepts it."""
    mass = _number(d, "mass_kg", path)
    _wrap(_at(path, "mass_kg"), check_mass, mass)
    return mass


def _pose(d, key, path) -> Pose:
    where = _at(path, key)
    sub = _object(_get(d, key, path), where, "position_m", "ypr_rad")
    pos = _point(sub, "position_m", where)
    ypr = _vector(sub, "ypr_rad", where, (3,))
    return Pose.from_ypr(pos, ypr)


def _wrap(path, fn, *args, **kwargs):
    """Run a constructor, converting library errors to field-level ones,
    and so float arithmetic that overflows or turns invalid."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return fn(*args, **kwargs)
    except (GraspmassError, ValueError, TypeError) as exc:
        raise ValidationError(path, str(exc)) from exc
    except ArithmeticError as exc:
        raise ValidationError(path, "values outside the range float "
                              "arithmetic can hold") from exc


def _parse_chain(value, path="chain") -> ChainModel:
    d = _object(value, path, "base_pose", "tool_transform", "joints")
    base = _pose(d, "base_pose", path)
    tool = _pose(d, "tool_transform", path)
    joints = []
    entries = _list(d, "joints", path, "chain needs at least one joint")
    for k, entry in enumerate(entries):
        jp = f"{path}.joints[{k}]"
        entry = _object(entry, jp, "origin", "axis", "limits_rad", "link")
        origin = _pose(entry, "origin", jp)
        axis = _vector(entry, "axis", jp, (3,))
        limits = _vector(entry, "limits_rad", jp, (2,))
        spec = _wrap(jp, JointSpec, origin, axis, (limits[0], limits[1]))
        lp = f"{jp}.link"
        link_d = _object(_get(entry, "link", jp), lp, "mass_kg", "com_m",
                         "inertia_kgm2")
        link = _wrap(lp, LinkInertia, _mass(link_d, lp),
                     _point(link_d, "com_m", lp),
                     _vector(link_d, "inertia_kgm2", lp, (3, 3)))
        joints.append((spec, link))
    return _wrap(path, ChainModel, tuple(joints), base, tool)


def _build_object(value, path="object"):
    """The object's body, and for a tensor rig its config, which ring
    overrides copy (None for any other type)."""
    d = _object(value, path)
    kind = _text(_get(d, "type", path), f"{path}.type")
    if kind == "cuboid":
        _object(d, path, "type", "mass_kg", "dims_m")
        return _wrap(path, build_cuboid, _mass(d, path),
                     _vector(d, "dims_m", path, (3,))), None
    if kind == "tensor":
        _object(d, path, "type", "handle_length_m", "cylinder_length_m",
                "cylinder_mass_kg", "ring_mass_kg", "ring_positions_m",
                "cylinder_radius_m", "ring_radius_m")
        cfg = _wrap(path, TensorObjectConfig,
                    handle_length=_number(d, "handle_length_m", path),
                    cylinder_length=_number(d, "cylinder_length_m", path),
                    cylinder_mass=_number(d, "cylinder_mass_kg", path),
                    ring_mass=_number(d, "ring_mass_kg", path),
                    ring_positions=_vector(d, "ring_positions_m", path, (5,)),
                    cylinder_radius=_number(
                        d, "cylinder_radius_m", path,
                        TensorObjectConfig.cylinder_radius),
                    ring_radius=_number(d, "ring_radius_m", path,
                                        TensorObjectConfig.ring_radius))
        return _wrap(path, build_tensor_object, cfg), cfg
    if kind == "inertia":
        _object(d, path, "type", "mass_kg", "com_pose", "inertia_kgm2")
        com_pose = _pose(d, "com_pose", path)
        return _wrap(path, RigidBodyInertia, _mass(d, path),
                     com_pose, _vector(d, "inertia_kgm2", path, (3, 3))), None
    raise ValidationError(f"{path}.type",
                          "unknown object type " + json.dumps(kind))


def _parse_grasps(d, base_object, tensor, path="grasps"):
    entries = _list(d, "grasps", "", "at least one grasp required")
    grasps, bodies, stems = [], [], {}  # file stem -> grasp id
    for k, entry in enumerate(entries):
        gp = f"{path}[{k}]"
        entry = _object(entry, gp, "id", "pose_obj", "ring_positions_m")
        gid = _text(_get(entry, "id", gp), f"{gp}.id")
        if not gid:
            raise ValidationError(f"{gp}.id", "must not be empty")
        stem = file_stem(gid)
        if stem in stems:
            other = stems[stem]
            raise ValidationError(f"{gp}.id", (
                f"duplicate grasp id {json.dumps(gid)}" if other == gid else
                f"grasp id {json.dumps(gid)} gives the file names of grasp "
                f"{json.dumps(other)}"))
        stems[stem] = gid
        body = base_object
        if "ring_positions_m" in entry:
            if tensor is None:
                raise ValidationError(f"{gp}.ring_positions_m",
                                      "ring override needs a tensor object")
            rings = _vector(entry, "ring_positions_m", gp, (5,))
            cfg = _wrap(gp, replace, tensor, ring_positions=rings)
            body = _wrap(gp, build_tensor_object, cfg)
        pose_obj = _pose(entry, "pose_obj", gp)
        # grasp pose is stored object-frame; candidates are CoM-relative
        grasp_pose = pose_compose(pose_inverse(body.com_pose), pose_obj)
        grasps.append(_wrap(gp, GraspCandidate, gid, grasp_pose))
        bodies.append(body)
    return tuple(grasps), tuple(bodies)


def scene_from_dict(d: dict) -> Scene:
    """Validate a scene dict into a Scene; field paths on every failure.
    The digest hashes the dict's JSON text, keys sorted."""
    digest = None  # ``_scene`` refuses a document that is not an object
    if isinstance(d, dict):
        try:  # a set, an ndarray or a cycle has no JSON text
            text = json.dumps(d, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"scene document is not JSON: {exc}") from exc
        digest = hashlib.sha256(text.encode()).hexdigest()
    return _scene(d, digest)


def _scene(d, digest: str) -> Scene:
    """``scene_from_dict`` without the JSON check, for a document that
    ``json.loads`` made or that passed the check, and its digest."""
    if not isinstance(d, dict):
        raise ParseError("scene document must be a JSON object")
    _object(d, "", "schema_version", "name", "chain", "object", "grasps",
            "trajectory", "collision", "ik_seed_rad")
    version = d.get("schema_version", SCHEMA_VERSION)
    # true == 1 == 1.0 in Python, but only the integer names a version
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError("schema_version", f"expected the integer "
                              f"{SCHEMA_VERSION}, got {json.dumps(version)}")
    name = _text(d.get("name", "scene"), "name")
    chain = _parse_chain(_get(d, "chain", ""))
    base_object, tensor = _build_object(_get(d, "object", ""))
    grasps, bodies = _parse_grasps(d, base_object, tensor)
    traj = _object(_get(d, "trajectory", ""), "trajectory", "start", "end",
                   "t_f_s", "dt_s")
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
    fit = _wrap("trajectory.t_f_s", fit_quintic, start, end, t_f)
    if not np.isfinite(fit.coeffs).all():
        raise ValidationError("trajectory.t_f_s", "too short for the "
                              "distance: the quintic's coefficients overflow")
    # a path that does not move has no motion direction; the chord rule
    # of the evaluation rejects it here, before any IK runs
    _wrap("trajectory.end.position_m", motion_direction, fit)
    coll = _object(_get(d, "collision", ""), "collision", "sample", "time_s",
                   "stiffness_n_per_m", "damping_ns_per_m")
    stiffness = _number(coll, "stiffness_n_per_m", "collision", 1e4)
    damping = _number(coll, "damping_ns_per_m", "collision", 0.0)
    if not stiffness > 0.0:
        raise ValidationError("collision.stiffness_n_per_m", "must be positive")
    if damping < 0.0:
        raise ValidationError("collision.damping_ns_per_m", "must be >= 0")
    if "sample" in coll and "time_s" in coll:
        raise ValidationError("collision", "give 'sample' or 'time_s', "
                              "not both")
    if "sample" in coll:
        sample_idx = _number(coll, "sample", "collision")
        # 10.7 must not truncate to 10
        if not sample_idx.is_integer() or not 1 <= sample_idx <= n:
            raise ValidationError("collision.sample", "expected an integer "
                                  f"in 1..{n}, got "
                                  + json.dumps(coll["sample"]))
        time_s = t_f * sample_idx / n
    elif "time_s" in coll:
        time_s = _number(coll, "time_s", "collision")
        if not 0.0 < time_s <= t_f:
            raise ValidationError("collision.time_s", "must lie in (0, t_f]")
    else:
        raise ValidationError("collision", "needs 'sample' or 'time_s'")
    ik_seed = _vector(d, "ik_seed_rad", "", (chain.dof,))
    ik_seed.setflags(write=False)
    return Scene(name=name, chain=chain, grasps=grasps, bodies=bodies,
                 start=start, end=end, t_f=t_f, dt=dt,
                 collision_time=time_s, stiffness=stiffness,
                 damping=damping, ik_seed=ik_seed, digest=digest)


def parse_scene(path) -> Scene:
    """Load and validate a scene file; the digest hashes the file bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        d = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or a 4301-digit int
        raise ParseError(f"{path}: {exc}") from exc
    return _scene(d, hashlib.sha256(raw).hexdigest())
