import copy
import dataclasses
import json
import warnings

import numpy as np
import pytest

from graspmass import (Pose, parse_scene, pose_compose, rank_grasps, sample,
                       scene_from_dict)
from graspmass.cli import demo_scene_path
from graspmass.errors import ParseError, ValidationError

from conftest import book_scene, tensor_scene


def book_dict():
    with open(demo_scene_path("book"), encoding="utf-8") as fh:
        return json.load(fh)


def tensor_dict():
    with open(demo_scene_path("tensor"), encoding="utf-8") as fh:
        return json.load(fh)


def test_shipped_book_scene_contents():
    scene = book_scene()
    assert scene.name == "book"
    assert scene.chain.dof == 7
    assert len(scene.grasps) == 3
    assert np.isclose(scene.bodies[0].mass, 0.34)
    assert scene.n_samples == 20
    assert scene.collision_sample == 10
    assert scene.stiffness == 1e4
    # grasp points sit on the spine: -0.1, 0, +0.1 in object y
    ys = sorted(pose_compose(b.com_pose, g.grasp_pose).position[1]
                for g, b in zip(scene.grasps, scene.bodies))
    assert np.allclose(ys, [-0.1, 0.0, 0.1], atol=1e-12)


def test_shipped_tensor_scene_contents():
    scene = tensor_scene()
    assert len(scene.grasps) == 20
    assert len(scene.bodies) == 20
    for body in scene.bodies:
        assert np.isclose(body.mass, 0.43, atol=1e-12)
    # same physical grip point on every candidate, only the rings move
    grips = {tuple(np.round(pose_compose(b.com_pose, g.grasp_pose).position, 9))
             for g, b in zip(scene.grasps, scene.bodies)}
    assert len(grips) == 1
    inertias = {tuple(np.round(b.inertia.ravel(), 12)) for b in scene.bodies}
    assert len(inertias) > 1


def test_grasp_ids_unique_and_stable():
    scene = tensor_scene()
    ids = [g.id for g in scene.grasps]
    assert len(set(ids)) == 20
    assert ids == sorted(ids)


def test_negative_mass_names_the_field():
    doc = book_dict()
    doc["object"]["mass_kg"] = -1.0
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert "object" in str(exc.value)
    assert "mass" in str(exc.value)


def test_missing_field_names_the_path():
    doc = book_dict()
    del doc["trajectory"]["t_f_s"]
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert "trajectory" in str(exc.value)


def test_bad_joint_axis_names_the_joint():
    doc = book_dict()
    doc["chain"]["joints"][3]["axis"] = [0.0, 0.0, 0.0]
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert "joints[3]" in str(exc.value)


def test_duplicate_grasp_id_rejected():
    doc = book_dict()
    doc["grasps"][1]["id"] = doc["grasps"][0]["id"]
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert "duplicate" in str(exc.value)


def test_grasp_ids_with_the_same_file_name_rejected():
    # both map to impact_spine_x.csv and profile_spine_x.csv
    doc = book_dict()
    doc["grasps"][1]["id"] = "spine/x"
    doc["grasps"][2]["id"] = "spine x"
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert exc.value.field == "grasps[2].id"
    assert '"spine/x"' in str(exc.value)


def test_ring_override_requires_tensor_object():
    doc = book_dict()
    doc["grasps"][0]["ring_positions_m"] = [0.0, 0.1, 0.1, 0.1, 0.1]
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert "ring" in str(exc.value)


def test_ring_override_out_of_range_names_the_grasp():
    doc = tensor_dict()
    doc["grasps"][4]["ring_positions_m"] = [0.9, 0.1, 0.1, 0.1, 0.1]
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert "grasps[4]" in str(exc.value)


def test_collision_sample_bounds():
    doc = book_dict()
    doc["collision"]["sample"] = 21
    with pytest.raises(ValidationError):
        scene_from_dict(doc)
    doc["collision"]["sample"] = 0
    with pytest.raises(ValidationError):
        scene_from_dict(doc)


@pytest.mark.parametrize("value", [10.7, "abc", True, None, float("nan"),
                                   10**400])
def test_collision_sample_must_be_an_integer(value):
    doc = book_dict()
    doc["collision"]["sample"] = value
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert exc.value.field == "collision.sample"


def test_collision_sample_accepts_integral_float():
    doc = book_dict()
    doc["collision"]["sample"] = 10.0
    assert scene_from_dict(doc).collision_sample == 10


def strict_parse(doc):
    """``scene_from_dict`` with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return scene_from_dict(doc)


# a duration no quintic fits: its fifth power overflows, underflows to
# zero (a singular fit) or is subnormal, or the coefficients overflow
@pytest.mark.parametrize("t_f, dt, sample", [
    (1e70, 1e69, 10), (1e-70, 1e-71, 5), (1e-62, 1e-63, 10),
    (3e-62, 3e-63, 10)],
    ids=["overflow", "underflow", "subnormal", "coefficients"])
def test_a_duration_no_quintic_fits_names_t_f(t_f, dt, sample):
    doc = book_dict()
    doc["trajectory"].update(t_f_s=t_f, dt_s=dt)
    doc["collision"]["sample"] = sample
    with pytest.raises(ValidationError) as exc:
        strict_parse(doc)
    assert exc.value.field == "trajectory.t_f_s"


@pytest.mark.parametrize("t_f", [1e-61, 4.4e61])
def test_extreme_durations_a_quintic_fits_still_parse(t_f):
    doc = book_dict()
    doc["trajectory"].update(t_f_s=t_f, dt_s=t_f / 20)
    scene = strict_parse(doc)
    assert np.allclose(scene.fit().position(t_f), scene.end.position)


# finite numbers too large for the arithmetic they enter: squared in a
# norm or an inertia, or raised to a power
HUGE_FINITE = {
    "handle_length": ("tensor", ("object", "handle_length_m"), "object"),
    "cylinder_length": ("tensor", ("object", "cylinder_length_m"),
                        "object"),
    "dims": ("book", ("object", "dims_m", 1), "object"),
    "axis": ("book", ("chain", "joints", 3, "axis", 2), "chain.joints[3]"),
    "start": ("book", ("trajectory", "start", "position_m", 0),
              "trajectory.start.position_m"),
    "end": ("book", ("trajectory", "end", "position_m", 2),
            "trajectory.end.position_m"),
    "grasp": ("book", ("grasps", 1, "pose_obj", "position_m", 0),
              "grasps[1].pose_obj.position_m"),
    "link-com": ("book", ("chain", "joints", 5, "link", "com_m", 1),
                 "chain.joints[5].link.com_m"),
}


@pytest.mark.parametrize("scene, keys, field", HUGE_FINITE.values(),
                         ids=HUGE_FINITE)
def test_huge_finite_values_name_their_field(scene, keys, field):
    doc = book_dict() if scene == "book" else tensor_dict()
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = 1e200
    with pytest.raises(ValidationError) as exc:
        strict_parse(doc)
    assert exc.value.field == field


@pytest.mark.parametrize("mass", [1e200, 1e250, 1e300, 8e307])
@pytest.mark.parametrize("link", range(7))
@pytest.mark.parametrize("scene", ["book", "tensor"])
def test_a_link_too_heavy_for_the_arms_inertia_names_the_chain(scene, link,
                                                              mass):
    # the mass parses (its double is finite); at these masses only the
    # base link's leaves the arm's inertia computable, and every other
    # link fails as the chain's, not as a bare numpy error
    doc = book_dict() if scene == "book" else tensor_dict()
    doc["chain"]["joints"][link]["link"]["mass_kg"] = mass
    parsed = strict_parse(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if link == 0:
            arm, masses = parsed.evaluated(parsed.dt)
            rank_grasps([g.id for g in parsed.grasps], masses,
                        arm.near_singular)
            return
        with pytest.raises(ValidationError) as exc:
            parsed.evaluated(parsed.dt)
    assert exc.value.field == "chain"


NUMBER_FIELDS = [
    ("book", ("trajectory", "t_f_s")),
    ("book", ("trajectory", "dt_s")),
    ("book", ("collision", "stiffness_n_per_m")),
    ("book", ("collision", "damping_ns_per_m")),
    ("book", ("collision", "time_s")),
    ("book", ("object", "mass_kg")),
    ("book", ("chain", "joints", 2, "link", "mass_kg")),
    ("tensor", ("object", "handle_length_m")),
    ("tensor", ("object", "cylinder_length_m")),
    ("tensor", ("object", "cylinder_mass_kg")),
    ("tensor", ("object", "ring_mass_kg")),
    ("tensor", ("object", "cylinder_radius_m")),
    ("tensor", ("object", "ring_radius_m")),
]
NOT_NUMBERS = [None, [1], "abc", True, float("nan"), float("inf"), 10**400]


def field_path(keys):
    return ".".join(f"[{k}]" if isinstance(k, int) else k
                    for k in keys).replace(".[", "[")


@pytest.mark.parametrize("value", NOT_NUMBERS,
                         ids=["null", "list", "str", "bool", "nan", "inf",
                              "huge_int"])
@pytest.mark.parametrize("scene, keys", NUMBER_FIELDS,
                         ids=[field_path(k) for _, k in NUMBER_FIELDS])
def test_number_fields_reject_non_numbers_with_their_path(scene, keys, value):
    doc = book_dict() if scene == "book" else tensor_dict()
    if keys == ("collision", "time_s"):
        del doc["collision"]["sample"]
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert exc.value.field == field_path(keys)


VECTOR_FIELDS = [
    ("trajectory", "start", "position_m"),
    ("trajectory", "end", "ypr_rad"),
    ("chain", "base_pose", "position_m"),
    ("chain", "tool_transform", "ypr_rad"),
    ("chain", "joints", 1, "origin", "position_m"),
    ("chain", "joints", 4, "origin", "ypr_rad"),
    ("grasps", 0, "pose_obj", "position_m"),
    ("grasps", 2, "pose_obj", "ypr_rad"),
    ("ik_seed_rad",),
    ("chain", "joints", 2, "limits_rad"),
    ("chain", "joints", 3, "axis"),
    ("chain", "joints", 5, "link", "com_m"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "huge_int"])
@pytest.mark.parametrize("keys", VECTOR_FIELDS, ids=field_path)
def test_vector_fields_reject_non_finite_values_with_their_path(keys, value):
    doc = book_dict()
    target = doc
    for key in keys:
        target = target[key]
    target[1] = value
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert exc.value.field == field_path(keys)



def inertia_object_dict():
    """The book scene holding a raw-inertia object, so that
    ``object.inertia_kgm2`` is read."""
    doc = book_dict()
    doc["object"] = {"type": "inertia", "mass_kg": 0.34,
                     "com_pose": {"position_m": [0.0, 0.0, 0.0],
                                  "ypr_rad": [0.0, 0.0, 0.0]},
                     "inertia_kgm2": [[1e-3, 0.0, 0.0], [0.0, 1.5e-3, 0.0],
                                      [0.0, 0.0, 2e-3]]}
    return doc


INERTIA_FIELDS = [
    ("chain", "joints", 0, "link", "inertia_kgm2"),
    ("chain", "joints", 6, "link", "inertia_kgm2"),
    ("object", "inertia_kgm2"),
]
NOT_INERTIAS = {
    "str": "abc",
    "ragged": [[1e-3, 0.0, 0.0], [0.0, 1e-3], [0.0, 0.0, 1e-3]],
    "nan": [[1e-3, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1e-3]],
}


@pytest.mark.parametrize("value", NOT_INERTIAS.values(), ids=NOT_INERTIAS)
@pytest.mark.parametrize("keys", INERTIA_FIELDS, ids=field_path)
def test_inertia_fields_reject_non_matrices_with_their_path(keys, value):
    doc = inertia_object_dict()
    assert scene_from_dict(doc).bodies[0].mass == 0.34
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert exc.value.field == field_path(keys)

def test_collision_time_resolves_to_sample():
    doc = book_dict()
    del doc["collision"]["sample"]
    doc["collision"]["time_s"] = 1.0
    scene = scene_from_dict(doc)
    assert scene.collision_sample == 10


@pytest.mark.parametrize("time_s", [0.0, -1.0, 2.0 + 1e-9, 5.0])
def test_collision_time_must_lie_on_the_path(time_s):
    doc = book_dict()   # t_f = 2 s
    del doc["collision"]["sample"]
    doc["collision"]["time_s"] = time_s
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert str(exc.value) == "collision.time_s: must lie in (0, t_f]"



def test_collision_sample_names_one_instant_on_every_grid():
    scene = book_scene()   # sample 10 of 20 over 2 s: t = 1.0 s
    assert scene.collision_time == 1.0
    assert [scene.collision_sample_at(dt) for dt in (0.1, 0.05, 0.02, 2.0)] \
        == [10, 20, 50, 1]


@pytest.mark.parametrize("dt", [None, 0.05, 0.01])
@pytest.mark.parametrize("make", [book_scene, tensor_scene],
                         ids=["book", "tensor"])
def test_collision_gives_the_sample_its_grid_time_and_speed(make, dt):
    scene = make()
    dt = scene.dt if dt is None else dt
    sweep = scene.evaluated(dt)[0]
    k = scene.collision_sample_at(dt)
    t = sweep.times[k - 1]
    speed = float(np.linalg.norm(scene.fit().velocity(t)))
    got = scene.collision(dt)
    assert [type(x) for x in got] == [int, float, float]
    assert got[0] == k and got[1] == t and got[2] == speed


def test_a_collision_where_the_path_is_at_rest_is_refused():
    with pytest.raises(ValidationError) as exc:
        book_scene().collision(2.0)   # one sample, at t_f
    assert str(exc.value) == ("collision: approach speed is zero at t = 2 s "
                              "(sample 1 of 1 at dt 2)")


def test_a_collision_on_a_path_that_overflows_is_refused():
    # the parser refuses such an end position; a replaced scene skips it
    scene = book_scene()
    far = dataclasses.replace(scene, end=Pose([1e307, 0.0, 0.3],
                                              scene.start.rotation))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError,
                           match="^trajectory samples must be finite$"):
            far.collision(far.dt)


def test_collision_takes_sample_or_time_not_both():
    doc = book_dict()
    doc["collision"]["time_s"] = 1.5
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert exc.value.field == "collision"
    assert "not both" in str(exc.value)


# (scene, the object's key path, a key its reader does not read): the
# first three once took their defaults without a word
MISSPELT_KEYS = [
    ("book", ("collision",), "stifness_n_per_m"),
    ("tensor", ("object",), "ring_radius"),
    ("tensor", ("grasps", 3), "ring_position_m"),
    ("book", ("object",), "ring_positions_m"),   # a tensor key on a cuboid
    ("inertia", ("object",), "dims_m"),   # a cuboid key on a raw inertia
]


@pytest.mark.parametrize("scene, keys, key", MISSPELT_KEYS,
                         ids=[field_path(k + (key,))
                              for _, k, key in MISSPELT_KEYS])
def test_an_unknown_key_is_an_error_naming_it(scene, keys, key):
    doc = {"book": book_dict, "tensor": tensor_dict,
           "inertia": inertia_object_dict}[scene]()
    target = doc
    for part in keys:
        target = target[part]
    target[key] = 0.5
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert str(exc.value) == f"{field_path(keys + (key,))}: unknown field"


def test_an_empty_grasp_id_is_refused():
    # it would name the artifacts impact_.csv and profile_.csv
    doc = book_dict()
    doc["grasps"][1]["id"] = ""
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert str(exc.value) == "grasps[1].id: must not be empty"


@pytest.mark.parametrize("dt", [0.3, 0.7, 2.0])
def test_n_samples_and_the_collision_bound_follow_the_grid(dt):
    doc = book_dict()
    doc["trajectory"]["dt_s"] = dt
    doc["collision"]["sample"] = 1
    scene = scene_from_dict(doc)
    assert scene.n_samples == len(sample(scene.fit(), dt))
    doc["collision"]["sample"] = scene.n_samples
    assert scene_from_dict(doc).collision_sample == scene.n_samples
    doc["collision"]["sample"] = scene.n_samples + 1
    with pytest.raises(ValidationError):
        scene_from_dict(doc)


def test_end_orientation_is_compared_as_a_rotation():
    # yaw + 2 pi is the start orientation; only the angle triple differs
    doc = book_dict()
    start = doc["trajectory"]["start"]["ypr_rad"]
    doc["trajectory"]["end"]["ypr_rad"] = [start[0] + 2.0 * np.pi] + start[1:]
    scene = scene_from_dict(doc)
    assert np.allclose(scene.end.rotation, scene.start.rotation, atol=1e-12)
    doc["trajectory"]["end"]["ypr_rad"] = [start[0], 0.5, 0.3]
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert exc.value.field == "trajectory.end.ypr_rad"


def test_ik_seed_length_checked():
    doc = book_dict()
    doc["ik_seed_rad"] = [0.0, 0.0]
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    assert "ik_seed" in str(exc.value)


def test_schema_version_checked():
    doc = book_dict()
    doc["schema_version"] = 99
    with pytest.raises(ValidationError):
        scene_from_dict(doc)


def test_wrong_type_rejected_not_crashed():
    doc = book_dict()
    doc["trajectory"] = "fast"
    with pytest.raises(ValidationError):
        scene_from_dict(doc)
    doc = book_dict()
    doc["object"]["dims_m"] = {"x": 1}
    with pytest.raises(ValidationError):
        scene_from_dict(doc)


def assign(doc, keys, value):
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value


# (key path, value, the whole message): a string or a boolean inside a
# list once read as a number (0.15 m, 1.0 m, 0.0 rad), a version true or
# 1.0 as version 1, and a list where an object belongs as the object's
# missing child; an empty list where an entry is needed and an object
# type no builder reads; messages quote JSON, not Python (null, not None)
WRONG_TYPES = {
    "string-in-dims": (("object", "dims_m"), ["0.15", 0.22, 0.015],
                       'object.dims_m: expected 3 finite numbers, got '
                       '["0.15", 0.22, 0.015]'),
    "bool-in-dims": (("object", "dims_m"), [True, 0.22, 0.015],
                     "object.dims_m: expected 3 finite numbers, got "
                     "[true, 0.22, 0.015]"),
    "bool-in-seed": (("ik_seed_rad", 0), False, None),
    "bool-in-inertia-row": (("chain", "joints", 2, "link", "inertia_kgm2",
                             1, 1), True, None),
    "version-true": (("schema_version",), True,
                     "schema_version: expected the integer 1, got true"),
    "version-float": (("schema_version",), 1.0,
                      "schema_version: expected the integer 1, got 1.0"),
    "list-for-start": (("trajectory", "start"), [],
                       "trajectory.start: expected an object, got []"),
    "list-for-link": (("chain", "joints", 0, "link"), [1],
                      "chain.joints[0].link: expected an object, got [1]"),
    "list-for-grasp": (("grasps", 1), [], "grasps[1]: expected an object, "
                       "got []"),
    "list-for-object": (("object",), [], "object: expected an object, "
                        "got []"),
    "null-number": (("trajectory", "t_f_s"), None,
                    "trajectory.t_f_s: expected a finite number, got null"),
    "true-number": (("collision", "stiffness_n_per_m"), True,
                    "collision.stiffness_n_per_m: expected a finite number, "
                    "got true"),
    "null-id": (("grasps", 0, "id"), None,
                "grasps[0].id: expected a string, got null"),
    "object-for-joints": (("chain", "joints"), {},
                          "chain.joints: expected a list, got {}"),
    "no-joints": (("chain", "joints"), [],
                  "chain.joints: chain needs at least one joint"),
    "no-grasps": (("grasps",), [], "grasps: at least one grasp required"),
    "unknown-object-type": (("object", "type"), "sphere",
                            'object.type: unknown object type "sphere"'),
}


@pytest.mark.parametrize("keys, value, message", WRONG_TYPES.values(),
                         ids=WRONG_TYPES)
def test_a_wrong_type_is_refused_at_its_path_in_json_terms(keys, value,
                                                            message):
    doc = book_dict()
    assign(doc, keys, value)
    with pytest.raises(ValidationError) as exc:
        scene_from_dict(doc)
    if message is None:   # an element: the list it sits in is named
        while isinstance(keys[-1], int):
            keys = keys[:-1]
        assert exc.value.field == field_path(keys)
    else:
        assert str(exc.value) == message


def test_parse_errors_for_unreadable_files(tmp_path):
    with pytest.raises(ParseError):
        parse_scene(tmp_path / "missing.scene.json")
    bad = tmp_path / "bad.scene.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_scene(bad)


def test_a_document_that_is_not_an_object_is_a_parse_error(tmp_path):
    path = tmp_path / "list.scene.json"
    path.write_text("[]", encoding="utf-8")
    for parse, arg in ((parse_scene, path), (scene_from_dict, [])):
        with pytest.raises(ParseError,
                           match="^scene document must be a JSON object$"):
            parse(arg)


def test_an_integer_json_cannot_read_is_a_parse_error(tmp_path):
    # Python's json refuses an integer of over 4300 digits with a bare
    # ValueError; the file is one the parser cannot read
    bad = tmp_path / "long.scene.json"
    bad.write_bytes(demo_scene_path("book").read_bytes().replace(
        b'"mass_kg": 0.34', b'"mass_kg": ' + b"1" * 5000))
    with pytest.raises(ParseError):
        parse_scene(bad)


def test_digest_tracks_file_bytes(tmp_path):
    doc = book_dict()
    a = tmp_path / "a.scene.json"
    b = tmp_path / "b.scene.json"
    a.write_text(json.dumps(doc), encoding="utf-8")
    doc2 = copy.deepcopy(doc)
    doc2["collision"]["sample"] = 9
    b.write_text(json.dumps(doc2), encoding="utf-8")
    assert parse_scene(a).digest != parse_scene(b).digest
