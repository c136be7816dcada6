import copy
import json

import numpy as np
import pytest

from graspmass import (parse_scene, pose_compose, sample, scene_from_dict,
                       write_scene)
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
    assert np.isclose(scene.object.mass, 0.34)
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
    assert "'spine/x'" in str(exc.value)


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
    assert scene_from_dict(doc).object.mass == 0.34
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


def test_parse_errors_for_unreadable_files(tmp_path):
    with pytest.raises(ParseError):
        parse_scene(tmp_path / "missing.scene.json")
    bad = tmp_path / "bad.scene.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_scene(bad)


def test_write_parse_round_trip(tmp_path):
    scene = book_scene()
    out = tmp_path / "copy.scene.json"
    write_scene(scene, out)
    again = parse_scene(out)
    assert again.spec == scene.spec
    assert again.name == scene.name
    assert np.allclose(again.ik_seed.q, scene.ik_seed.q)
    # identical bytes give the identical digest
    write_scene(again, tmp_path / "copy2.scene.json")
    assert (tmp_path / "copy2.scene.json").read_bytes() == out.read_bytes()


def test_digest_tracks_file_bytes(tmp_path):
    doc = book_dict()
    a = tmp_path / "a.scene.json"
    b = tmp_path / "b.scene.json"
    a.write_text(json.dumps(doc), encoding="utf-8")
    doc2 = copy.deepcopy(doc)
    doc2["collision"]["sample"] = 9
    b.write_text(json.dumps(doc2), encoding="utf-8")
    assert parse_scene(a).digest != parse_scene(b).digest
