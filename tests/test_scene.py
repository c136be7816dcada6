import copy
import json

import numpy as np
import pytest

from graspmass import parse_scene, pose_compose, scene_from_dict, write_scene
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


@pytest.mark.parametrize("value", [10.7, "abc", True, None, float("nan")])
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


def test_collision_time_resolves_to_sample():
    doc = book_dict()
    del doc["collision"]["sample"]
    doc["collision"]["time_s"] = 1.0
    scene = scene_from_dict(doc)
    assert scene.collision_sample == 10


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
