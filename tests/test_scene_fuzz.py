"""Scene fuzz: each bundled scene with one key deleted, at every depth.

Every mutant must parse, or fail with a ParseError, or fail with a
ValidationError whose field is the deleted key's path or one of its
ancestors. Documents that once escaped as a bare exception or failed
late (a lone surrogate in a name, a grid too fine to count, values JSON
cannot encode) ride along with the field they must name.
"""

import copy
import json

import numpy as np
import pytest

from graspmass import scene_from_dict
from graspmass.cli import demo_scene_path
from graspmass.errors import ParseError, ValidationError


def scene_dict(name):
    return json.loads(demo_scene_path(name).read_text(encoding="utf-8"))


def field(keys):
    """The parser's name for the value at ``keys``: grasps[0].id."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in keys).lstrip(".")


def key_paths(node, keys=()):
    """The key path of every dict entry under ``node``, parents first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield keys + (key,)
            yield from key_paths(value, keys + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from key_paths(value, keys + (k,))


def without(doc, keys):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    del parent[keys[-1]]
    return doc


def outcome(doc):
    """None when ``doc`` parses, else the error: a ValidationError's
    field, or the type name of any other exception."""
    try:
        scene_from_dict(doc)
    except ValidationError as exc:
        return exc.field
    except Exception as exc:  # the fuzz records any escape
        return type(exc).__name__
    return None


def test_deleting_any_key_of_the_bundled_scenes_names_its_path():
    bad, count = [], 0
    for name in ("book", "tensor"):
        doc = scene_dict(name)
        for keys in key_paths(doc):
            count += 1
            got = outcome(without(doc, keys))
            allowed = {None, "ParseError"}
            allowed.update(field(keys[:n]) for n in range(1, len(keys) + 1))
            if got not in allowed:
                bad.append((name, field(keys), got))
    assert count == 299
    assert not bad


def set_in(keys, value):
    def mutate(doc):
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
    return mutate


# (scene, mutation, the ValidationError field it must name; None when
# the document parses, "ParseError" when it is no JSON document)
EXTRA_INPUTS = {
    "surrogate-name": ("book", set_in(("name",), "\ud800"), "name"),
    "surrogate-id": ("tensor", set_in(("grasps", 3, "id"), "a\udc00"),
                     "grasps[3].id"),
    "t_f-1e308": ("book", set_in(("trajectory", "t_f_s"), 1e308),
                  "trajectory.dt_s"),
    "dt-1e-320": ("book", set_in(("trajectory", "dt_s"), 1e-320),
                  "trajectory.dt_s"),
    "dt-1e-9": ("book", set_in(("trajectory", "dt_s"), 1e-9),
                "trajectory.dt_s"),
    # parses; simulate-impact then names the instant it cannot use
    "collision-at-t_f": ("book", set_in(("collision",), {"time_s": 2.0}),
                         None),
    "ndarray-seed": ("book", lambda doc: doc.update(
        ik_seed_rad=np.array(doc["ik_seed_rad"])), "ParseError"),
    "set-extra-key": ("tensor", set_in(("notes",), {1, 2}), "ParseError"),
}


@pytest.mark.parametrize("name, mutate, want", EXTRA_INPUTS.values(),
                         ids=EXTRA_INPUTS)
def test_extra_inputs_parse_or_name_their_field(name, mutate, want):
    doc = scene_dict(name)
    mutate(doc)
    assert outcome(doc) == want
    if want == "ParseError":
        with pytest.raises(ParseError, match="not JSON"):
            scene_from_dict(doc)
