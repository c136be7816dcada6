"""Scene fuzz: each bundled scene with one key deleted, at every depth,
with one number set to NaN, inf, -1, 0 or 1e200, and with a value of the
wrong type in place of one number ("1", null, [1.0], true, false), of
one list of numbers (1.0, null, "1", {}), of one object other than the
root ([]) or of one string (null, 7, true, [], {}), and with an unknown
key added to one object.

A deleted key or a set number may parse, or fail with a ParseError, or
fail with a ValidationError whose field is the mutated key's path or one
of its ancestors, without a warning. A wrong type must fail with a
ValidationError naming its path or an ancestor (a misread value is no
parse), and a string or unknown-key mutant must name its own path.
Documents that once escaped as a bare
exception or failed late (a lone surrogate in a name, a grid too fine to
count, values JSON cannot encode) ride along with the field they must
name.
"""

import copy
import json
import math
import numbers
import warnings

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


def is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_number_list(value):
    return (isinstance(value, list) and bool(value)
            and all(is_number(v) for v in value))


def paths_to(node, wanted, keys=()):
    """The key path of every value under ``node`` that ``wanted`` picks;
    the first joint and the first grasp stand for their siblings."""
    if wanted(node):
        yield keys
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from paths_to(value, wanted, keys + (key,))
    elif isinstance(node, list):
        first_only = keys[-1:] in (("joints",), ("grasps",))
        for k, value in enumerate(node[:1] if first_only else node):
            yield from paths_to(value, wanted, keys + (k,))


# checks of one value against another that name the other: the end
# orientation must give the start one, and t_f/dt must count the grid
PARTNERS = {"trajectory.start.ypr_rad": "trajectory.end.ypr_rad",
            "trajectory.t_f_s": "trajectory.dt_s"}


def allowed_outcomes(keys, wrong_type):
    """A mutant at ``keys`` names the path or one of its ancestors; a
    value of the right type may also parse, make no JSON document, or
    name an ancestor's partner."""
    allowed = {field(keys[:n]) for n in range(1, len(keys) + 1)}
    if not wrong_type:
        allowed.update([PARTNERS[f] for f in allowed if f in PARTNERS])
        allowed.update([None, "ParseError"])
    return allowed


def mutant_escapes(doc, mutations, wrong_type=False):
    """(path, value, outcome) of each mutation whose outcome is not
    allowed; a warning counts as an escape."""
    bad = []
    for keys, value in mutations:
        mutant = copy.deepcopy(doc)
        set_in(keys, value)(mutant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(mutant)
        if got not in allowed_outcomes(keys, wrong_type):
            bad.append((field(keys), value, got))
    return bad


def test_setting_any_number_of_the_bundled_scenes_names_its_path():
    bad, count = [], 0
    for name in ("book", "tensor"):
        doc = scene_dict(name)
        mutations = [(keys, value) for keys in paths_to(doc, is_number)
                     for value in (math.nan, math.inf, -1.0, 0.0, 1e200)]
        count += len(mutations)
        bad += [(name,) + b for b in mutant_escapes(doc, mutations)]
    assert count == 760
    assert not bad


def test_a_wrong_type_in_place_of_any_number_or_list_names_its_path():
    bad, count = [], 0
    for name in ("book", "tensor"):
        doc = scene_dict(name)
        mutations = [(keys, value) for keys in paths_to(doc, is_number)
                     for value in ("1", None, [1.0])]
        mutations += [(keys, value) for keys in paths_to(doc, is_number_list)
                      for value in (1.0, None)]
        count += len(mutations)
        bad += [(name,) + b for b in mutant_escapes(doc, mutations, True)]
    assert count == 538
    assert not bad


def test_a_bool_a_text_or_a_container_in_place_of_any_value_names_its_path():
    # a bool once read as 1.0 or 0.0, and a list where an object belongs
    # as the object's missing child
    bad, counts = [], dict.fromkeys(("bool", "list", "object"), 0)
    for name in ("book", "tensor"):
        doc = scene_dict(name)
        groups = {
            "bool": [(keys, value) for keys in paths_to(doc, is_number)
                     for value in (True, False)],
            "list": [(keys, value) for keys in paths_to(doc, is_number_list)
                     for value in ("1", {})],
            "object": [(keys, []) for keys in object_paths(doc) if keys],
        }
        for group, mutations in groups.items():
            counts[group] += len(mutations)
            bad += [(name,) + b
                    for b in mutant_escapes(doc, mutations, True)]
    assert counts == {"bool": 304, "list": 82, "object": 104}
    assert not bad


def test_a_wrong_type_in_place_of_any_text_names_its_path():
    bad, count = [], 0
    for name in ("book", "tensor"):
        doc = scene_dict(name)
        for keys in paths_to(doc, lambda v: isinstance(v, str)):
            for value in (None, 7, True, [], {}):
                count += 1
                mutant = copy.deepcopy(doc)
                set_in(keys, value)(mutant)
                got = outcome(mutant)
                if got != field(keys):
                    bad.append((name, field(keys), value, got))
    assert count == 30   # name, object.type and grasps[0].id per scene
    assert not bad


def object_paths(node, keys=()):
    """The key path of every JSON object under ``node``, itself included."""
    if isinstance(node, dict):
        yield keys
        for key, value in node.items():
            yield from object_paths(value, keys + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from object_paths(value, keys + (k,))


def test_an_unknown_key_in_any_object_of_the_bundled_scenes_names_it():
    bad, count = [], 0
    for name in ("book", "tensor"):
        doc = scene_dict(name)
        for keys in object_paths(doc):
            count += 1
            mutant = copy.deepcopy(doc)
            set_in(keys + ("unknown",), 1.0)(mutant)
            got = outcome(mutant)
            if got != field(keys + ("unknown",)):
                bad.append((name, field(keys), got))
    assert count == 106   # 36 objects in book, 70 in tensor
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
