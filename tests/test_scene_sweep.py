"""The arm's sweep and the grasps' mass table are kept in one entry per
Scene and dt and shared by the commands."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

import graspmass.ranking as ranking
from graspmass import cli, parse_scene, scene_from_dict
from graspmass.cli import demo_scene_path, main
from graspmass.errors import IkDidNotConverge, NotPositiveDefinite

from conftest import count_frame_passes, reference_score

CASES = [("book", None), ("book", 0.01), ("tensor", None)]
CASE_IDS = ["book", "book-dt-0.01", "tensor"]


def rank(scene, dt, out):
    cli.cmd_rank(scene, dt=dt, out_dir=out)


def impact(scene, dt, out):
    cli.cmd_simulate_impact(scene, dt=dt, out_dir=out)


def profile(scene, dt, out):
    cli.cmd_profile(scene, scene.grasps[-1].id, dt=dt, out_dir=out)


COMMANDS = {"rank": rank, "impact": impact, "profile": profile}
ORDERS = list(itertools.permutations(COMMANDS))


def scene_of(name):
    return parse_scene(demo_scene_path(name))


def artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture
def frame_passes(monkeypatch):
    return count_frame_passes(monkeypatch)


@pytest.fixture
def score_calls(monkeypatch):
    calls = []
    score = ranking.score

    def counting(sweep, bodies, grasps):
        calls.append(len(grasps))
        return score(sweep, bodies, grasps)

    monkeypatch.setattr(ranking, "score", counting)
    return calls


@pytest.fixture(scope="module", params=CASES, ids=CASE_IDS)
def case(request, tmp_path_factory):
    """A case with the artifacts of each command on its own fresh scene."""
    name, dt = request.param
    out = tmp_path_factory.mktemp("fresh")
    for run in COMMANDS.values():
        run(scene_of(name), dt, out)
    return name, dt, artifacts(out)


@pytest.mark.parametrize("order", ORDERS, ids="-".join)
def test_commands_after_the_first_make_no_frame_pass(case, order, tmp_path,
                                                     frame_passes):
    name, dt, _ = case
    scene = scene_of(name)
    counts = []
    for command in order:
        before = len(frame_passes)
        COMMANDS[command](scene, dt, tmp_path)
        counts.append(len(frame_passes) - before)
    assert counts[0] > 0
    assert counts[1:] == [0, 0]


@pytest.mark.parametrize("order", ORDERS, ids="-".join)
def test_only_the_first_command_scores(case, order, tmp_path, score_calls):
    name, dt, _ = case
    scene = scene_of(name)
    counts = []
    for command in order:
        before = len(score_calls)
        COMMANDS[command](scene, dt, tmp_path)
        counts.append(score_calls[before:])
    # the first command scores every grasp, even profile of one
    assert counts == [[len(scene.grasps)], [], []]


@pytest.mark.parametrize("name, dt", CASES, ids=CASE_IDS)
def test_kept_profiles_equal_the_per_sample_reference(name, dt):
    scene = scene_of(name)
    sweep, masses = scene.evaluated(scene.dt if dt is None else dt)
    want = reference_score(sweep, scene.bodies, scene.grasps)
    assert np.array_equal(masses, np.stack(want))


def test_failed_scoring_is_not_kept(monkeypatch, tmp_path, frame_passes):
    scene = scene_of("book")
    score, calls = ranking.score, []

    def fails_once(sweep, bodies, grasps):
        calls.append(1)
        if len(calls) == 1:
            raise NotPositiveDefinite("grasp g: not positive definite")
        return score(sweep, bodies, grasps)

    monkeypatch.setattr(ranking, "score", fails_once)
    with pytest.raises(NotPositiveDefinite):
        rank(scene, None, tmp_path)
    assert scene._evaluations == {}  # not even the sweep was kept
    before = len(frame_passes)
    rank(scene, None, tmp_path)
    assert len(frame_passes) > before
    assert len(calls) == 2
    assert scene._evaluations[scene.dt][1].shape == (len(scene.grasps), 20)
    before = len(frame_passes)
    impact(scene, None, tmp_path)
    assert len(calls) == 2  # the retry was kept
    assert len(frame_passes) == before


@pytest.mark.parametrize("order", ORDERS, ids="-".join)
def test_shared_scene_writes_the_bytes_of_fresh_scenes(case, order, tmp_path):
    name, dt, fresh = case
    scene = scene_of(name)
    for command in order:
        COMMANDS[command](scene, dt, tmp_path)
    assert artifacts(tmp_path) == fresh


def test_dt_override_gets_its_own_entry(tmp_path, frame_passes):
    scene = scene_of("book")
    coarse = scene.evaluated(scene.dt)
    before = len(frame_passes)
    fine = scene.evaluated(0.01)
    assert len(frame_passes) > before
    assert fine is not coarse
    assert (len(coarse[0].times), len(fine[0].times)) == (20, 200)
    before = len(frame_passes)
    assert scene.evaluated(scene.dt) is coarse
    assert scene.evaluated(0.01) is fine
    rank(scene, None, tmp_path / "coarse")
    rank(scene, 0.01, tmp_path / "fine")
    assert len(frame_passes) == before
    assert set(scene._evaluations) == {scene.dt, 0.01}


@pytest.mark.parametrize("name, dt", CASES, ids=CASE_IDS)
def test_replaced_scene_starts_with_an_empty_memo(name, dt, frame_passes):
    scene = scene_of(name)
    dt = scene.dt if dt is None else dt
    entry = scene.evaluated(dt)
    longer = dataclasses.replace(scene, t_f=2.0 * scene.t_f)
    assert longer._evaluations == {}
    before = len(frame_passes)
    stretched, _ = longer.evaluated(dt)
    assert len(frame_passes) > before
    assert len(stretched.times) == 2 * len(entry[0].times)
    assert scene._evaluations == {dt: entry}


def unreachable_doc():
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["trajectory"]["end"]["position_m"] = [4.0, 0.0, 0.3]
    return doc


def test_ik_failure_is_not_cached(frame_passes):
    scene = scene_from_dict(unreachable_doc())
    indices = []
    for _ in range(2):
        before = len(frame_passes)
        with pytest.raises(IkDidNotConverge) as exc:
            scene.evaluated(scene.dt)
        assert len(frame_passes) > before
        indices.append(exc.value.sample_index)
        assert scene._evaluations == {}
    assert indices[0] == indices[1] > 0


@pytest.mark.parametrize("argv", [["rank"], ["simulate-impact"],
                                  ["profile", "0"]],
                         ids=["rank", "simulate-impact", "profile"])
def test_cli_exits_two_on_each_ik_failure(argv, tmp_path, capsys):
    bad = tmp_path / "far.scene.json"
    bad.write_text(json.dumps(unreachable_doc()), encoding="utf-8")
    samples = []
    for _ in range(2):
        code = main([argv[0], str(bad)] + argv[1:]
                    + ["--json", "--out-dir", str(tmp_path / "out")])
        assert code == 2
        samples.append(json.loads(capsys.readouterr().out)["error"]["sample"])
    assert samples[0] == samples[1] > 0


@pytest.mark.parametrize("name, dt", CASES, ids=CASE_IDS)
def test_cached_arrays_reject_writes(name, dt):
    scene = scene_of(name)
    sweep, masses = scene.evaluated(scene.dt if dt is None else dt)
    arrays = [sweep.rotation, sweep.times, sweep.lam_rob, sweep.direction,
              sweep.near_singular, masses]
    for a in arrays:
        assert isinstance(a, np.ndarray)
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert sweep.near_singular.dtype == bool
    assert sweep.near_singular.shape == sweep.times.shape
    assert masses.dtype == float
    assert masses.shape == (len(scene.grasps), len(sweep.times))
