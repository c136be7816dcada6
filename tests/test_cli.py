import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from graspmass import cli, parse_scene
from graspmass.cli import demo_scene_path, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def book_path():
    return str(demo_scene_path("book"))


def test_rank_writes_artifacts(tmp_path, capsys):
    code, out, _ = run(capsys, "rank", book_path(), "--out-dir", str(tmp_path))
    assert code == 0
    ranking = json.loads((tmp_path / "ranking.json").read_text())
    assert ranking["schema_version"] == 1
    assert ranking["scene"]["name"] == "book"
    assert len(ranking["ranking"]) == 3
    assert ranking["recommended"] == ranking["ranking"][0]["grasp_id"]
    aggs = [row["aggregate_kg"] for row in ranking["ranking"]]
    assert aggs == sorted(aggs)
    rows = (tmp_path / "mass_map.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    assert rows[0].startswith("grasp_id,")
    assert len(rows[1].split(",")) == 21


def test_rank_json_mode_prints_artifact(tmp_path, capsys):
    code, out, _ = run(capsys, "rank", book_path(), "--json",
                       "--out-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["aggregator"] == "max"
    assert "digest" in payload["scene"]


def test_rank_at_sample_aggregator(tmp_path, capsys):
    code, out, _ = run(capsys, "rank", book_path(), "--json",
                       "--aggregator", "at-sample=10",
                       "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["aggregator"] == "at-sample=10"


def test_profile_by_index_and_id(tmp_path, capsys):
    code, out, _ = run(capsys, "profile", book_path(), "0", "--json",
                       "--out-dir", str(tmp_path))
    assert code == 0
    by_index = json.loads(out)
    code, out, _ = run(capsys, "profile", book_path(),
                       by_index["grasp_id"], "--json",
                       "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["grasp_id"] == by_index["grasp_id"]
    csv = (tmp_path / by_index["csv"]).read_text().strip().splitlines()
    assert csv[0] == "t_s,effective_mass_kg"
    assert len(csv) == 21


def test_profile_with_dt_equal_to_duration(tmp_path, capsys):
    code, out, _ = run(capsys, "profile", book_path(), "0", "--json",
                       "--dt", "2.0", "--out-dir", str(tmp_path))
    assert code == 0
    artifact = json.loads(out)
    assert artifact["n_samples"] == 1
    csv = (tmp_path / artifact["csv"]).read_text().strip().splitlines()
    assert len(csv) == 2


def test_unknown_grasp_is_a_clean_error(tmp_path, capsys):
    code, out, err = run(capsys, "profile", book_path(), "nope", "--json",
                         "--out-dir", str(tmp_path))
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["type"] == "ValidationError"
    assert "nope" in payload["error"]["message"]
    assert err  # human-readable line on stderr as well


def test_oversized_dt_is_a_clean_error(tmp_path, capsys):
    code, out, _ = run(capsys, "rank", book_path(), "--json",
                       "--dt", "3.0", "--out-dir", str(tmp_path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvalidStep"


def test_missing_scene_file_is_a_parse_error(tmp_path, capsys):
    code, out, _ = run(capsys, "rank", str(tmp_path / "gone.json"), "--json",
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_unreachable_scene_exits_two(tmp_path, capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["trajectory"]["end"]["position_m"] = [4.0, 0.0, 0.3]
    bad = tmp_path / "far.scene.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "rank", str(bad), "--json",
                         "--out-dir", str(tmp_path))
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "ik_did_not_converge"
    assert "sample" in payload["error"]
    assert "sample" in payload["error"]["message"]


def test_simulate_impact_artifacts(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate-impact", book_path(), "--json",
                       "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "impact_summary.json").read_text())
    assert summary["collision_sample"] == 10
    assert summary["orderings_agree"] is True
    assert summary["ordering_by_peak"] == summary["ordering_by_effective_mass"]
    assert len(summary["peaks_n"]) == 3
    for gid in summary["peaks_n"]:
        trace = (tmp_path / f"impact_{gid}.csv").read_text().splitlines()
        assert trace[0] == "t_s,force_n"
        assert len(trace) > 10


@pytest.mark.parametrize("dt, k", [("0.05", 20), ("0.02", 50), ("1.0", 1)])
def test_dt_override_keeps_the_collision_instant(dt, k, tmp_path, capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["collision"] = {"time_s": 1.0}
    path = tmp_path / "timed.scene.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    summaries = []
    for extra in ([], ["--dt", dt]):
        code, out, _ = run(capsys, "simulate-impact", str(path), "--json",
                           "--out-dir", str(tmp_path), *extra)
        assert code == 0
        summaries.append(json.loads(out))
    assert [s["collision_sample"] for s in summaries] == [10, k]
    # every grid has a sample at t = 1.0 s, where the path moves fastest
    assert (summaries[1]["approach_speed_mps"]
            == summaries[0]["approach_speed_mps"])


def test_a_failing_command_creates_no_output_directory(tmp_path, capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["collision"]["sample"] = 20   # t_f, where the path is at rest
    at_rest = tmp_path / "at-rest.scene.json"
    at_rest.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["rank", book_path(), "--aggregator", "at-sample=999"],
                 ["simulate-impact", str(at_rest)]):
        out_dir = tmp_path / argv[0]
        code, _, err = run(capsys, *argv, "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith("error: ")
        assert not out_dir.exists()


@pytest.mark.parametrize("command", [
    ["rank", "SCENE"], ["profile", "SCENE", "0"],
    ["simulate-impact", "SCENE"], ["demo", "book"]],
    ids=["rank", "profile", "simulate-impact", "demo"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_an_unwritable_out_dir_is_a_clean_json_error(command, under,
                                                     tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out_dir = blocker / "out" if under else blocker
    argv = [book_path() if a == "SCENE" else a for a in command]
    code, out, err = run(capsys, *argv, "--json", "--out-dir", str(out_dir))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == ("NotADirectoryError" if under
                             else "FileExistsError")
    assert str(out_dir) in error["message"]
    assert err.startswith("error: cannot write ")
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_impact_highlights_cover_min_median_max(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate-impact",
                       str(demo_scene_path("tensor")), "--json",
                       "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads(out)
    peaks = summary["peaks_n"]
    assert len(peaks) == 20
    hi = summary["highlights"]
    assert hi["min"]["peak_n"] == min(peaks.values())
    assert hi["max"]["peak_n"] == max(peaks.values())
    assert hi["min"]["peak_n"] <= hi["median"]["peak_n"] <= hi["max"]["peak_n"]
    assert peaks[hi["min"]["grasp_id"]] == hi["min"]["peak_n"]


def test_demo_book_end_to_end(tmp_path, capsys):
    code, out, _ = run(capsys, "demo", "book", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "ranking.json").exists()
    assert (tmp_path / "mass_map.csv").exists()
    assert (tmp_path / "impact_summary.json").exists()
    profiles = list(tmp_path.glob("profile_*.csv"))
    assert len(profiles) == 1
    assert "recommended" in out


def test_demo_evaluates_once_and_matches_the_commands(tmp_path, capsys,
                                                      monkeypatch):
    import graspmass.ranking as ranking
    sweep = ranking._sweep
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(ranking, "_sweep", counted)
    demo, alone = tmp_path / "demo", tmp_path / "alone"
    code, _, _ = run(capsys, "demo", "book", "--out-dir", str(demo))
    assert code == 0
    assert len(calls) == 1
    path = book_path()
    code, out, _ = run(capsys, "rank", path, "--json", "--out-dir", str(alone))
    recommended = json.loads(out)["recommended"]
    assert run(capsys, "simulate-impact", path, "--out-dir", str(alone))[0] == 0
    assert run(capsys, "profile", path, recommended,
               "--out-dir", str(alone))[0] == 0
    names = sorted(p.name for p in demo.iterdir())
    assert names == sorted(p.name for p in alone.iterdir())
    for name in names:
        assert (demo / name).read_bytes() == (alone / name).read_bytes()


def test_pairs_formats_each_value_like_fmt():
    rng = np.random.default_rng(0)
    xs = np.concatenate([
        rng.normal(size=64) * 10.0 ** rng.integers(-300, 300, 64),
        [0.0, -0.0, 1.0, 1e16, 123456789.5, 5e-324]])
    ys = 3.0 * xs[::-1]
    want = "".join(f"{cli._fmt(x)},{cli._fmt(y)}\n" for x, y in zip(xs, ys))
    assert cli._pairs(b"x,y\n", xs, ys) == b"x,y\n" + want.encode()
    assert cli._pairs(b"x,y\n", xs[:0], ys[:0]) == b"x,y\n"


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        code, _, _ = run(capsys, "rank", book_path(), "--out-dir", str(d))
        assert code == 0
    assert (a / "mass_map.csv").read_bytes() == (b / "mass_map.csv").read_bytes()
    assert (a / "ranking.json").read_bytes() == (b / "ranking.json").read_bytes()


# mass_map.csv sha256 of the bundled scenes, as pinned by the benchmark;
# book at dt = 0.01 s is its book-fine grid (book-fine's collision
# settings do not enter the map). Any drift in the 9-digit output fails.
PINNED_MASS_MAP_SHA256 = [
    ("book", None,
     "e701597505aa9c9efa6deb1e5a77c371871630967b8cd3c9a30ca4ee403a4373"),
    ("tensor", None,
     "41c1dab4e0cb3a50dbb78cefb8d1967b520bd474b95939010c882eb923c0cdc5"),
    ("book", 0.01,
     "beb19bb0b056b204888fc5a75e4d1bbcf286b1f374f860eea0f6c267cbfd18f9"),
]


@pytest.mark.parametrize("name, dt, digest", PINNED_MASS_MAP_SHA256,
                         ids=["book", "tensor", "book-fine"])
def test_mass_map_matches_pinned_digest(name, dt, digest, tmp_path):
    cli.cmd_rank(parse_scene(demo_scene_path(name)), dt=dt, out_dir=tmp_path)
    data = (tmp_path / "mass_map.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def artifacts_digest(out_dir):
    """sha256 over the name, length and bytes of every file in ``out_dir``,
    in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


# every file that `demo` writes, at the scene's dt and at a --dt override:
# the traces, the profile, mass_map.csv and both JSON artifacts
PINNED_DEMO_SHA256 = [
    ("book", None,
     "e11111ee27cdff587747e9c8dd42bf356cabbd715e990400f0f9477c92f33b43"),
    ("book", "0.05",
     "115a7edde6bb64818b95eea38feeba6b2a06338422cd118472a91b1fca8c988a"),
    ("tensor", None,
     "b2eed5b1450eeece751080f71dc82cc27bfddeb87b31d4418478e63b9366f62a"),
    ("tensor", "0.05",
     "5801aaa9959a0df4dcb940eb7ddba781be620a42f2de9752d4ea302dd7414746"),
]


@pytest.mark.parametrize("which, dt, digest", PINNED_DEMO_SHA256,
                         ids=["book", "book-dt0.05", "tensor",
                              "tensor-dt0.05"])
def test_demo_artifacts_match_pinned_digest(which, dt, digest, tmp_path,
                                            capsys):
    extra = [] if dt is None else ["--dt", dt]
    code, _, _ = run(capsys, "demo", which, "--out-dir", str(tmp_path),
                     *extra)
    assert code == 0
    assert artifacts_digest(tmp_path) == digest


def test_fractional_collision_sample_is_a_clean_error(tmp_path, capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["collision"]["sample"] = 10.7
    bad = tmp_path / "frac.scene.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "simulate-impact", str(bad), "--json",
                       "--out-dir", str(tmp_path))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert "collision.sample" in error["message"]
    assert not list(tmp_path.glob("impact_*.csv"))


def test_grasp_ids_sharing_a_file_name_are_a_clean_json_error(tmp_path,
                                                              capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    for grasp, gid in zip(doc["grasps"], ["spine/x", "spine-mid", "spine x"]):
        grasp["id"] = gid
    bad = tmp_path / "clash.scene.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "simulate-impact", str(bad), "--json",
                       "--out-dir", str(out_dir))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith("grasps[2].id: ")
    assert not out_dir.exists()


def test_a_reorienting_trajectory_is_a_clean_json_error(tmp_path, capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["trajectory"]["end"]["ypr_rad"] = [0.0, 0.5, 0.3]
    bad = tmp_path / "turn.scene.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "rank", str(bad), "--json",
                       "--out-dir", str(tmp_path))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith("trajectory.end.ypr_rad: ")
    assert not (tmp_path / "ranking.json").exists()


def test_a_trajectory_that_does_not_move_is_a_clean_json_error(tmp_path,
                                                               capsys):
    # rejected at parse, before the sweep, so no artifact is written
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["trajectory"]["end"]["position_m"] = doc["trajectory"]["start"][
        "position_m"]
    bad = tmp_path / "still.scene.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "rank", str(bad), "--json",
                         "--out-dir", str(out_dir))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith("trajectory.end.position_m: ")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_a_near_unit_joint_axis_ranks_as_the_unit_one(tmp_path, capsys):
    # within the unit-norm tolerance, the axis is stored normalized, so
    # its spins stay rotations
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    assert doc["chain"]["joints"][0]["axis"] == [0.0, 0.0, 1.0]
    doc["chain"]["joints"][0]["axis"] = [0.0, 0.0, 1.0000005]
    near = tmp_path / "near.scene.json"
    near.write_text(json.dumps(doc), encoding="utf-8")
    results = []
    for k, scene in enumerate((book_path(), str(near))):
        out_dir = tmp_path / f"out-{k}"
        code, out, _ = run(capsys, "rank", scene, "--json",
                           "--out-dir", str(out_dir))
        assert code == 0
        results.append((json.loads(out)["ranking"],
                        (out_dir / "mass_map.csv").read_bytes()))
    assert results[0] == results[1]


def test_bad_aggregator_is_a_clean_error(tmp_path, capsys):
    code, out, _ = run(capsys, "rank", book_path(), "--json",
                       "--aggregator", "median", "--out-dir", str(tmp_path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_null_scene_number_is_a_clean_json_error(tmp_path, capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["trajectory"]["t_f_s"] = None
    bad = tmp_path / "null.scene.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "rank", str(bad), "--json",
                         "--out-dir", str(tmp_path))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith("trajectory.t_f_s: ")
    assert "Traceback" not in err
    assert err.startswith("error: trajectory.t_f_s: ")
    assert not (tmp_path / "ranking.json").exists()


def test_simulate_impact_does_not_import_numpy_ma(tmp_path):
    # np.union1d imports numpy.ma on its first call in a process
    code = ("import sys\n"
            "from graspmass import parse_scene\n"
            "from graspmass.cli import cmd_simulate_impact, demo_scene_path\n"
            "cmd_simulate_impact(parse_scene(demo_scene_path('book')),\n"
            "                    out_dir=sys.argv[1])\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert (tmp_path / "impact_summary.json").exists()
    assert done.stdout == "False\n"


NOTE = "note: 20 of 20 samples near singular (damped task-space inertia)"


@pytest.mark.parametrize("argv", [
    ["rank", "SCENE"], ["profile", "SCENE", "spine-mid"],
    ["simulate-impact", "SCENE"], ["demo", "book"]],
    ids=lambda argv: argv[0])
def test_near_singular_samples_are_one_note_per_command(argv, tmp_path,
                                                        capsys, monkeypatch):
    argv = [book_path() if a == "SCENE" else a for a in argv]
    code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path / "stock"))
    assert code == 0
    assert "note:" not in err
    # a guard above every singular value flags (and damps) every sample
    monkeypatch.setattr("graspmass.chain.JACOBIAN_SINGULARITY_GUARD", 1e9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--json",
                             "--out-dir", str(tmp_path / "flagged"))
    assert code == 0
    json.loads(out)
    assert err.splitlines() == [NOTE]


def write_doc(tmp_path, doc):
    path = tmp_path / "edited.scene.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def assert_json_error(capsys, argv, out_dir, kind, field):
    code, out, err = run(capsys, *argv, "--json", "--out-dir", str(out_dir))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == kind
    assert error["message"].startswith(f"{field}: " if field else "")
    assert "Traceback" not in err
    assert not out_dir.exists()
    return error["message"]


@pytest.mark.parametrize("command", ["rank", "simulate-impact"])
@pytest.mark.parametrize("keys, field", [
    (("name",), "name"), (("grasps", 1, "id"), "grasps[1].id")],
    ids=["name", "grasp-id"])
def test_text_utf8_cannot_encode_is_rejected_at_parse(command, keys, field,
                                                      tmp_path, capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = "\ud800"   # valid JSON, no UTF-8 encoding
    assert_json_error(capsys, [command, write_doc(tmp_path, doc)],
                      tmp_path / "out", "ValidationError", field)


# only grids whose count overflows: a finer one that slipped through
# would be built sample by sample
@pytest.mark.parametrize("key, value", [("t_f_s", 1e308), ("dt_s", 1e-320)])
def test_a_grid_too_fine_to_count_names_the_step(key, value, tmp_path,
                                                 capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["trajectory"][key] = value
    assert_json_error(capsys, ["rank", write_doc(tmp_path, doc)],
                      tmp_path / "out", "ValidationError", "trajectory.dt_s")


def test_a_dt_override_too_fine_to_count_is_a_clean_json_error(tmp_path,
                                                               capsys):
    message = assert_json_error(
        capsys, ["rank", book_path(), "--dt", "1e-320"], tmp_path / "out",
        "InvalidStep", None)
    assert "100000 samples" in message


@pytest.mark.parametrize("collision, extra, where", [
    ({"time_s": 2.0}, [], "t = 2 s (sample 20 of 20 at dt 0.1)"),
    (None, ["--dt", "2.0"], "t = 2 s (sample 1 of 1 at dt 2)")],
    ids=["time-at-t_f", "dt-override"])
def test_zero_approach_speed_names_the_collision_instant(collision, extra,
                                                         where, tmp_path,
                                                         capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    if collision is not None:
        doc["collision"] = collision
    message = assert_json_error(
        capsys, ["simulate-impact", write_doc(tmp_path, doc), *extra],
        tmp_path / "out", "ValidationError", "collision")
    assert message == f"collision: approach speed is zero at {where}"
