import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from graspmass import (ImpactScenario, cli, parse_scene, scene_from_dict,
                       simulate_impact)
from graspmass._g9 import CHUNK_ROWS, format_pairs
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


@pytest.mark.parametrize("key", [" 1 ", " 1", "+1", "-0", "\u0661", "01",
                                 "1" * 5000],
                         ids=["spaces", "leading-space", "plus", "minus-zero",
                              "arabic-indic-one", "leading-zero",
                              "past-int-digit-limit"])
def test_profile_index_is_ascii_digits_only(key, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "profile", book_path(), key, "--json",
                       "--out-dir", str(out_dir))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith("grasp: ")
    assert not out_dir.exists()


def test_profile_looks_up_ids_before_indices(tmp_path, capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    for grasp, gid in zip(doc["grasps"], ["2", "0", "+1"]):
        grasp["id"] = gid
    path = tmp_path / "numbered.scene.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for key, want in (("0", "0"), ("2", "2"), ("+1", "+1"), ("1", "0")):
        code, out, _ = run(capsys, "profile", str(path), key, "--json",
                           "--out-dir", str(tmp_path / "out"))
        assert code == 0
        assert json.loads(out)["grasp_id"] == want


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
    import graspmass.chain as chain_module
    sweep = chain_module.sweep
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(chain_module, "sweep", counted)
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


def ulp_neighbours(values, steps=(1, 2)):
    """``values`` and the doubles ``steps`` ulps above and below each."""
    out = [values]
    for direction in (np.inf, -np.inf):
        near = values
        for step in range(1, max(steps) + 1):
            near = np.nextafter(near, direction)
            if step in steps:
                out.append(near)
    return np.concatenate(out)


def pairs_cases():
    """Cells where %.9g text is easy to get wrong, then bulk ones."""
    rng = np.random.default_rng(0)
    edges = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
         -2.2250738585072009e-308, np.inf, -np.inf, np.nan],
        ulp_neighbours(np.array([float(f"1e{k}") for k in range(-6, 11)])),
        ulp_neighbours(np.array([123456789.5, 999999999.5]), steps=(1,)),
        ulp_neighbours(np.array([1e-4, 1e9]), steps=(1,)),
    ])
    # every bit pattern is a double: the whole exponent range, both signs
    bits = rng.integers(-2**63, 2**63 - 1, 100_000).view(float)
    in_range = 10.0 ** rng.uniform(-5.0, 10.0, 40_000)
    digits = rng.integers(10**8, 10**9, 20_000)
    nine_digit = digits * 10.0 ** rng.integers(-13, 1, 20_000)
    ties = (digits + 0.5) * 10.0 ** rng.integers(-12, 1, 20_000)
    places = 10.0 ** rng.integers(0, 9, 20_000)
    short = np.rint(rng.uniform(0.0, 1e4, 20_000) * places) / places
    steps = rng.integers(1, 2001, 20_000) * rng.uniform(1e-6, 1e-2)
    return np.concatenate([edges, np.abs(bits[:50_000]), in_range, nine_digit,
                           ties, short, steps, bits, -in_range[:1000], edges])


def test_pairs_formats_each_value_like_fmt():
    cells = pairs_cases()
    cells = np.append(cells, [1.0] * (len(cells) % 2)).reshape(-1, 2)
    lines = [f"{cli._fmt(x)},{cli._fmt(y)}\n".encode() for x, y in cells]
    # below the cutover (% over the table), at it, and above one chunk
    for rows in (cli._FAST_ROWS - 1, cli._FAST_ROWS, 2 * CHUNK_ROWS + 1):
        for start in range(0, len(cells), rows):
            part = cells[start:start + rows]
            want = b"x,y\n" + b"".join(lines[start:start + rows])
            assert cli._pairs(b"x,y\n", part[:, 0], part[:, 1]) == want
    assert cli._pairs(b"x,y\n", cells[:0, 0], cells[:0, 1]) == b"x,y\n"


def test_long_traces_take_the_vectorized_formatter(monkeypatch):
    calls = []

    def counted(table):
        calls.append(len(table))
        return format_pairs(table)

    monkeypatch.setattr(cli, "format_pairs", counted)
    scene = parse_scene(demo_scene_path("book"))
    sweep, masses = scene.evaluated(0.01)
    cli._pairs(b"t,m\n", sweep.times, masses[0])   # 200 rows: % path
    assert calls == []
    trace = simulate_impact(ImpactScenario(1.2, 0.5, 1e4, 45.0))
    cli._pairs(b"t,f\n", trace.times, trace.forces)
    assert calls == [len(trace.times)] and len(trace.times) >= 2001


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


def artifacts_digest(out_dir, pattern="*"):
    """sha256 over the name, length and bytes of every file in ``out_dir``
    matching ``pattern``, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob(pattern)):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


# every file that `demo` writes, at the scene's dt and at two --dt
# overrides (0.01 gives 200 samples, so the Cholesky check and solve run
# on a long stack): the traces, the profile, mass_map.csv and both JSON
# artifacts; then the sha256 of what it prints
PINNED_DEMO_SHA256 = [
    ("book", None,
     "e11111ee27cdff587747e9c8dd42bf356cabbd715e990400f0f9477c92f33b43",
     "24733abfb60243bd445c843b02873a9fd2cb22ba8f7baa79f9386123c2b18f87"),
    ("book", "0.05",
     "115a7edde6bb64818b95eea38feeba6b2a06338422cd118472a91b1fca8c988a",
     "a4ddefa40b22150859d5f91b2da376a0841a67f8233f574a6824bbcea22f26ea"),
    ("book", "0.01",
     "316d89741dfa43cf960852b6e3cab67c6dbe26c32c0a76143d00ea9b11dc8ecb",
     "52d96e54989cb0c9180507a7defdb3af5a6514cb22322f7d12c00da440e7f86e"),
    ("tensor", None,
     "b2eed5b1450eeece751080f71dc82cc27bfddeb87b31d4418478e63b9366f62a",
     "d03f78fbc7ee94ce56dc8dd9972763103875603fbc72f6f181e4b12a3f0b1891"),
    ("tensor", "0.05",
     "5801aaa9959a0df4dcb940eb7ddba781be620a42f2de9752d4ea302dd7414746",
     "7273195811224c30a75d18d44ac939ee2b1551d615eb17f272e10ad7d535d674"),
    ("tensor", "0.01",
     "5e4e182c9aebad7dc91a6557ba939a4ea7d32100768b727b64cdfb4466e77e7e",
     "4a61a5ad85f8d1d849a165060689fe6cc38ad7129069fdf84e0a3c2d24cfeae2"),
]


@pytest.mark.parametrize("which, dt, digest, stdout_digest",
                         PINNED_DEMO_SHA256,
                         ids=["book", "book-dt0.05", "book-dt0.01", "tensor",
                              "tensor-dt0.05", "tensor-dt0.01"])
def test_demo_artifacts_match_pinned_digest(which, dt, digest, stdout_digest,
                                            tmp_path, capsys):
    extra = [] if dt is None else ["--dt", dt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a new warning fails the run
        code, out, _ = run(capsys, "demo", which, "--out-dir",
                           str(tmp_path), *extra)
    assert code == 0
    assert artifacts_digest(tmp_path) == digest
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


# every impact_*.csv of book at dt 0.01 under book-fine's damped
# collision: the force is clamped at 0 once the contact separates, which
# neither bundled scene (both undamped) reaches
DAMPED_TRACES_SHA256 = (
    "7d6614557e4fa1f6be802cf7316b2f4fa5637d9e72d86094107b05d78ff54bd2")


def test_damped_traces_match_pinned_digest(tmp_path):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["collision"] = {"time_s": 1.0, "stiffness_n_per_m": 1e4,
                        "damping_ns_per_m": 45.0}
    cli.cmd_simulate_impact(scene_from_dict(doc), dt=0.01, out_dir=tmp_path)
    assert b",0\n" in (tmp_path / "impact_spine-mid.csv").read_bytes()
    assert artifacts_digest(tmp_path, "impact_*.csv") == DAMPED_TRACES_SHA256


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


@pytest.mark.parametrize("index", [" 3", "+3", "03", "\u0663", "3 ",
                                   "1" * 5000],
                         ids=["leading-space", "plus", "leading-zero",
                              "arabic-indic-three", "trailing-space",
                              "past-int-digit-limit"])
def test_at_sample_index_is_ascii_digits_only(index, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "rank", book_path(), "--json", "--aggregator",
                       f"at-sample={index}", "--out-dir", str(out_dir))
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"type": "ValueError", "message": "bad at-sample index "
                     f"in {'at-sample=' + index!r}"}
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["rank", "BOOK", "--dt", "abc"], ["rank"],
                                  ["profile", "BOOK"], ["rank", "BOOK", "-x"],
                                  ["bogus"], ["rank", "BOOK", "--js"],
                                  ["rank", "BOOK", "--agg", "mean"],
                                  ["--vers"]],
                         ids=["bad-float", "no-scene", "no-grasp",
                              "unknown-option", "unknown-command",
                              "prefix-of-json", "prefix-of-aggregator",
                              "prefix-of-version"])
@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_usage_errors_exit_one_not_the_ik_failure_code(argv, as_json,
                                                       tmp_path, capsys):
    # argparse exits 2, the code of an IK failure, and prints no JSON; it
    # would also take a prefix of an option for the option
    out_dir = tmp_path / "out"
    argv = [book_path() if a == "BOOK" else a for a in argv]
    code, out, err = run(capsys, *argv, *["--json"] * as_json,
                         "--out-dir", str(out_dir))
    assert code == 1
    if as_json:
        error = json.loads(out)["error"]
        assert error["type"] == "UsageError"
        assert error["message"].startswith("graspmass")
    else:
        assert out == ""
    assert err.startswith("usage: graspmass")
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["rank", "--help"]])
def test_help_and_version_still_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(("usage: ", "graspmass "))


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


def flag_the_peak_of(monkeypatch, grasp):
    """Flag, in every later sweep of book, the sample where ``grasp``'s
    mass peaks; returns that grasp's id and its row."""
    import graspmass.chain as chain_module
    scene = parse_scene(book_path())
    row = scene.evaluated(scene.dt)[1][grasp]
    stacked = chain_module._stacked_inertias

    def flagged(chain, frames):
        lam, near = stacked(chain, frames)
        near = near.copy()
        near[row.argmax()] = True
        return lam, near

    monkeypatch.setattr(chain_module, "_stacked_inertias", flagged)
    return scene.grasps[grasp].id, row


def test_profile_max_excludes_what_ranks_max_excludes(tmp_path, capsys,
                                                      monkeypatch):
    gid, row = flag_the_peak_of(monkeypatch, 2)
    code, out, _ = run(capsys, "profile", book_path(), gid, "--json",
                       "--out-dir", str(tmp_path))
    assert code == 0
    profile = json.loads(out)
    code, out, _ = run(capsys, "rank", book_path(), "--json",
                       "--out-dir", str(tmp_path))
    assert code == 0
    ranked = {e["grasp_id"]: e["aggregate_kg"]
              for e in json.loads(out)["ranking"]}
    assert profile["max_kg"] == ranked[gid] < row.max()


def test_text_rank_prints_each_note(tmp_path, capsys, monkeypatch):
    flag_the_peak_of(monkeypatch, 0)
    code, out, _ = run(capsys, "rank", book_path(), "--out-dir",
                       str(tmp_path))
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("note:")] \
        == [f"note: {gid}: excluded 1 near-singular sample(s) from max"
            for gid in ("spine-neg", "spine-mid", "spine-pos")]


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_means_near_the_float_range_are_strict_json(tmp_path, capsys):
    # the object's double is finite, so it parses; the sum of a row of
    # its masses is not
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["object"]["mass_kg"] = 5e307
    path = write_doc(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "profile", path, "spine-mid", "--json",
                           "--out-dir", str(tmp_path / "out"))
        assert code == 0
        profile = json.loads(out, parse_constant=refuse_constant)
        code, out, _ = run(capsys, "rank", path, "--aggregator", "mean",
                           "--json", "--out-dir", str(tmp_path / "out"))
        assert code == 0
        ranked = json.loads(out, parse_constant=refuse_constant)
    means = {e["grasp_id"]: e["aggregate_kg"] for e in ranked["ranking"]}
    assert profile["mean_kg"] == means["spine-mid"] > 1e307


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


@pytest.mark.parametrize("scene, edits, field", [
    ("tensor", {("object", "handle_length_m"): 1e200}, "object"),
    ("book", {("trajectory", "t_f_s"): 1e70, ("trajectory", "dt_s"): 1e69},
     "trajectory.t_f_s"),
    ("book", {("trajectory", "t_f_s"): 1e-70, ("trajectory", "dt_s"): 1e-71,
              ("collision", "sample"): 5}, "trajectory.t_f_s"),
    # these three used to escape as numpy overflow or invalid warnings
    ("book", {("object", "mass_kg"): 1e308}, "object.mass_kg"),
    ("tensor", {("object", "cylinder_mass_kg"): 1e308}, "object"),
    ("tensor", {("object", "ring_mass_kg"): 1e308}, "object")],
    ids=["huge-handle", "t_f-1e70", "t_f-1e-70", "book-mass-1e308",
         "cylinder-mass-1e308", "ring-mass-1e308"])
def test_values_float_arithmetic_cannot_hold_are_clean_json_errors(
        scene, edits, field, tmp_path, capsys):
    doc = json.loads(demo_scene_path(scene).read_text(encoding="utf-8"))
    for (section, key), value in edits.items():
        doc[section][key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_json_error(capsys, ["rank", write_doc(tmp_path, doc)],
                          tmp_path / "out", "ValidationError", field)


@pytest.mark.parametrize("offset, code", [
    (1e153, 2), (2.2e153, 2), (3e153, 1), (5e153, 1), (1e154, 1),
    (1.3e154, 1)])
def test_an_arm_whose_reach_cannot_be_squared_is_refused_at_parse(
        offset, code, tmp_path, capsys):
    # each offset squares on its own; from 3e153 up, the reach of six of
    # them does not, and IK used to overflow squaring its residual
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    for joint in doc["chain"]["joints"][1:]:
        joint["origin"]["position_m"] = [offset, 0.0, 0.0]
    path = write_doc(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if code == 1:
            assert_json_error(capsys, ["rank", path], tmp_path / "out",
                              "ValidationError", "chain")
            return
        got, out, err = run(capsys, "rank", path, "--json", "--out-dir",
                            str(tmp_path / "out"))
    assert got == 2, err
    error = json.loads(out)["error"]
    assert error["type"] == "ik_did_not_converge"
    assert error["message"].startswith("sample 0: ")


def test_an_ik_residual_past_the_float_range_names_the_chain(tmp_path,
                                                            capsys):
    # the reach squares, but the residual to a path as far out on the
    # other side does not; it used to escape as a numpy overflow warning
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    for joint in doc["chain"]["joints"][1:]:
        joint["origin"]["position_m"] = [2.2e153, 0.0, 0.0]
    doc["trajectory"]["start"]["position_m"] = [-1.3e154, 0.0, 0.3]
    doc["trajectory"]["end"]["position_m"] = [-1.17e154, 0.0, 0.3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_json_error(capsys, ["rank", write_doc(tmp_path, doc)],
                          tmp_path / "out", "ValidationError", "chain")


def test_a_damping_the_contact_model_cannot_square_names_its_field(
        tmp_path, capsys):
    doc = json.loads(demo_scene_path("book").read_text(encoding="utf-8"))
    doc["collision"]["damping_ns_per_m"] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = assert_json_error(
            capsys, ["simulate-impact", write_doc(tmp_path, doc)],
            tmp_path / "out", "ValidationError", "collision.damping_ns_per_m")
    assert "1e+200 N s/m is too large for an effective mass of" in message


@pytest.mark.parametrize("scene, stiffness, word", [
    ("book", 1e308, "stiff"), ("book", 5e-324, "soft"),
    ("tensor", 1e-308, "soft"), ("tensor", 5e-324, "soft")])
def test_a_stiffness_out_of_the_contact_model_range_names_its_field(
        scene, stiffness, word, tmp_path, capsys):
    # too stiff used to end in an IndexError traceback, too soft in a
    # ValueError about the window that named no field
    doc = json.loads(demo_scene_path(scene).read_text(encoding="utf-8"))
    doc["collision"]["stiffness_n_per_m"] = stiffness
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = assert_json_error(
            capsys, ["simulate-impact", write_doc(tmp_path, doc)],
            tmp_path / "out", "ValidationError", "collision.stiffness_n_per_m")
    assert f"N/m is too {word} for an effective mass of" in message


@pytest.mark.parametrize("scene, key, value", [
    ("book", "mass_kg", 8e307), ("tensor", "cylinder_mass_kg", 1.7e307)])
def test_the_largest_object_mass_still_ranks(scene, key, value, tmp_path,
                                             capsys):
    doc = json.loads(demo_scene_path(scene).read_text(encoding="utf-8"))
    doc["object"][key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "rank", write_doc(tmp_path, doc),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 0, err


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
