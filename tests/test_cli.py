import json

import numpy as np
import pytest

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


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        code, _, _ = run(capsys, "rank", book_path(), "--out-dir", str(d))
        assert code == 0
    assert (a / "mass_map.csv").read_bytes() == (b / "mass_map.csv").read_bytes()
    assert (a / "ranking.json").read_bytes() == (b / "ranking.json").read_bytes()


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


def test_bad_aggregator_is_a_clean_error(tmp_path, capsys):
    code, out, _ = run(capsys, "rank", book_path(), "--json",
                       "--aggregator", "median", "--out-dir", str(tmp_path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"
