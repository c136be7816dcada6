"""The stdout of every script in demos/, run under ``python -W error``,
is pinned by digest, so a change that moves a printed number, or makes a
demo warn, fails here."""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import book_scene

ROOT = Path(__file__).resolve().parents[1]

PINNED_DEMO_STDOUT_SHA256 = {
    "grasp_offset_basics.py":
        "8b8578dfc22f1da7b17cb742f32ee8eb213c17352da684ef909fc9db620882f4",
    "impact_model.py":
        "d919665a648bec2471dc0edbce48e886eaeb21916d4d93cd4e23b562db879eee",
    "rank_book_grasps.py":
        "796b234847eb9b98ba2f457da86a8e0a7be116d8138631c041ab2a011cdc6f22",
    "tensor_ring_sweep.py":
        "08647e61f4f530955a925bdf932bc2385807b133a802d29c9c43e09878d91678",
}


def test_every_demo_is_pinned():
    assert (sorted(p.name for p in (ROOT / "demos").glob("*.py"))
            == sorted(PINNED_DEMO_STDOUT_SHA256))


@functools.cache
def demo_stdout(name) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error",
                           str(ROOT / "demos" / name)], env=env,
                          capture_output=True, check=True, timeout=120)
    assert done.stderr == b""
    return done.stdout


@pytest.mark.parametrize("name", sorted(PINNED_DEMO_STDOUT_SHA256))
def test_demo_stdout_matches_pinned_digest(name):
    assert (hashlib.sha256(demo_stdout(name)).hexdigest()
            == PINNED_DEMO_STDOUT_SHA256[name])


def test_grasp_offsets_feel_the_scenes_grasps():
    # the book scene's grasps sit at y = -0.1, 0 and 0.1 on its spine, so
    # the demo's through-robot column must read its mass table there
    scene = book_scene()
    masses = scene.evaluated(scene.dt)[1][:, scene.collision_sample - 1]
    rows = {}
    for line in demo_stdout("grasp_offset_basics.py").decode().splitlines():
        cells = line.split()
        if len(cells) == 3 and cells[0][-1].isdigit():
            rows[cells[0]] = cells[2]
    assert [rows[y] for y in ("-0.100", "0.000", "0.100")] == [
        f"{m:.4f}" for m in masses]
