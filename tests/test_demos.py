"""The stdout of every script in demos/, run under ``python -W error``,
is pinned by digest, so a change that moves a printed number, or makes a
demo warn, fails here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINNED_DEMO_STDOUT_SHA256 = {
    "grasp_offset_basics.py":
        "4bac5edc307018dd1e07d2704ac754341f953c78a5d39baec420c1716dc9b1c8",
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


@pytest.mark.parametrize("name", sorted(PINNED_DEMO_STDOUT_SHA256))
def test_demo_stdout_matches_pinned_digest(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error",
                           str(ROOT / "demos" / name)], env=env,
                          capture_output=True, check=True, timeout=120)
    assert done.stderr == b""
    assert (hashlib.sha256(done.stdout).hexdigest()
            == PINNED_DEMO_STDOUT_SHA256[name])
