"""Seeded scene generator for the benchmark workloads.

Seed 0 reproduces the bundled scenes byte for byte (``book-fine`` is the
bundled book scene with a finer grid and a damped collision). Any other
seed perturbs only the grasp candidates: spine offsets for the book
scenes, ring layouts for the tensor scene. The arm, the trajectory and the
IK seed stay fixed, so every seed asks the program for the same amount of
work and only the numbers change.

Every generated scene is validated with ``graspmass.scene_from_dict``
before it is written; the program under test reads only the written file.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DEFAULT_SEED = 0

# mass_map.csv digests of the unperturbed workloads (seed 0)
PINNED_MASS_MAP_SHA256 = {
    "book": "e701597505aa9c9efa6deb1e5a77c371871630967b8cd3c9a30ca4ee403a4373",
    "tensor": "41c1dab4e0cb3a50dbb78cefb8d1967b520bd474b95939010c882eb923c0cdc5",
    "book-fine": "beb19bb0b056b204888fc5a75e4d1bbcf286b1f374f860eea0f6c267cbfd18f9",
}

# book-fine: 200 samples; collision at the speed peak (t = 1 s) with
# c = 45 N s/m, i.e. damping ratio c / (2 sqrt(k M)) = 0.19-0.22 for the
# three spine grasps (M = 1.09-1.42 kg at that sample, k = 1e4 N/m)
BOOK_FINE_DT_S = 0.01
BOOK_FINE_COLLISION = {"time_s": 1.0, "stiffness_n_per_m": 10000.0,
                       "damping_ns_per_m": 45.0}

SPINE_JITTER_M = 0.01      # book: spine offsets stay within +-0.11 m (half width)
WORKLOADS = ("tensor", "book-fine", "book")


def bundled_scene_path(root: Path, name: str) -> Path:
    return root / "src" / "graspmass" / "scenes" / f"{name}.scene.json"


def _perturb_book(doc: dict, rng: random.Random) -> None:
    for grasp in doc["grasps"]:
        pos = grasp["pose_obj"]["position_m"]
        pos[1] = round(pos[1] + rng.uniform(-SPINE_JITTER_M, SPINE_JITTER_M), 9)


def _perturb_tensor(doc: dict, rng: random.Random) -> None:
    half = doc["object"]["handle_length_m"] / 2.0
    arm = doc["object"]["cylinder_length_m"]
    for grasp in doc["grasps"]:
        grasp["ring_positions_m"] = [round(rng.uniform(-half, half), 9)] + [
            round(rng.uniform(0.0, arm), 9) for _ in range(4)]


def scene_bytes(root: Path, workload: str, seed: int) -> bytes:
    """Scene file contents for one workload and seed, validated."""
    from graspmass import scene_from_dict

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    base = "tensor" if workload == "tensor" else "book"
    raw = bundled_scene_path(root, base).read_bytes()
    if workload != "book-fine" and seed == DEFAULT_SEED:
        scene_from_dict(json.loads(raw))
        return raw
    doc = json.loads(raw)
    if workload == "book-fine":
        doc["name"] = "book-fine"
        doc["trajectory"]["dt_s"] = BOOK_FINE_DT_S
        doc["collision"] = dict(BOOK_FINE_COLLISION)
    if seed != DEFAULT_SEED:
        rng = random.Random(f"{workload}:{seed}")
        (_perturb_tensor if base == "tensor" else _perturb_book)(doc, rng)
    scene_from_dict(doc)
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def write_scene_file(root: Path, workload: str, seed: int, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.scene.json"
    path.write_bytes(scene_bytes(root, workload, seed))
    return path


def pinned_digest(workload: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    return PINNED_MASS_MAP_SHA256[workload]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
