"""Regenerate the scene files shipped under src/graspmass/scenes/.

Run from the repo root:

    python3 tools/make_scenes.py

Both scenes share one 7-DOF serial chain and one straight-line retreat
trajectory.  The book scene varies the grasp point along the spine of a
thin cuboid; the tensor scene keeps a single grasp on one arm of the
cross rig and varies the sliding-ring layout instead, so only the
inertia distribution changes between candidates.
"""

import json
import pathlib

import numpy as np

from graspmass import inverse_kinematics, scene_from_dict
from graspmass.spatial import Pose, rotation_z

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "graspmass" / "scenes"

# chain geometry: offsets are parent-frame joint origins, links are solid
# cylinders spanning the segment to the next joint (tool plate for the wrist)
OFFSETS = [(0.0, 0.0, 0.30), (0.08, 0.0, 0.0), (0.35, 0.0, 0.0),
           (0.30, 0.0, 0.0), (0.25, 0.0, 0.0), (0.16, 0.0, 0.0),
           (0.10, 0.0, 0.0)]
SEGMENTS = [(0.08, 0.0, 0.0), (0.35, 0.0, 0.0), (0.30, 0.0, 0.0),
            (0.25, 0.0, 0.0), (0.16, 0.0, 0.0), (0.10, 0.0, 0.0),
            (0.08, 0.0, 0.0)]
AXES = ["z", "y", "x", "y", "x", "y", "x"]
MASSES = [2.0, 1.7, 1.3, 0.9, 0.6, 0.45, 0.3]
RADII = [0.06, 0.055, 0.05, 0.045, 0.04, 0.037, 0.035]
LIMIT = 2.967
TOOL = (0.08, 0.0, 0.0)

AXIS_VEC = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}

# shared trajectory: retreat down-right while lifting, wrist yawed -90 deg
# so the object's long direction stays mostly transverse to the motion
START_POS = (1.0, 0.0, 0.03)
END_POS = (1.1, -0.38, 0.16)
YPR = (-np.pi / 2, 0.0, 0.0)
T_F = 2.0
DT = 0.1
COLLISION_SAMPLE = 10
STIFFNESS = 1.0e4
IK_GUESS = np.array([0.0, 0.5, 0.0, 1.2, 0.0, 0.8, 0.0])

# tensor rig: 0.5 m handle along x, four 0.25 m arms along +-y and +-z,
# grip near the +y arm tip so ring moves swing the CoM across the grasp
HANDLE_LENGTH = 0.5
ARM_LENGTH = 0.25
CYLINDER_MASS = 0.05
RING_MASS = 0.036
RING_MAX = ARM_LENGTH - 0.04
RING_MID = 0.10
GRIP_POINT = (0.0, ARM_LENGTH - 0.02, 0.0)


def _cylinder_inertia(mass, radius, length, axis):
    u = np.asarray(axis, dtype=float)
    axial = 0.5 * mass * radius * radius
    perp = mass * (3.0 * radius * radius + length * length) / 12.0
    return perp * np.eye(3) + (axial - perp) * np.outer(u, u)


def chain_dict():
    joints = []
    for off, seg, axis, mass, radius in zip(OFFSETS, SEGMENTS, AXES,
                                            MASSES, RADII):
        length = float(np.linalg.norm(seg))
        direction = np.asarray(seg) / length
        inertia = _cylinder_inertia(mass, radius, length, direction)
        joints.append({
            "origin": {"position_m": list(off), "ypr_rad": [0.0, 0.0, 0.0]},
            "axis": list(AXIS_VEC[axis]),
            "limits_rad": [-LIMIT, LIMIT],
            "link": {
                "mass_kg": mass,
                "com_m": [seg[0] / 2.0, seg[1] / 2.0, seg[2] / 2.0],
                "inertia_kgm2": inertia.tolist(),
            },
        })
    return {
        "base_pose": {"position_m": [0.0, 0.0, 0.0], "ypr_rad": [0.0, 0.0, 0.0]},
        "tool_transform": {"position_m": list(TOOL), "ypr_rad": [0.0, 0.0, 0.0]},
        "joints": joints,
    }


def solve_seed():
    # the chain as the parser reads it, so the seed fits the written scenes
    chain = scene_from_dict(book_scene(IK_GUESS.tolist())).chain
    start = Pose(np.asarray(START_POS), rotation_z(YPR[0]))
    q = inverse_kinematics(chain, start, IK_GUESS)
    return [round(float(v), 6) for v in q]


def _pose_dict(position, ypr=(0.0, 0.0, 0.0)):
    return {"position_m": [float(v) for v in position],
            "ypr_rad": [float(v) for v in ypr]}


def common_sections(name, seed):
    return {
        "schema_version": 1,
        "name": name,
        "chain": chain_dict(),
        "trajectory": {
            "start": _pose_dict(START_POS, YPR),
            "end": _pose_dict(END_POS, YPR),
            "t_f_s": T_F,
            "dt_s": DT,
        },
        "collision": {"sample": COLLISION_SAMPLE,
                      "stiffness_n_per_m": STIFFNESS,
                      "damping_ns_per_m": 0.0},
        "ik_seed_rad": seed,
    }


def book_scene(seed):
    doc = common_sections("book", seed)
    doc["object"] = {"type": "cuboid", "mass_kg": 0.34,
                     "dims_m": [0.15, 0.22, 0.015]}
    doc["grasps"] = [
        {"id": "spine-neg", "pose_obj": _pose_dict((0.0, -0.1, 0.0))},
        {"id": "spine-mid", "pose_obj": _pose_dict((0.0, 0.0, 0.0))},
        {"id": "spine-pos", "pose_obj": _pose_dict((0.0, 0.1, 0.0))},
    ]
    return doc


def ring_sweep():
    """20 layouts: [handle, +y arm, -y arm, +z arm, -z arm] positions."""
    layouts = []
    for j in range(10):  # shift ring mass from the +y arm to the -y arm
        s = RING_MAX * j / 9.0
        layouts.append([0.0, RING_MAX - s, s, RING_MID, RING_MID])
    for j in range(5):  # same trade between the z arms
        s = RING_MAX * j / 4.0
        layouts.append([0.0, RING_MID, RING_MID, RING_MAX - s, s])
    for j in range(5):  # slide the handle ring end to end
        layouts.append([-0.24 + 0.48 * j / 4.0,
                        RING_MID, RING_MID, RING_MID, RING_MID])
    return layouts


def tensor_scene(seed):
    doc = common_sections("tensor", seed)
    doc["object"] = {
        "type": "tensor",
        "handle_length_m": HANDLE_LENGTH,
        "cylinder_length_m": ARM_LENGTH,
        "cylinder_mass_kg": CYLINDER_MASS,
        "ring_mass_kg": RING_MASS,
        "ring_positions_m": [0.0, RING_MID, RING_MID, RING_MID, RING_MID],
    }
    doc["grasps"] = [
        {"id": f"rings-{k:02d}", "pose_obj": _pose_dict(GRIP_POINT),
         "ring_positions_m": [round(v, 9) for v in layout]}
        for k, layout in enumerate(ring_sweep())
    ]
    return doc


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    seed = solve_seed()
    for doc in (book_scene(seed), tensor_scene(seed)):
        scene = scene_from_dict(doc)
        assert scene.n_samples == round(T_F / DT)
        scene.collision(scene.dt)  # raises unless the path moves there
        path = OUT_DIR / f"{scene.name}.scene.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(scene.grasps)} grasps, "
              f"{scene.n_samples} samples, t_f {scene.t_f})")


if __name__ == "__main__":
    main()
