"""Command-line workbench: rank grasps, dump profiles, simulate impacts.

Subcommands: rank, profile, simulate-impact, demo {book,tensor}. demo
runs rank, simulate-impact and profile (of the recommended grasp) on one
scene. The ``Scene`` keeps one evaluation entry per sampling step, the
arm's sweep and the profiles of all its grasps, so the first command on
a scene computes it, even ``profile`` of one grasp, and every later
command reads it and adds only its own output. ``simulate-impact``
takes the approach speed from the trajectory's velocity at the
collision sample's time on that grid. All outputs are
deterministic: floats are written with 9 significant digits, no
timestamps, and re-running on the same scene reproduces numeric CSV
content byte for byte.

Exit codes: 0 success, 2 inverse-kinematics failure (message names the
failing sample), 1 anything else. With --json, errors also land on
stdout as {"error": {...}}.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .constants import MIN_APPROACH_SPEED
from .errors import GraspmassError, IkDidNotConverge, ValidationError
from .impact import predict_ordering
from .ranking import parse_aggregator, rank_grasps
from .scene import Scene, file_stem, parse_scene

SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _pairs(xs: np.ndarray, ys: np.ndarray) -> str:
    """CSV rows of two float columns, formatted in one pass; '%.9g' % x
    is _fmt(x) for floats."""
    flat = np.column_stack([xs, ys]).ravel().tolist()
    return ("%.9g,%.9g\n" * len(xs)) % tuple(flat)


def _write_csv(path: Path, header, rows: str) -> None:
    """The header fields, then the formatted rows, in one write."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + rows)


def _resolve_grasp(scene: Scene, key: str) -> int:
    """Index of the grasp with id ``key``, falling back to a 0-based
    index for bare integers."""
    for idx, grasp in enumerate(scene.grasps):
        if grasp.id == key:
            return idx
    try:
        idx = int(key)
    except ValueError:
        idx = -1
    if 0 <= idx < len(scene.grasps):
        return idx
    raise ValidationError("grasp", f"no grasp {key!r} in scene "
                          f"(ids: {', '.join(g.id for g in scene.grasps)})")


def _collision_speed(scene: Scene, times, dt: float) -> float:
    """Approach speed: |velocity| of the trajectory at the collision
    sample's grid time."""
    k = scene.collision_sample
    if k > len(times):
        raise ValidationError("collision.sample",
                              f"sample {k} out of range for dt={dt}")
    velocity = scene.fit().velocity(times[k - 1])
    if not np.isfinite(velocity).all():
        raise ValueError("trajectory samples must be finite")
    speed = float(np.linalg.norm(velocity))
    if speed <= MIN_APPROACH_SPEED:
        raise ValidationError("collision.sample",
                              "approach speed is zero at this sample")
    return speed


def _artifact_head(scene: Scene) -> dict:
    return {"schema_version": SCHEMA_VERSION, "tool": "graspmass",
            "tool_version": __version__,
            "scene": {"name": scene.name, "digest": scene.digest}}


def cmd_rank(scene: Scene, aggregator="max", dt=None, out_dir=".") -> dict:
    """Rank all grasps; writes ranking.json and mass_map.csv."""
    agg = parse_aggregator(aggregator) if isinstance(aggregator, str) \
        else aggregator
    dt = scene.dt if dt is None else dt
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, profiles = scene._evaluated(dt)
    report = rank_grasps(profiles, agg)
    artifact = _artifact_head(scene)
    artifact.update({
        "aggregator": report.aggregator,
        "n_samples": len(profiles[0]),
        "ranking": [{"grasp_id": gid, "aggregate_kg": float(_fmt(val))}
                    for gid, val in zip(report.grasp_ids, report.aggregates)],
        "recommended": report.grasp_ids[0],
        "notes": list(report.notes),
    })
    with open(out / "ranking.json", "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    times = profiles[0].times
    _write_csv(out / "mass_map.csv",
               ["grasp_id"] + [_fmt(t) for t in times],
               "".join(",".join([p.grasp_id] + [_fmt(v) for v in p.masses])
                       + "\n" for p in profiles))
    return artifact


def cmd_profile(scene: Scene, grasp_key: str, dt=None, out_dir=".") -> dict:
    """Effective-mass profile of one grasp; writes profile_<id>.csv."""
    dt = scene.dt if dt is None else dt
    idx = _resolve_grasp(scene, grasp_key)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, profiles = scene._evaluated(dt)
    profile = profiles[idx]
    csv_name = f"profile_{file_stem(profile.grasp_id)}.csv"
    _write_csv(out / csv_name, ["t_s", "effective_mass_kg"],
               _pairs(profile.times, profile.masses))
    artifact = _artifact_head(scene)
    artifact.update({"grasp_id": profile.grasp_id, "csv": csv_name,
                     "n_samples": len(profile),
                     "max_kg": float(_fmt(profile.masses.max())),
                     "mean_kg": float(_fmt(profile.masses.mean()))})
    return artifact


def cmd_simulate_impact(scene: Scene, dt=None, out_dir=".") -> dict:
    """Per-grasp contact simulations at the scene's collision sample.

    Writes impact_<id>.csv force traces plus impact_summary.json with the
    peak-force ordering and min/median/max highlights.
    """
    dt = scene.dt if dt is None else dt
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sweep, profiles = scene._evaluated(dt)
    speed = _collision_speed(scene, sweep.times, dt)
    k = scene.collision_sample
    ordering = predict_ordering(profiles, k, speed, scene.stiffness,
                                scene.damping)
    for gid, trace in zip(ordering.grasp_ids, ordering.traces):
        _write_csv(out / f"impact_{file_stem(gid)}.csv", ["t_s", "force_n"],
                   _pairs(trace.times, trace.forces))
    by_peak = list(ordering.grasp_ids)
    peaks = dict(zip(by_peak, ordering.peak_forces))
    mass_order = [gid for _, gid in sorted(
        (float(p.masses[k - 1]), p.grasp_id) for p in profiles)]
    artifact = _artifact_head(scene)
    artifact.update({
        "collision_sample": k,
        "approach_speed_mps": float(_fmt(speed)),
        "stiffness_n_per_m": float(_fmt(scene.stiffness)),
        "damping_ns_per_m": float(_fmt(scene.damping)),
        "ordering_by_peak": by_peak,
        "ordering_by_effective_mass": mass_order,
        "orderings_agree": by_peak == mass_order,
        "peaks_n": {gid: float(_fmt(peaks[gid])) for gid in by_peak},
        "highlights": {
            "min": {"grasp_id": by_peak[0],
                    "peak_n": float(_fmt(peaks[by_peak[0]]))},
            "median": {"grasp_id": by_peak[len(by_peak) // 2],
                       "peak_n": float(_fmt(peaks[by_peak[len(by_peak) // 2]]))},
            "max": {"grasp_id": by_peak[-1],
                    "peak_n": float(_fmt(peaks[by_peak[-1]]))},
        },
    })
    with open(out / "impact_summary.json", "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    return artifact


def demo_scene_path(name: str) -> Path:
    """Filesystem path of a packaged demo scene (book or tensor)."""
    ref = resources.files("graspmass") / "scenes" / f"{name}.scene.json"
    return Path(str(ref))


def _print_rank(artifact: dict) -> None:
    print(f"scene {artifact['scene']['name']} "
          f"(digest {artifact['scene']['digest'][:12]})")
    print(f"ranked {len(artifact['ranking'])} grasp(s) "
          f"by {artifact['aggregator']} effective mass:")
    for pos, entry in enumerate(artifact["ranking"], 1):
        print(f"  {pos}. {entry['grasp_id']}  {entry['aggregate_kg']:.6g} kg")
    print(f"recommended: {artifact['recommended']}")
    for note in artifact["notes"]:
        print(f"note: {note}")


def _print_impact(artifact: dict) -> None:
    print(f"scene {artifact['scene']['name']}: impact at sample "
          f"{artifact['collision_sample']}, "
          f"speed {artifact['approach_speed_mps']:.6g} m/s")
    for gid in artifact["ordering_by_peak"]:
        print(f"  {gid}  peak {artifact['peaks_n'][gid]:.6g} N")
    agree = "agrees" if artifact["orderings_agree"] else "DISAGREES"
    print(f"peak-force ordering {agree} with effective-mass ordering")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graspmass",
        description="Rank grasps by effective mass along a trajectory "
                    "and predict impact-force ordering.")
    parser.add_argument("--version", action="version",
                        version=f"graspmass {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sp, scene_arg=True):
        if scene_arg:
            sp.add_argument("scene", help="scene JSON file")
        sp.add_argument("--dt", type=float, default=None,
                        help="sampling step override (s)")
        sp.add_argument("--out-dir", default=".", help="output directory")
        sp.add_argument("--json", action="store_true",
                        help="print the JSON artifact to stdout")

    sp = subs.add_parser("rank", help="rank all grasps in a scene")
    common(sp)
    sp.add_argument("--aggregator", default="max",
                    help="max | mean | at-sample=K (1-based)")

    sp = subs.add_parser("profile", help="effective-mass profile of one grasp")
    common(sp)
    sp.add_argument("grasp", help="grasp id (or 0-based index)")

    sp = subs.add_parser("simulate-impact",
                         help="contact simulation per grasp at the "
                              "collision sample")
    common(sp)

    sp = subs.add_parser("demo", help="run a packaged demo scene end to end")
    sp.add_argument("which", choices=["book", "tensor"])
    common(sp, scene_arg=False)
    sp.add_argument("--aggregator", default="max",
                    help="max | mean | at-sample=K (1-based)")
    return parser


def _run(args) -> dict:
    if args.command == "demo":
        # the three commands share the scene's sweep and profiles
        scene = parse_scene(demo_scene_path(args.which))
        rank_art = cmd_rank(scene, args.aggregator, args.dt, args.out_dir)
        impact_art = cmd_simulate_impact(scene, args.dt, args.out_dir)
        cmd_profile(scene, rank_art["recommended"], args.dt, args.out_dir)
        if not args.json:
            _print_rank(rank_art)
            _print_impact(impact_art)
        return {"rank": rank_art, "impact": impact_art}
    scene = parse_scene(args.scene)
    if args.command == "rank":
        artifact = cmd_rank(scene, args.aggregator, args.dt, args.out_dir)
        if not args.json:
            _print_rank(artifact)
        return artifact
    if args.command == "profile":
        artifact = cmd_profile(scene, args.grasp, args.dt, args.out_dir)
        if not args.json:
            print(f"wrote {artifact['csv']} ({artifact['n_samples']} samples, "
                  f"max {artifact['max_kg']:.6g} kg)")
        return artifact
    artifact = cmd_simulate_impact(scene, args.dt, args.out_dir)
    if not args.json:
        _print_impact(artifact)
    return artifact


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        artifact = _run(args)
    except IkDidNotConverge as exc:
        _emit_error(args, "ik_did_not_converge", str(exc),
                    sample=exc.sample_index)
        return 2
    except (GraspmassError, ValueError) as exc:
        _emit_error(args, type(exc).__name__, str(exc))
        return 1
    if args.json:
        print(json.dumps(artifact, indent=2))
    return 0


def _emit_error(args, kind: str, message: str, **extra) -> None:
    if getattr(args, "json", False):
        payload = {"error": {"type": kind, "message": message, **extra}}
        print(json.dumps(payload))
    print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
