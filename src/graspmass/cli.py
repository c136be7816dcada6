"""Command-line workbench: rank grasps, dump profiles, simulate impacts.

Subcommands: rank, profile, simulate-impact, demo {book,tensor}. demo
runs rank, simulate-impact and profile (of the recommended grasp) on one
scene. The ``Scene`` keeps one evaluation entry per sampling step, the
arm's sweep and the profiles of all its grasps, so the first command on
a scene computes it, even ``profile`` of one grasp, and every later
command reads it and adds only its own output. ``simulate-impact``
collides at the sample nearest the scene's collision instant on the
``dt`` grid, at the trajectory's speed there; ``at-sample=K`` instead
counts K samples on the grid in use. A failing command creates no output
directory. A command that succeeds prints one note on stderr when the
evaluation it read flagged near-singular samples (K of N). All outputs
are deterministic: floats are written with 9 significant digits, no
timestamps, and re-running on the same scene reproduces numeric CSV
content byte for byte. Each CSV is formatted as bytes by one ``%`` over
the whole table (``_table``) and written in one call.

Exit codes: 0 success, 2 inverse-kinematics failure (message names the
failing sample), 1 anything else, an output directory or artifact that
cannot be written included. With --json, errors also land on stdout as
{"error": {...}}.
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
AGGREGATOR_HELP = ("max | mean | at-sample=K (1-based, counted on the grid "
                   "in use, so --dt moves the instant; simulate-impact "
                   "keeps the collision instant)")


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _table(header: bytes, row: bytes, n_rows: int, values) -> bytes:
    """A CSV table as bytes: ``header``, then ``n_rows`` copies of ``row``,
    formatted by one % over all ``values``; b'%.9g' % x is the ASCII of
    _fmt(x) for every float."""
    return (header + row * n_rows) % tuple(values)


def _pairs(header: bytes, xs: np.ndarray, ys: np.ndarray) -> bytes:
    """A CSV table of two float columns under a literal header line."""
    return _table(header, b"%.9g,%.9g\n", len(xs),
                  np.column_stack([xs, ys]).ravel().tolist())


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


def _collision_speed(scene: Scene, times: np.ndarray, k: int,
                     dt: float) -> float:
    """Approach speed: |velocity| of the trajectory at ``times[k - 1]``,
    the collision sample's instant on the grid at ``dt``."""
    t = times[k - 1]
    velocity = scene.fit().velocity(t)
    if not np.isfinite(velocity).all():
        raise ValueError("trajectory samples must be finite")
    speed = float(np.linalg.norm(velocity))
    if speed <= MIN_APPROACH_SPEED:
        raise ValidationError("collision", (
            f"approach speed is zero at t = {t:g} s "
            f"(sample {k} of {len(times)} at dt {dt:g})"))
    return speed


def _write_json(path: Path, artifact: dict) -> None:
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")


def _artifact_head(scene: Scene) -> dict:
    return {"schema_version": SCHEMA_VERSION, "tool": "graspmass",
            "tool_version": __version__,
            "scene": {"name": scene.name, "digest": scene.digest}}


def cmd_rank(scene: Scene, aggregator="max", dt=None, out_dir=".") -> dict:
    """Rank all grasps; writes ranking.json and mass_map.csv."""
    agg = parse_aggregator(aggregator) if isinstance(aggregator, str) \
        else aggregator
    dt = scene.dt if dt is None else dt
    _, profiles = scene.evaluated(dt)
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "ranking.json", artifact)
    times = profiles[0].times
    values = times.tolist()
    for p in profiles:
        values.append(p.grasp_id.encode("utf-8"))
        values += p.masses.tolist()
    columns = b",%.9g" * len(times) + b"\n"
    (out / "mass_map.csv").write_bytes(_table(
        b"grasp_id" + columns, b"%s" + columns, len(profiles), values))
    return artifact


def cmd_profile(scene: Scene, grasp_key: str, dt=None, out_dir=".") -> dict:
    """Effective-mass profile of one grasp; writes profile_<id>.csv."""
    dt = scene.dt if dt is None else dt
    idx = _resolve_grasp(scene, grasp_key)
    _, profiles = scene.evaluated(dt)
    profile = profiles[idx]
    csv_name = f"profile_{file_stem(profile.grasp_id)}.csv"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / csv_name).write_bytes(_pairs(b"t_s,effective_mass_kg\n",
                                        profile.times, profile.masses))
    artifact = _artifact_head(scene)
    artifact.update({"grasp_id": profile.grasp_id, "csv": csv_name,
                     "n_samples": len(profile),
                     "max_kg": float(_fmt(profile.masses.max())),
                     "mean_kg": float(_fmt(profile.masses.mean()))})
    return artifact


def cmd_simulate_impact(scene: Scene, dt=None, out_dir=".") -> dict:
    """Per-grasp contact simulations at the collision sample of ``dt``.

    Writes impact_<id>.csv force traces plus impact_summary.json with the
    peak-force ordering and min/median/max highlights.
    """
    dt = scene.dt if dt is None else dt
    sweep, profiles = scene.evaluated(dt)
    k = scene.collision_sample_at(dt)
    speed = _collision_speed(scene, sweep.times, k, dt)
    ordering = predict_ordering(profiles, k, speed, scene.stiffness,
                                scene.damping)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for gid, trace in zip(ordering.grasp_ids, ordering.traces):
        (out / f"impact_{file_stem(gid)}.csv").write_bytes(
            _pairs(b"t_s,force_n\n", trace.times, trace.forces))
    by_peak = list(ordering.grasp_ids)
    peaks = dict(zip(by_peak, ordering.peak_forces))
    mass_order = list(rank_grasps(profiles, f"at-sample={k}").grasp_ids)
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
            label: {"grasp_id": gid, "peak_n": float(_fmt(peaks[gid]))}
            for label, gid in (("min", by_peak[0]),
                               ("median", by_peak[len(by_peak) // 2]),
                               ("max", by_peak[-1]))},
    })
    _write_json(out / "impact_summary.json", artifact)
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
    sp.add_argument("--aggregator", default="max", help=AGGREGATOR_HELP)

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
    sp.add_argument("--aggregator", default="max", help=AGGREGATOR_HELP)
    return parser


def _run(args) -> dict:
    """Run one command on one parsed scene; on success, note on stderr
    how many samples of the evaluation it read were near singular."""
    demo = args.command == "demo"
    scene = parse_scene(demo_scene_path(args.which) if demo else args.scene)
    if demo:
        # the three commands share the scene's sweep and profiles
        rank_art = cmd_rank(scene, args.aggregator, args.dt, args.out_dir)
        impact_art = cmd_simulate_impact(scene, args.dt, args.out_dir)
        cmd_profile(scene, rank_art["recommended"], args.dt, args.out_dir)
        artifact = {"rank": rank_art, "impact": impact_art}
        if not args.json:
            _print_rank(rank_art)
            _print_impact(impact_art)
    elif args.command == "rank":
        artifact = cmd_rank(scene, args.aggregator, args.dt, args.out_dir)
        if not args.json:
            _print_rank(artifact)
    elif args.command == "profile":
        artifact = cmd_profile(scene, args.grasp, args.dt, args.out_dir)
        if not args.json:
            print(f"wrote {artifact['csv']} ({artifact['n_samples']} samples, "
                  f"max {artifact['max_kg']:.6g} kg)")
    else:
        artifact = cmd_simulate_impact(scene, args.dt, args.out_dir)
        if not args.json:
            _print_impact(artifact)
    dt = scene.dt if args.dt is None else args.dt
    near = scene.evaluated(dt)[0].near_singular
    if near.any():
        print(f"note: {near.sum()} of {len(near)} samples near singular "
              "(damped task-space inertia)", file=sys.stderr)
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
    except OSError as exc:  # an artifact that cannot be written
        where = f"{exc.filename}: " if exc.filename is not None else ""
        _emit_error(args, type(exc).__name__,
                    f"cannot write {where}{exc.strerror or exc}")
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
