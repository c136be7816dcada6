#!/usr/bin/env python3
"""graspmass benchmark: scene-to-ranking latency, checked for correctness.

    python3 perfbench/run.py [--workload tensor|book-fine|book|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from a source checkout; the program is imported from ``src/``. For
one workload the script generates the scene for the seed
(``workloads.py``), times set-up in fresh interpreters, then repeats one
iteration (``parse_scene``, ``cmd_rank``, ``cmd_simulate_impact``,
``cmd_profile`` of the recommended grasp) for about S seconds, checking
every artifact the program writes. Timings are in reference seconds
(``machine.py``). The last line of stdout is the result JSON: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``. The
traced run alternates untraced and traced iterations so it can report the
tracing overhead. The full record (machine, every sample, digests, spans)
lands in ``.perfbench-out/``. See README.md.

``--workload all`` runs every workload in its own process, prints each
end-to-end metric by name and unit, and exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
SETUP_REPEATS = 11
PROFILE_SHARE = 0.15      # profile time per iteration, over rank + impact time
PEAK_TOL = 0.005          # undamped peak vs v sqrt(k M)
MICRO_TARGET_S = 0.02     # per timing batch
MICRO_BATCHES = 7
REFERENCE_WINDOW_S = 10.0  # reference samples this near a call scale it

sys.path.insert(0, str(Path(__file__).resolve().parent))
import machine  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, request_summary  # noqa: E402

E2E_UNITS = {"setup_s": "s", "rank_s": "s", "impact_s": "s",
             "profile_s": "s", "grasp_samples_per_s": "1/s",
             "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "scene.parse_s": "s",
    "trajectory.sample_calls": "count", "trajectory.sample_s": "s",
    "chain.ik_calls": "count", "chain.ik_s": "s",
    "chain.ik_calls_per_sample": "ratio",
    "chain.osi_calls": "count", "chain.osi_s": "s",
    "chain.fk_us": "us", "chain.jacobian_us": "us",
    "chain.mass_matrix_us": "us", "chain.osi_us": "us",
    "chain.ik_warm_us": "us", "spatial.pose_compose_us": "us",
    "bodies.calls": "count", "bodies.s": "s",
    "augmented.calls": "count", "augmented.s": "s",
    "augmented.effective_mass_us": "us",
    "ranking.self_s": "s",
    "impact.simulate_calls": "count",
    "impact.simulate_calls_per_grasp": "ratio",
    "impact.simulate_s": "s", "impact.simulate_us": "us",
    "cli.self_s": "s", "cli.bytes_written": "B",
    "trace.overhead_frac": "frac",
}

SETUP_SNIPPET = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import graspmass
scene = graspmass.parse_scene(sys.argv[2])
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "grasps": len(scene.grasps)}))
"""


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


class Workload:
    """One workload's scene, its checks, and the state they share."""

    def __init__(self, name: str, seed: int, scene):
        self.grasp_ids = [g.id for g in scene.grasps]
        self.n_samples = scene.n_samples
        self.collision_sample = scene.collision_sample
        self.damping = scene.damping
        self.pinned = workloads.pinned_digest(name, seed)
        self.mass_map_digest = None
        self.impact_digest = None

    def check_rank(self, artifact: dict, out: Path) -> dict[str, list[str]]:
        on_disk = json.loads((out / "ranking.json").read_text("utf-8"))
        ids = [e["grasp_id"] for e in on_disk["ranking"]]
        _require(sorted(ids) == sorted(self.grasp_ids),
                 "ranking.json must rank every grasp once")
        _require(on_disk["recommended"] in self.grasp_ids
                 and on_disk["recommended"] == ids[0]
                 and artifact["recommended"] == ids[0],
                 "ranking.json must name the top-ranked grasp as recommended")
        rows = _read_csv(out / "mass_map.csv")
        _require(len(rows) == len(self.grasp_ids) + 1
                 and all(len(r) == self.n_samples + 1 for r in rows),
                 "mass_map.csv must hold one row per grasp, one column "
                 "per sample")
        _require([r[0] for r in rows[1:]] == self.grasp_ids,
                 "mass_map.csv rows must follow the scene's grasp order")
        values = [float(v) for r in rows[1:] for v in r[1:]]
        _require(all(math.isfinite(v) and v > 0.0 for v in values),
                 "effective masses must be finite and positive")
        digest = workloads.sha256_file(out / "mass_map.csv")
        if self.pinned is not None:
            _require(digest == self.pinned,
                     f"mass_map.csv sha256 {digest} != pinned {self.pinned}")
        _require(self.mass_map_digest in (None, digest),
                 "mass_map.csv changed between iterations")
        self.mass_map_digest = digest
        return {r[0]: r[1:] for r in rows[1:]}

    def check_impact(self, artifact: dict, out: Path,
                     masses: dict[str, list[str]]) -> None:
        on_disk = json.loads((out / "impact_summary.json").read_text("utf-8"))
        _require(on_disk == json.loads(json.dumps(artifact)),
                 "impact_summary.json must match the returned artifact")
        _require(on_disk["orderings_agree"] is True,
                 "peak-force and effective-mass orderings must agree")
        peaks = on_disk["peaks_n"]
        _require(sorted(peaks) == sorted(self.grasp_ids),
                 "impact_summary.json must hold one peak per grasp")
        traces = sorted(out.glob("impact_*.csv"))
        _require(len(traces) == len(self.grasp_ids),
                 "one impact trace per grasp")
        if self.damping == 0.0:
            v = on_disk["approach_speed_mps"]
            k = on_disk["stiffness_n_per_m"]
            for gid, peak in peaks.items():
                m = float(masses[gid][self.collision_sample - 1])
                expected = v * math.sqrt(k * m)
                _require(abs(peak / expected - 1.0) <= PEAK_TOL,
                         f"{gid}: peak {peak} N is not within "
                         f"{PEAK_TOL:.1%} of v sqrt(kM) = {expected} N")
        digest = hashlib.sha256(
            b"".join(p.name.encode() + b"\0" + p.read_bytes()
                     for p in traces)).hexdigest()
        _require(self.impact_digest in (None, digest),
                 "impact traces changed between iterations")
        self.impact_digest = digest

    def check_profile(self, artifact: dict, out: Path,
                      masses: dict[str, list[str]], grasp_id: str) -> None:
        _require(artifact["grasp_id"] == grasp_id, "profile of the wrong grasp")
        rows = _read_csv(out / artifact["csv"])
        _require(rows[0] == ["t_s", "effective_mass_kg"]
                 and [r[1] for r in rows[1:]] == masses[grasp_id],
                 "profile of the recommended grasp must equal its "
                 "mass_map.csv row")


def measure_setup(scene_path: Path) -> float | None:
    """``import graspmass`` + ``parse_scene`` in a fresh interpreter.

    Returns the time measured inside the interpreter, None on failure.
    """
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(scene_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        _require(proc.returncode == 0 and record["grasps"] > 0,
                 "set-up interpreter failed")
        return float(record["setup_s"])
    except (CheckFailed, IndexError, KeyError, ValueError):
        sys.stderr.write(f"set-up failed:\n{proc.stderr}\n")
        return None


def per_call_us(fn, *args) -> float:
    """Median per-call time over batches of about MICRO_TARGET_S each."""
    fn(*args)
    t0 = perf_counter()
    fn(*args)
    n = max(1, int(MICRO_TARGET_S / max(perf_counter() - t0, 1e-7)))
    batches = []
    for _ in range(MICRO_BATCHES):
        t0 = perf_counter()
        for _ in range(n):
            fn(*args)
        batches.append((perf_counter() - t0) / n)
    return statistics.median(batches) * 1e6


def micro_timings(scene) -> dict[str, float]:
    """Single-call timings on inputs taken from the workload's trajectory.

    The arm is walked by warm-started IK from the grasp pose to the
    collision sample; the timed inputs are that configuration, the
    previous sample's solution, and the first grasp there.
    """
    import numpy as np
    from graspmass import (augment, com_energy_matrix, effective_mass,
                           forward_kinematics, geometric_jacobian,
                           inverse_kinematics, mass_matrix,
                           operational_space_inertia, pose_compose, sample,
                           transform_to_grasp)
    from graspmass.spatial import Pose

    def joints(result):
        return getattr(result, "q", result)

    chain, traj = scene.chain, scene.fit()
    samples = sample(traj, scene.dt)[:scene.collision_sample]
    q = joints(inverse_kinematics(
        chain, Pose(traj.position(0.0), traj.start_rotation), scene.ik_seed))
    q_prev = q
    for samp in samples:
        q_prev, q = q, joints(inverse_kinematics(chain, samp.pose, q))
    target = samples[-1]
    ee = forward_kinematics(chain, q)
    osi = operational_space_inertia(chain, q)
    lam_obj = transform_to_grasp(com_energy_matrix(scene.bodies[0]),
                                 scene.grasps[0]).expressed_in(
                                     target.pose.rotation)
    lam_tot = augment(osi.matrix, lam_obj)
    v = target.velocity.linear / np.linalg.norm(target.velocity.linear)
    return {
        "chain.fk_us": per_call_us(forward_kinematics, chain, q),
        "chain.jacobian_us": per_call_us(geometric_jacobian, chain, q),
        "chain.mass_matrix_us": per_call_us(mass_matrix, chain, q),
        "chain.osi_us": per_call_us(operational_space_inertia, chain, q),
        "chain.ik_warm_us": per_call_us(inverse_kinematics, chain,
                                        target.pose, q_prev),
        "spatial.pose_compose_us": per_call_us(pose_compose, ee,
                                               chain.tool_transform),
        "augmented.effective_mass_us": per_call_us(effective_mass,
                                                   lam_tot, v),
    }


def _timing(values: list[float]) -> dict:
    """Median plus the highest percentile with ten samples beyond it.

    Below 20 samples that percentile would not exceed the median, so the
    maximum is reported instead (as p100).
    """
    ordered = sorted(values)
    n = len(ordered)
    tail_pct, tail = ((100 * (n - 10) // n, ordered[n - 11]) if n >= 20
                      else (100, ordered[-1]))
    return {"median": statistics.median(ordered), "tail_pct": tail_pct,
            "tail": tail, "n": n, "values": values}


class Clock:
    """Times calls, with the reference workload (machine.py) between them.

    A reference sample follows every call, so consecutive calls share the
    sample between them. Once the run is over, ``factor`` turns a call's
    wall time into reference seconds using the mean of the reference
    samples within ``REFERENCE_WINDOW_S`` of the call, which always
    includes the two that bracket it.
    """

    def __init__(self):
        self.references: list[tuple[float, float]] = []  # (mid time, s)

    def _reference(self) -> None:
        start = perf_counter()
        took = machine.reference()
        self.references.append((start + took / 2.0, took))

    def time(self, fn, *args, **kwargs):
        """(result, wall seconds, (start, end))."""
        if not self.references:
            self._reference()
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        self._reference()
        return result, end - start, (start, end)

    def factor(self, span: tuple[float, float]) -> float:
        start, end = span
        near = [took for at, took in self.references
                if start - REFERENCE_WINDOW_S <= at <= end + REFERENCE_WINDOW_S]
        return machine.REFERENCE_S / statistics.mean(near)


TIMED = ("setup_s", "rank_s", "impact_s", "profile_s")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import graspmass
    from graspmass import cli

    out_root = OUT_ROOT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(out_root, ignore_errors=True)
    scene_path = workloads.write_scene_file(ROOT, name, seed, out_root)
    warm = graspmass.parse_scene(scene_path)
    wl = Workload(name, seed, warm)
    g, n = len(wl.grasp_ids), wl.n_samples
    out = out_root / "artifacts"
    cli.cmd_profile(warm, wl.grasp_ids[0], out_dir=out_root / "warm-up")
    machine.reference()

    clock = Clock()
    samples = {key: [] for key in TIMED}    # (wall seconds, span)
    traced_rank, summaries, bytes_written = [], [], 0
    setups = attempted = failed = 0

    def set_up():
        nonlocal setups, attempted, failed
        setups += 1
        attempted += 1
        inside, _, span = clock.time(measure_setup, scene_path)
        if inside is None:
            failed += 1
        else:
            samples["setup_s"].append((inside, span))

    def timed(key, fn, *args, **kwargs):
        nonlocal attempted
        attempted += 1
        result, took, span = clock.time(fn, *args, **kwargs)
        this_iteration[key].append((took, span))
        return result

    tracer = Tracer()
    started = perf_counter()
    iteration = 0
    set_up()
    while True:
        traced = trace and iteration % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        tracer.request = iteration
        if traced:
            tracer.install()
        this_iteration = {key: [] for key in TIMED}
        iteration_start = perf_counter()
        try:
            scene = graspmass.parse_scene(scene_path)
            rank = timed("rank_s", cli.cmd_rank, scene, out_dir=out)
            masses = wl.check_rank(rank, out)
            impact = timed("impact_s", cli.cmd_simulate_impact, scene,
                           out_dir=out)
            wl.check_impact(impact, out, masses)
            # one profile is short next to rank + impact, so untraced
            # iterations repeat it to gather as many samples
            budget = PROFILE_SHARE * (this_iteration["rank_s"][0][0]
                                      + this_iteration["impact_s"][0][0])
            while True:
                profile = timed("profile_s", cli.cmd_profile, scene,
                                rank["recommended"], out_dir=out)
                wl.check_profile(profile, out, masses, rank["recommended"])
                spent = sum(t for t, _ in this_iteration["profile_s"])
                if traced or spent >= budget:
                    break
            complete = True
        except Exception:  # count the failed operation and keep measuring
            failed += 1
            traceback.print_exc()
            complete = False
        finally:
            tracer.uninstall()
        if complete and traced:
            traced_rank += this_iteration["rank_s"]
            spans = [s for s in tracer.spans if s.request == iteration]
            summaries.append((request_summary(spans, g, n),
                              (iteration_start, perf_counter())))
            bytes_written = sum(p.stat().st_size for p in out.iterdir())
        elif complete:
            for key, values in this_iteration.items():
                samples[key] += values
        iteration += 1
        # set-up samples are spread over the run, so that one slow or fast
        # stretch of the machine does not set their median
        while setups < SETUP_REPEATS * min(
                1.0, (perf_counter() - started) / seconds):
            set_up()
        elapsed = perf_counter() - started
        per_iteration = elapsed / iteration
        enough = samples["rank_s"] and (traced_rank or not trace)
        # stop at the iteration count whose end lies nearest to `seconds`
        if elapsed + per_iteration / 2 > seconds and (enough or failed):
            break
    while setups < SETUP_REPEATS:
        set_up()
    if trace and summaries:
        micro, _, micro_span = clock.time(micro_timings, warm)

    def scaled(values):
        return [took * clock.factor(span) for took, span in values]

    record = {"workload": name, "seed": seed, "trace": int(trace),
              "grasps": g, "samples": n, "grasp_samples": g * n,
              "iterations": iteration, "seconds": perf_counter() - started,
              "machine": machine.record(g),
              "reference_s": _timing([r for _, r in clock.references]),
              "mass_map_sha256": wl.mass_map_digest,
              "mass_map_sha256_pinned": wl.pinned,
              "impact_traces_sha256": wl.impact_digest}
    metrics = {}
    if all(samples.values()) and (summaries or not trace):
        timings = {key: scaled(v) for key, v in samples.items()}
        record["timings"] = {key: _timing(v) for key, v in timings.items()}
        record["wall_timings"] = {key: _timing([t for t, _ in v])
                                  for key, v in samples.items()}
        # when each call and reference sample ran, from the loop's start
        record["calls"] = {key: [(t, a - started, b - started)
                                 for t, (a, b) in v]
                           for key, v in samples.items()}
        record["references"] = [(at - started, took)
                                for at, took in clock.references]
        median = {key: statistics.median(v) for key, v in timings.items()}
        if trace:
            layers = [_scaled_layers(summary, clock.factor(span))
                      for summary, span in summaries]
            layer = {key: statistics.median(s[key] for s in layers)
                     for key in layers[0]}
            layer.update(_scaled_layers(micro, clock.factor(micro_span)))
            layer["cli.bytes_written"] = bytes_written
            layer["trace.overhead_frac"] = (
                statistics.median(scaled(traced_rank)) / median["rank_s"]
                - 1.0)
            metrics = {k: {"value": layer[k], "unit": u}
                       for k, u in LAYER_UNITS.items()}
            spans_path = out_root / "spans.json"
            tracer.dump(spans_path)
            record["spans"] = str(spans_path.relative_to(ROOT))
        else:
            median["grasp_samples_per_s"] = g * n / median["rank_s"]
            median["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {k: {"value": median[k], "unit": u}
                       for k, u in E2E_UNITS.items()}
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(result)
    record["ops_failed_frac"] = failed / attempted
    (out_root / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    for scratch in (out, out_root / "warm-up"):
        shutil.rmtree(scratch, ignore_errors=True)

    speed = machine.REFERENCE_S / record["reference_s"]["median"]
    print(f"workload {name} seed {seed} trace {int(trace)}: {g} grasps x "
          f"{n} samples = {g * n} grasp-samples, {iteration} iterations, "
          f"pool width {record['machine']['grasp_pool_width']}")
    print(f"  machine at {speed:.3f} x reference speed; timings below in "
          "reference seconds, wall times in the record")
    for key, t in record.get("timings", {}).items():
        print(f"  {key:<10} median {t['median']:.4f} s  "
              f"p{t['tail_pct']} {t['tail']:.4f} s  (n={t['n']})")
    print(f"  ops_failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"  record {out_root.relative_to(ROOT) / 'result.json'}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _scaled_layers(values: dict, factor: float) -> dict:
    """Per-layer values with times (``*_s``, ``*_us``) in reference units."""
    return {k: v * factor if k.endswith(("_s", "_us")) else v
            for k, v in values.items()}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0,
                      "metrics": {}}
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        rows.append((name, result))
    for name, result in rows:
        ops = f"{result['failed']}/{result['attempted']} ops failed"
        print(f"{name}: correct={result['correct']} ({ops})")
        for key, m in result["metrics"].items():
            print(f"  {key:<32} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graspmass" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'graspmass'}; run from a "
              "graspmass checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
