#!/usr/bin/env python3
"""Quick self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

One short pass per workload and trace mode: the run must exit 0 and end in
a result line whose metrics are exactly those ``BENCHMARK.json`` lists for
that mode, with the listed units and finite values. Then a copy holding
only ``BENCHMARK.json`` and ``perfbench/`` (no program source) must exit
non-zero without printing a result. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}:\n"
                     f"{proc.stdout}{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{workload}: {result}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                fail(f"{workload} trace {trace}: metrics {got} != "
                     f"{expected[trace]}")
            bad = [k for k, m in result["metrics"].items()
                   if not math.isfinite(m["value"])]
            if bad:
                fail(f"{workload} trace {trace}: non-finite {bad}")
            print(f"ok  {workload:<9} trace {trace}: "
                  f"{len(got)} metrics, {result['attempted']} ops")

    bare = ROOT / ".perfbench-out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("without the program's source the run must exit non-zero "
                 "and print no result")
        print(f"ok  bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
