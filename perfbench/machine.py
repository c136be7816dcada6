"""The machine a run executes on: what it is, and how fast it is right now.

Shared machines change speed by tens of percent from one minute to the
next: on a shared 2-vCPU x86_64 VM, a fixed single-threaded loop took
0.054-0.091 s in consecutive 20-second windows. Wall times taken
minutes apart then differ more than the code changes the benchmark should
detect. So a fixed reference workload runs after every timed call, and
timings are reported at the machine speed where the reference takes
``REFERENCE_S``:

    reported = wall * REFERENCE_S / mean(reference samples near the call)

(``run.Clock`` picks the samples within ``REFERENCE_WINDOW_S``).

The reference is benchmark code only (Python-level loop over small dense
linear algebra, the shape of the program's inner loop), so no change to
the program can move it. The raw wall times stay in the run's record.
"""

from __future__ import annotations

import math
import os
import platform
from time import perf_counter

import numpy as np

REFERENCE_LOOPS = 600
REFERENCE_S = 0.025        # reference time the reported timings are scaled to

_REF_MATRIX = 7.0 * np.eye(7) + np.ones((7, 7))
_REF_VECTOR = np.arange(1.0, 8.0)


def reference() -> float:
    """Wall time of the fixed reference workload, in seconds."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(REFERENCE_LOOPS):
        x = np.linalg.solve(_REF_MATRIX, _REF_VECTOR)
        r = np.cross(x[:3], x[3:6])
        acc += float(r @ r) + sum(float(t) for t in x[:3])
    took = perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference workload produced a non-finite sum")
    return took


def record(n_grasps: int) -> dict:
    """Cores, Python, numpy, BLAS and its thread settings, pool width."""
    from graspmass import cli
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    workers = getattr(cli, "_workers", None)  # the grasp thread pool
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "grasp_pool_width": workers(n_grasps) if workers else 1,
    }
