"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each function listed in ``LAYERS`` by a
wrapper in every loaded ``graspmass`` module that refers to it (modules
import each other's functions by name), and ``uninstall`` puts the
originals back. Nothing under ``src/`` is modified. Spans stay in memory
as (id, request, name, layer, start, end, parent) and are written out
once, at the end of the run.

Grasps may be evaluated on the program's thread pool. A span opened on a
worker thread with nothing open on that thread takes the innermost open
span of the main thread as its parent, which is the ``evaluate_grasps``
call that submitted it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

# layer (= module) -> public functions wrapped in the traced run
LAYERS = {
    "scene": ["parse_scene"],
    "trajectory": ["sample"],
    "chain": ["inverse_kinematics", "operational_space_inertia"],
    "bodies": ["com_energy_matrix", "transform_to_grasp", "to_operational"],
    "augmented": ["augment", "effective_mass"],
    "ranking": ["evaluate_grasps", "evaluate_grasp", "rank_grasps"],
    "impact": ["simulate_impact", "predict_ordering"],
    "cli": ["cmd_rank", "cmd_simulate_impact", "cmd_profile"],
}


class Span(NamedTuple):
    id: int
    request: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, tracer.request, name, layer,
                                         start, end, parent))
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "graspmass" or n.startswith("graspmass.")]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"graspmass.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:  # removed by a later version of the program
                    continue
                wrapper = self._wrap(fn, f"{layer}.{fname}", layer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields),
                       "spans": [list(s) for s in self.spans]}, fh)
            fh.write("\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def request_summary(spans: list[Span], n_grasps: int, n_samples: int) -> dict:
    """Per-layer counts and times of one request (one benchmark iteration).

    A layer's busy time sums its outermost spans (those whose parent is in
    another layer), so spans on two worker threads both count; a
    function's busy time sums the calls not nested in the same function.
    Self time is a span's duration minus the union of its children's
    intervals.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)

    def self_time(s: Span) -> float:
        return (s.end - s.start) - _covered(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id])

    def root_command(s: Span) -> str | None:
        while s is not None:
            if s.layer == "cli":
                return s.name
            s = by_id.get(s.parent)
        return None

    calls = defaultdict(int)
    busy = defaultdict(float)
    layer_self = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        calls[s.layer] += 1
        layer_self[s.layer] += self_time(s)
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            busy[s.layer] += s.end - s.start
        if parent is None or parent.name != s.name:
            busy[s.name] += s.end - s.start
    ik_in_rank = sum(1 for s in spans if s.name == "chain.inverse_kinematics"
                     and root_command(s) == "cli.cmd_rank")
    sim_in_impact = sum(1 for s in spans if s.name == "impact.simulate_impact"
                        and root_command(s) == "cli.cmd_simulate_impact")
    sim_durations = [s.end - s.start for s in spans
                     if s.name == "impact.simulate_impact"]
    return {
        "scene.parse_s": busy["scene.parse_scene"],
        "trajectory.sample_calls": calls["trajectory.sample"],
        "trajectory.sample_s": busy["trajectory.sample"],
        "chain.ik_calls": calls["chain.inverse_kinematics"],
        "chain.ik_s": busy["chain.inverse_kinematics"],
        "chain.ik_calls_per_sample": ik_in_rank / n_samples,
        "chain.osi_calls": calls["chain.operational_space_inertia"],
        "chain.osi_s": busy["chain.operational_space_inertia"],
        "bodies.calls": calls["bodies"],
        "bodies.s": busy["bodies"],
        "augmented.calls": calls["augmented"],
        "augmented.s": busy["augmented"],
        "ranking.self_s": layer_self["ranking"],
        "impact.simulate_calls": calls["impact.simulate_impact"],
        "impact.simulate_calls_per_grasp": sim_in_impact / n_grasps,
        "impact.simulate_s": busy["impact.simulate_impact"],
        "impact.simulate_us": (statistics.median(sim_durations) * 1e6
                               if sim_durations else 0.0),
        "cli.self_s": layer_self["cli"],
    }
