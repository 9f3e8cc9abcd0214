"""Span tracer for the benchmark's traced run, and the per-layer metrics it yields.

Wrappers are installed only in the traced process, at the module attributes
dqdcap's callers look up at call time, so the package itself is unchanged.
Each span records name, start, end, parent span and thread; stacks are per
thread, and a span opened on a pool thread with an empty stack takes the
span open on the main thread (the sweep or solve that started the pool) as
its parent.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


def _panels(args, kwargs, mesh):
    return {"geometry.panels": mesh.n_panels}


def _assemble_evals(args, kwargs, matrix):
    n = args[0].n_panels
    return {"kernels.evals": n * n, "kernels.assemble_evals": n * n}


def _block_evals(args, kwargs, block):
    return {"kernels.evals": len(args[1]) * len(args[2])}


def _factor_n3(args, kwargs, lu_piv):
    return {"solve.factor_n3": args[0].shape[0] ** 3}


def _gmres_iters(args, kwargs, maxwell):
    return {"solve.gmres_iters": sum(maxwell.solver.get("gmres_iterations", ()))}


def _near_pairs(args, kwargs, lists):
    return {"tree.near_pairs": sum(len(near) for near in lists[1])}


def _far_nnz(args, kwargs, ops):
    return {"tree.far_nnz": ops[0].nnz + ops[1].nnz}


def _sweep_cells(args, kwargs, sweep):
    return {"analysis.cells": len(sweep.rows),
            "analysis.cells_failed": sum(r["status"] != "ok" for r in sweep.rows),
            "analysis.jobs": kwargs.get("jobs", 1)}


# (module, attribute, span name, counter over (args, kwargs, result))
TARGETS = (
    ("dqdcap.cli", "run", "cli.run", None),
    ("dqdcap.cli", "mesh_device", "mesh_device", _panels),
    ("dqdcap.cli", "solve", "solve", _gmres_iters),
    ("dqdcap.cli", "misalign_sweep", "misalign_sweep", _sweep_cells),
    ("dqdcap.analysis", "transform_dots", "transform_dots", None),
    ("dqdcap.analysis", "mesh_device", "mesh_device", _panels),
    ("dqdcap.analysis", "solve", "solve", _gmres_iters),
    ("dqdcap.analysis", "reduce_caps", "reduce_caps", None),
    ("dqdcap.analysis", "stability_diagram", "stability_diagram", None),
    ("dqdcap.analysis", "delta_q", "delta_q", None),
    ("dqdcap.capsolve.solve", "assemble_system", "assemble_system", _assemble_evals),
    ("dqdcap.capsolve.solve", "potential_block", "potential_block", _block_evals),
    ("dqdcap.capsolve.solve", "build_octree", "build_octree", None),
    ("dqdcap.capsolve.solve", "interaction_lists", "interaction_lists", _near_pairs),
    ("dqdcap.capsolve.solve", "build_far_operators", "build_far_operators", _far_nnz),
    ("dqdcap.capsolve.solve", "gmres", "gmres", None),
    ("scipy.linalg", "lu_factor", "lu_factor", _factor_n3),
    ("scipy.linalg", "lu_solve", "lu_solve", None),
)

# span name -> per-layer metric holding that span's self time
SELF_TIME = {
    "cli.run": "cli.io_s",
    "mesh_device": "geometry.mesh_s",
    "transform_dots": "geometry.transform_s",
    "assemble_system": "kernels.assemble_s",
    "potential_block": "kernels.block_s",
    "solve": "solve.self_s",
    "lu_factor": "solve.lu_factor_s",
    "lu_solve": "solve.lu_solve_s",
    "gmres": "solve.gmres_s",
    "build_octree": "tree.octree_s",
    "interaction_lists": "tree.lists_s",
    "build_far_operators": "tree.far_build_s",
    "misalign_sweep": "analysis.sweep_self_s",
    "stability_diagram": "analysis.diagram_s",
    "reduce_caps": "charging.reduce_s",
    "delta_q": "charging.delta_q_s",
}

COUNTS = ("geometry.panels", "kernels.evals", "solve.factor_n3", "solve.gmres_iters",
          "tree.near_pairs", "tree.far_nnz", "analysis.cells", "analysis.cells_failed")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "counts")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.counts = None

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread, "counts": self.counts}


class Tracer:
    """Records spans around the TARGETS while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, counter, fn, args, kwargs):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), parent, threading.get_ident())
            self.spans.append(span)
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def _wrap(self, name, counter, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, counter, fn, args, kwargs)
        return traced

    def __enter__(self):
        for modname, attr, name, counter in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            setattr(mod, attr, self._wrap(name, counter, fn))
            self._undo.append((mod, attr, fn))
        return self

    def __exit__(self, *exc):
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's share of wall time not covered by its children.

    At every instant the time goes to the running spans that have no running
    child, split evenly when pool threads run several at once.  Without
    concurrency this is duration minus the time child spans cover, and the
    shares of all spans always sum to the wall time the root spans cover.
    """
    events = sorted([(s.start, 1, i) for i, s in enumerate(spans)]
                    + [(s.end, 0, i) for i, s in enumerate(spans)])
    share = [0.0] * len(spans)
    running_children = defaultdict(int)
    leaves: set[int] = set()
    t_prev = None
    for t, starts, i in events:
        if leaves and t > t_prev:
            dt = (t - t_prev) / len(leaves)
            for j in leaves:
                share[j] += dt
        t_prev = t
        parent = spans[i].parent
        if starts:
            leaves.add(i)
            if parent is not None:
                running_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(i)
            if parent is not None:
                running_children[parent] -= 1
                if running_children[parent] == 0 and spans[parent].end > t:
                    leaves.add(parent)
    return share


def layer_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-layer metrics of one traced pass lasting wall_s."""
    share = self_times(spans)
    out = {metric: 0.0 for metric in SELF_TIME.values()}
    counts = defaultdict(int)
    assemble_s = 0.0
    busy_s, sweep_s, jobs = 0.0, 0.0, 1
    for i, s in enumerate(spans):
        out[SELF_TIME[s.name]] += share[i]
        for key, value in (s.counts or {}).items():
            counts[key] += value
        if s.name == "assemble_system":
            assemble_s += s.end - s.start
        elif s.name == "misalign_sweep":
            sweep_s += s.end - s.start
            jobs = max(1, (s.counts or {}).get("analysis.jobs", 1))
        if s.parent is not None and spans[s.parent].name == "misalign_sweep":
            busy_s += s.end - s.start
    out.update({c: counts[c] for c in COUNTS})
    out["kernels.evals_per_s"] = counts["kernels.assemble_evals"] / assemble_s if assemble_s else 0.0
    out["analysis.busy_frac"] = busy_s / (jobs * sweep_s) if sweep_s else 0.0
    out["trace.wall_s"] = wall_s
    out["trace.accounted_frac"] = sum(share) / wall_s
    return out
