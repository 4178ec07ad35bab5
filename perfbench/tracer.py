"""Span recorder that wraps qmkit's public functions from outside the package.

Every public function of the layer modules is replaced, in every loaded
``qmkit`` namespace that binds it, by a wrapper that records one span:
name, start, end, parent span, task id, whether it raised, and a few
sizes (grid points, levels, CSV rows and bytes).  Rebinding every
namespace matters: ``find_eigenvalues`` calls ``shoot_mismatch`` through
``qmkit.schrodinger1d`` and ``no_signalling_check`` calls
``table_from_density`` through ``qmkit.saqm.tomography``; wrapping only
the package root would miss those calls.  Spans stay in memory until the
run writes them out once at the end.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

#: Layer name -> module whose ``__all__`` lists the functions to wrap.
LAYERS = {
    "schrodinger1d": "qmkit.schrodinger1d",
    "qshje": "qmkit.qshje",
    "saqm": "qmkit.saqm",
    "schwarzian": "qmkit.schwarzian",
    "cli": "qmkit.cli",
}


def _grid_points(args, kwargs):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return lambda result: {"points": grid.n_points}


def _levels(args, kwargs):
    return lambda result: {"levels": len(result.energies)}


def _trajectory_rows(args, kwargs):
    trajectory = args[0] if args else kwargs["trajectory"]
    target = args[1] if len(args) > 1 else kwargs["target"]
    if not hasattr(target, "tell"):  # a path: the bytes land in a file
        return lambda result: {"rows": len(trajectory.t)}
    start = target.tell()
    return lambda result: {"rows": len(trajectory.t), "bytes": target.tell() - start}


def _residual_rows(args, kwargs):
    action = args[0] if args else kwargs["action"]
    return lambda result: {"rows": action.grid.n_points - 2}


#: Function name -> hook(args, kwargs) returning result -> sizes.
_SIZES = {
    "shoot_mismatch": _grid_points,
    "solution_pair": _grid_points,
    "find_eigenvalues": _levels,
    "write_trajectory_csv": _trajectory_rows,
    "write_residual_csv": _residual_rows,
}


class Recorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.task = None

    def wrap(self, name: str, fn):
        short = name.rsplit(".", 1)[1]
        sizer = _SIZES.get(short)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "task": self.task,
                "failed": False,
            }
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            finish = sizer(args, kwargs) if sizer else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if finish:
                span.update(finish(result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper


class Installed:
    """Wrappers bound into qmkit namespaces; ``remove`` restores them."""

    def __init__(self, recorder: Recorder):
        targets = {}
        for layer, module_name in LAYERS.items():
            module = importlib.import_module(module_name)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    targets[id(fn)] = recorder.wrap(f"{layer}.{attr}", fn)
        self._restore = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "qmkit" and not module_name.startswith("qmkit."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

    def remove(self) -> None:
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore = []


def merge(spans: list[dict], child: list[dict], task) -> None:
    """Append a child process's spans, renumbering their parent links."""
    offset = len(spans)
    for span in child:
        span = dict(span)
        if span["parent"] is not None:
            span["parent"] += offset
        span["task"] = task
        spans.append(span)


class SpanStats:
    """Per-function totals over a list of spans."""

    def __init__(self, spans: list[dict]):
        child_time = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.sizes = defaultdict(lambda: defaultdict(int))
        for sid, span in enumerate(spans):
            name = span["name"]
            busy = span["end"] - span["start"]
            self.calls[name] += 1
            self.failed[name] += span["failed"]
            self.busy[name] += busy
            self.self_time[name] += busy - child_time[sid]
            for key in ("points", "levels", "rows", "bytes"):
                if key in span:
                    self.sizes[name][key] += span[key]
        self._spans = spans

    def per(self, name: str, size: str) -> float:
        total = self.sizes[name][size]
        return self.busy[name] / total if total else 0.0

    def children_per_parent(self, parent: str, child: str) -> float:
        """Mean number of ``child`` spans nested anywhere below ``parent``."""
        spans = self._spans
        roots = [i for i, s in enumerate(spans) if s["name"] == parent]
        if not roots:
            return 0.0
        inside = set(roots)
        count = 0
        for sid, span in enumerate(spans):
            p = span["parent"]
            while p is not None and p not in inside:
                p = spans[p]["parent"]
            if p is not None and span["name"] == child:
                count += 1
        return count / len(roots)
