"""Spans around cliptrap's public functions, installed from outside.

`Tracer.install` replaces each traced function by a wrapper in every
loaded cliptrap module that holds it, so both the defining module and each
name an importer bound (``cli.make_thermal_cloud``, ``cli.fit_kappa``,
``estimation.decay``, ``cloud.scaled_x_k1`` ...) go through the wrapper.
Functions called per pixel or per model evaluation are recorded as
aggregate leaves: one (count, total time) entry per parent span, so the
trace stays small while the parent's self time still excludes them.

This module imports only the standard library, so the CLI launcher can
load it before ``import cliptrap`` without inflating the import span.
"""

from __future__ import annotations

import functools
import sys
import time

clock = time.perf_counter

# (module, function): True for an aggregate leaf, False for a full span.
TARGETS = {
    ("cli", "main"): False,
    ("cli", "build_config"): False,
    ("cli", "scenario_from_config"): False,
    ("cloud", "make_thermal_cloud"): False,
    ("cloud", "occupied_volume"): False,
    ("cloud", "effective_volume"): False,
    ("cloud", "column_density"): False,
    ("bessel", "scaled_x_k1"): True,
    ("dynamics", "evolve"): False,
    ("dynamics", "steady_state"): True,
    ("dynamics", "decay"): True,
    ("dynamics", "kappa_of_abscissa"): True,
    ("estimation", "least_squares"): False,
    ("estimation", "fit_kappa"): False,
    ("estimation", "fit_decay"): False,
    ("estimation", "fit_tof"): False,
    ("estimation", "fit_loading_rate"): False,
    ("estimation", "fit_column_profile"): False,
    ("sweeps", "run_sweep"): False,
    ("sweeps", "synthesize_measurements"): False,
}


def _annotate(name: str, args, result) -> dict:
    """Counts read off a call's arguments or result."""
    if name == "cloud.column_density":
        import numpy as np
        return {"points": int(np.broadcast(*(np.asarray(a) for a in args[1:3])).size)}
    if name == "sweeps.run_sweep":
        return {"points": len(result),
                "errors": sum(1 for row in result if row["error"])}
    if name.startswith("estimation."):
        converged = getattr(result, "converged", True)
        out = {"converged": bool(converged)}
        if name == "estimation.least_squares":
            out["iterations"] = int(result.iterations)
        return out
    return {}


class Tracer:
    """Spans of one process, kept in memory until the run ends.

    A span is [name, start, end, parent, op, info]; parent and op are
    indices (parent None for a top-level span).  Aggregate leaves are
    {(parent, name): [count, total]}.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple, list] = {}
        self.ops: list[tuple[int, float, float]] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple] = []

    # --- operations -----------------------------------------------------
    def begin_op(self, op: int) -> None:
        self._op = op

    def end_op(self, op: int, start: float, end: float) -> None:
        self.ops.append((op, start, end))
        self._op = None

    def add_span(self, name: str, start: float, end: float,
                 parent: int | None = None, info: dict | None = None) -> int:
        self.spans.append([name, start, end, parent, self._op, info or {}])
        return len(self.spans) - 1

    # --- wrappers -------------------------------------------------------
    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = self.add_span(name, clock(), 0.0, parent)
            self._stack.append(sid)
            rec = self.spans[sid]
            try:
                result = fn(*args, **kwargs)
                rec[5] = _annotate(name, args, result)
                return result
            except BaseException as exc:
                rec[5] = {"error": type(exc).__name__}
                raise
            finally:
                rec[2] = clock()
                self._stack.pop()
        return wrapper

    def _leaf_wrapper(self, name, fn):
        leaves = self.leaves
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = (stack[-1] if stack else None, name)
                entry = leaves.get(key)
                if entry is None:
                    leaves[key] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded cliptrap module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cliptrap"
                                         or n.startswith("cliptrap."))]
        for (mod, fn_name), leaf in TARGETS.items():
            original = getattr(sys.modules[f"cliptrap.{mod}"], fn_name)
            name = f"{mod}.{fn_name}"
            wrapped = (self._leaf_wrapper if leaf else self._span_wrapper)(
                name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self._restore.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    # --- export ---------------------------------------------------------
    def dump(self) -> dict:
        return {"spans": self.spans,
                "leaves": [[p, n, c, t] for (p, n), (c, t)
                           in self.leaves.items()]}

    def merge(self, dumped: dict, op: int) -> None:
        """Add the spans another process recorded for operation `op`."""
        base = len(self.spans)
        for name, start, end, parent, _, info in dumped["spans"]:
            self.spans.append([name, start, end,
                               None if parent is None else parent + base,
                               op, info])
        for parent, name, count, total in dumped["leaves"]:
            key = (None if parent is None else parent + base, name)
            entry = self.leaves.setdefault(key, [0, 0.0])
            entry[0] += count
            entry[1] += total


def summarize(tracer: Tracer) -> dict:
    """Per-name inclusive and self time, call counts and annotations.

    Returns {"ops": n, "op_wall": s, "covered": s, "names": {name: {...}}},
    where covered is the part of operation wall time inside top-level spans.
    """
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _, _ in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    names: dict[str, dict] = {}

    def entry(name):
        return names.setdefault(name, {"calls": 0, "total": 0.0,
                                       "self": 0.0, "info": {}})

    for i, (name, start, end, parent, _, info) in enumerate(tracer.spans):
        e = entry(name)
        e["calls"] += 1
        e["total"] += end - start
        e["self"] += end - start - child_time[i]
        for k, v in info.items():
            if not isinstance(v, str):
                e["info"][k] = e["info"].get(k, 0) + int(v)
    model_evals = 0
    for (parent, name), (count, total) in tracer.leaves.items():
        e = entry(name)
        e["calls"] += count
        e["total"] += total
        e["self"] += total
        if parent is not None:
            names[tracer.spans[parent][0]]["self"] -= total
            if tracer.spans[parent][0] == "estimation.least_squares":
                model_evals += count
    model_evals += sum(
        1 for name, _, _, parent, _, _ in tracer.spans
        if name == "cloud.column_density" and parent is not None
        and tracer.spans[parent][0] == "estimation.least_squares")

    bounds = {op: (start, end) for op, start, end in tracer.ops}
    covered = 0.0
    for name, start, end, parent, op, _ in tracer.spans:
        if parent is None and op in bounds:
            lo, hi = bounds[op]
            covered += max(0.0, min(end, hi) - max(start, lo))
    return {"ops": len(tracer.ops),
            "op_wall": sum(end - start for _, start, end in tracer.ops),
            "covered": covered, "model_evals": model_evals, "names": names}


def nesting_errors(tracer: Tracer) -> list[str]:
    """Spans that do not lie inside their parent or their operation."""
    bounds = {op: (start, end) for op, start, end in tracer.ops}
    errors = []
    for i, (name, start, end, parent, op, _) in enumerate(tracer.spans):
        if not start <= end:
            errors.append(f"span {i} {name} ends before it starts")
        if parent is None:
            lo, hi = bounds.get(op, (None, None))
            if lo is None or not lo <= start <= end <= hi:
                errors.append(f"span {i} {name} outside operation {op}")
            continue
        p = tracer.spans[parent]
        if parent >= i or p[4] != op or not p[1] <= start <= end <= p[2]:
            errors.append(f"span {i} {name} outside parent {parent} {p[0]}")
    for (parent, name) in tracer.leaves:
        if parent is None:
            errors.append(f"leaf {name} has no enclosing span")
    return errors
