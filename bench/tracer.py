"""In-memory span tracer installed around stylemix's public functions.

The tracer patches module attributes from outside the package, so the
source under ``src/`` stays unchanged. Every patched name is looked up
at call time by the module that uses it (``cli.solve_exact``,
``solver.quantity_feasible``, ...), which is why each binding is
patched separately.

Two kinds of wrapper exist:

* span wrappers record ``(name, start, end, parent_id, value)`` for each
  call, where ``value`` is a small summary of the return value (flow
  outcome, row count, ...);
* leaf wrappers, used for functions called hundreds of thousands of
  times (``variety``, the band methods, ``ensure_valid``), fold each call
  into a ``[count, seconds]`` pair keyed by ``(name, parent span id)``.
  A leaf called from inside another leaf is counted but not timed, so
  its time is not subtracted twice.

Self time of a span is its duration minus the time covered by its
direct children, spans and leaves alike.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

_NO_PARENT = -1


class Tracer:
    """Records spans and leaf aggregates while installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.leaves: dict[tuple[str, int], list] = {}
        self._stack: list[int] = []
        self._leaf_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------

    def span(self, name: str, fn, summarize=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else _NO_PARENT
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = summarize(result) if summarize and result is not None else None
                spans[sid] = (name, start, end, parent, value)

        return wrapper

    def leaf(self, name: str, fn):
        leaves, stack, clock = self.leaves, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            key = (name, stack[-1] if stack else _NO_PARENT)
            agg = leaves.get(key)
            if agg is None:
                agg = leaves[key] = [0, 0.0]
            agg[0] += 1
            if self._leaf_depth:
                return fn(*args, **kwargs)
            self._leaf_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                agg[1] += clock() - start
                self._leaf_depth -= 1

        return wrapper

    # -- installation -------------------------------------------------

    def install_stylemix(self) -> None:
        """Patch every binding the per-layer metrics need."""
        from stylemix import cli, core, experiments, lp, solver

        spans = [
            (cli, "read_instance_file", "core.read_instance_file", None),
            (cli, "solve_exact", "solver.solve_exact", _iterations),
            (cli, "solve_heuristic", "solver.solve_heuristic", _iterations),
            (solver, "solve_heuristic", "solver.solve_heuristic", _iterations),
            (cli, "export_lp", "lp.export_lp", len),
            (lp, "build_milp", "lp.build_milp", _row_count),
            (cli, "run_linearity", "experiments.run_linearity", None),
            (experiments, "distance_matrix", "core.distance_matrix", None),
            (solver, "quantity_feasible", "solver.quantity_feasible", _feasible),
            (solver, "feasible_circulation", "flow.feasible_circulation", _feasible),
        ]
        leaves = [
            *((module, "ensure_valid", "core.ensure_valid") for module in (cli, solver, lp, experiments)),
            *((module, "variety", "variety.variety") for module in (solver, experiments)),
            *((core.DistributionInstance, method, "core.band")
              for method in ("lower_band", "upper_band", "big_m")),
        ]
        for owner, attr, name, summarize in spans:
            self._replace(owner, attr, self.span(name, getattr(owner, attr), summarize))
        for owner, attr, name in leaves:
            self._replace(owner, attr, self.leaf(name, getattr(owner, attr)))

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived figures ----------------------------------------------

    def write(self, path: Path) -> None:
        """Write spans and leaf aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sid, (name, start, end, parent, value) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "value": value,
                }) + "\n")
            for (name, parent), (count, seconds) in sorted(self.leaves.items()):
                out.write(json.dumps({
                    "leaf": name, "parent": parent, "count": count, "seconds": seconds,
                }) + "\n")

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.spans, self.leaves)


def _iterations(report) -> int:
    return int(report.iterations)


def _row_count(model) -> int:
    return len(model.rows)


def _feasible(result) -> bool:
    return bool(result.feasible)


class TraceSummary:
    """Per-name durations, self times, counts and values from one trace."""

    def __init__(self, spans, leaves):
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            child_time[parent] += end - start
        for (_, parent), (_, seconds) in leaves.items():
            child_time[parent] += seconds
        self.spans = spans
        self.leaves = leaves
        self._child_time = child_time

    def calls(self, name: str) -> int:
        spans = sum(1 for span in self.spans if span[0] == name)
        return spans + sum(c for (n, _), (c, _) in self.leaves.items() if n == name)

    def seconds(self, name: str) -> float:
        spans = sum((end - start for n, start, end, _, _ in self.spans if n == name), 0.0)
        return spans + sum(s for (n, _), (_, s) in self.leaves.items() if n == name)

    def self_seconds(self, name: str) -> float:
        """Duration of the named spans minus the time their children cover."""
        return sum((
            (end - start) - self._child_time[sid]
            for sid, (n, start, end, _, _) in enumerate(self.spans)
            if n == name
        ), 0.0)

    def span_seconds(self, name: str, parent_name: str) -> float:
        """Duration of the named spans whose direct parent is parent_name."""
        return sum((
            end - start
            for n, start, end, parent, _ in self.spans
            if n == name and self._parent_is(parent, parent_name)
        ), 0.0)

    def values(self, name: str) -> list:
        return [span[4] for span in self.spans if span[0] == name and span[4] is not None]

    def spans_under(self, name: str, ancestor_name: str) -> int:
        """Number of spans called name that have an ancestor called ancestor_name."""
        count = 0
        for n, _, _, parent, _ in self.spans:
            if n != name:
                continue
            while parent != _NO_PARENT:
                if self.spans[parent][0] == ancestor_name:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def _parent_is(self, parent: int, parent_name: str) -> bool:
        return parent != _NO_PARENT and self.spans[parent][0] == parent_name
