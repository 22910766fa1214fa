"""Span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each ``repro`` layer *from the
benchmark's side* (class attributes and module globals are swapped for
recording wrappers, then restored), so the program itself carries no
tracing code.  Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; untraced runs execute the original objects.

Every wrapped call becomes one span ``(name, start, end, parent, run)``.
Spans are kept in memory and written as JSONL when the run ends.  A span's
*self time* is its duration minus the durations of its direct children;
calls are single-threaded and strictly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Span name -> the layer (``repro`` module) it belongs to, by name prefix.
LAYER_OF_PREFIX = {
    "adversary.": "adversary",
    "core.": "core",
    "expanders.": "expanders",
    "ghost.": "core.ghost",
    "trackers.": "analysis.trackers",
    "harness.": "harness",
    "perf.": "perf",
    "scenarios.": "scenarios",
}
LAYERS = tuple(LAYER_OF_PREFIX.values())


def layer_of(name: str) -> str | None:
    """Return the layer a span name belongs to (``None`` for benchmark spans)."""
    for prefix, layer in LAYER_OF_PREFIX.items():
        if name.startswith(prefix):
            return layer
    return None


#: (span name, module, attribute path) of every wrapped entry point.  A
#: dotted attribute path names a class attribute; a plain one a module
#: global, wrapped where its caller looks it up.
TARGETS = (
    ("adversary.next_events", "repro.adversary.base", "Adversary.next_events"),
    ("core.handle_deletion", "repro.core.healer", "SelfHealer.handle_deletion"),
    ("core.handle_insertion", "repro.core.healer", "SelfHealer.handle_insertion"),
    ("core.materialize", "repro.core.edgestore", "EdgeStore.to_networkx"),
    ("expanders.expander_or_clique", "repro.core.xheal", "expander_or_clique"),
    ("ghost.record", "repro.core.ghost", "GhostGraph.record_insertion"),
    ("ghost.record", "repro.core.ghost", "GhostGraph.record_deletion"),
    ("ghost.alive_subgraph", "repro.core.ghost", "GhostGraph.alive_subgraph"),
    ("trackers.observe_store", "repro.analysis.trackers", "DegreeRatioTracker.observe_store"),
    ("trackers.timeline_record", "repro.analysis.trackers", "MetricTimeline.record"),
    ("harness.run_experiment", "repro.scenarios.runner", "run_experiment"),
    ("perf.snapshot", "repro.perf.engine", "MetricsEngine.snapshot"),
    ("perf.cheeger_constant", "repro.perf.engine", "MetricsEngine.cheeger_constant"),
    ("perf.edge_expansion", "repro.perf.engine", "MetricsEngine.edge_expansion"),
    ("perf.algebraic_connectivity", "repro.perf.engine", "MetricsEngine.algebraic_connectivity"),
    ("perf.normalized_lambda2", "repro.perf.engine", "MetricsEngine.normalized_lambda2"),
    ("perf.stretch_summary", "repro.perf.engine", "MetricsEngine.stretch_summary"),
    ("perf.check_theorem2", "repro.perf.engine", "MetricsEngine.check_theorem2"),
    ("scenarios.spec.validate", "repro.scenarios.spec", "ScenarioSpec.validate"),
    ("scenarios.spec.compile", "repro.scenarios.spec", "ScenarioSpec.compile"),
    ("scenarios.spec.fingerprint", "repro.scenarios.spec", "ScenarioSpec.fingerprint"),
    ("scenarios.runner.execute_spec", "repro.scenarios.runner", "execute_spec"),
    ("scenarios.stream.record", "repro.scenarios.stream", "SweepStream.record"),
    ("scenarios.executors.execute", "repro.scenarios.executors", "SerialExecutor.execute"),
    ("scenarios.executors.execute", "repro.scenarios.executors", "ProcessPoolBackend.execute"),
    ("scenarios.executors.execute", "repro.scenarios.fleet", "SubprocessFleetExecutor.execute"),
)


class Tracer:
    """Records nested spans around wrapped calls, plus plain counters.

    ``on_result`` hooks (span name -> callable) see each wrapped call's
    return value, so exact counts can be taken from what a layer returns
    (e.g. every :class:`~repro.core.events.RepairReport`).
    """

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.on_result: dict[str, object] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so every call records one span named ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            hook = self.on_result.get(name)
            if hook is not None:
                hook(result)
            return result

        return traced

    def span(self, name: str):
        """Context manager recording one span around a block of benchmark code."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.index = len(tracer.spans)
                tracer.spans.append(
                    [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1]
                )
                tracer._stack.append(self.index)
                return self

            def __exit__(self, *exc_info):
                tracer.spans[self.index][2] = perf_counter()
                tracer._stack.pop()
                return False

        return _Span()

    # -- installing wrappers -----------------------------------------------

    def install(self) -> None:
        """Swap every :data:`TARGETS` entry point (and ``os.fsync``) for a wrapper."""
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        fsync = os.fsync

        def counted_fsync(fd):
            self.counters["fsyncs"] += 1
            return fsync(fd)

        self._restore.append((os, "fsync", fsync))
        os.fsync = counted_fsync

    def uninstall(self) -> None:
        """Restore every wrapped object (reverse order; idempotent)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: str | Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )


class Rollup:
    """Per-name aggregates of a span list: calls, durations, self times."""

    def __init__(self, spans):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, start, end, _) in enumerate(spans):
            self.durations[name].append(end - start)
            self.self_s[name] += (end - start) - child_s[index]

    def calls(self, name: str) -> int:
        """Return how many spans carry ``name``."""
        return len(self.durations.get(name, ()))

    def total_s(self, name: str) -> float:
        """Return the summed (inclusive) duration of ``name``'s spans."""
        return sum(self.durations.get(name, ()))

    def percentile_ms(self, name: str, q: int) -> float:
        """Return the ``q``-th percentile span duration of ``name`` in ms (0 if none)."""
        values = sorted(self.durations.get(name, ()))
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0] * 1e3
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3

    def layer_self_s(self) -> dict[str, float]:
        """Return summed self time per layer (benchmark spans excluded)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = layer_of(name)
            if layer is not None:
                totals[layer] += seconds
        return totals
