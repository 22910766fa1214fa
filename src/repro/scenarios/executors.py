"""Pluggable sweep execution backends (the ``executor`` registry).

:func:`~repro.scenarios.runner.run_scenarios` describes *what* to run — a
spec list, a retry policy, a completion sink — and an executor decides
*where and how* the points execute.  Backends live in the same
decorator/entry-point registry family as healers::

    @register_executor("my-backend")
    class MyBackend:
        def execute(self, ctx: ExecutionContext) -> None: ...

Three ship built in:

* ``serial`` — points run inline in this process, one at a time.  When a
  :class:`~repro.scenarios.policy.PointPolicy` or a ``REPRO_CHAOS`` schedule
  is active the backend delegates to the process pool instead, because
  timeouts are enforced by killing the overrunning worker and an injected
  crash fault must not take down the coordinating process.
* ``process-pool`` — a local :class:`concurrent.futures
  .ProcessPoolExecutor` (:func:`~repro.scenarios.runner._run_pooled`).
* ``subprocess-fleet`` (:mod:`repro.scenarios.fleet`) — a coordinator
  leasing long-lived worker subprocesses over a JSONL pipe protocol.

The pool and the fleet are transports over one
:class:`~repro.scenarios.policy.PointScheduler`, which owns retries,
backoff, deadlines and quarantine for both.  Every backend hands each
finished point to ``on_complete`` in the coordinating process, so the
coordinator is the only writer of a streamed sweep directory: its
artifacts, its one ``index.jsonl`` and its manifest.

Every backend produces byte-identical artifacts for the same spec list —
execution placement is operational, never part of a point's identity — so
``--executor`` can be switched freely between runs and resumes of one sweep.

Third-party backends register through the ``repro.executors`` entry-point
group (see :mod:`repro.scenarios.registry`) and are selected by name via
``run_scenarios(..., executor="name")``, ``SweepSpec(executor=...)`` or
``repro sweep --executor name``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.scenarios.policy import PointPolicy
from repro.scenarios.registry import EXECUTORS, register_executor


@dataclass
class ExecutionContext:
    """Everything a backend needs to execute one batch of points.

    ``indices`` selects the points of ``spec_list`` to execute (a resume
    passes only the missing ones).  ``on_complete(index, payload, attempt)``
    fires per finished point — the payload is a ``(record, wall_clock_s)``
    pair: the :class:`~repro.scenarios.runner.RunRecord` and the seconds the
    point took, measured where it ran — and may raise
    :class:`~repro.scenarios.chaos.PointFault` to convert a delivered result
    into a per-point failure.  ``on_quarantine(index, attempts, error)``
    receives points that exhausted ``policy.max_retries``; when it is
    ``None`` the backend must re-raise instead (buffered mode).  Both
    callbacks run in the coordinating process, which in a streamed run is
    the only writer of the sweep directory: workers never write to it.
    """

    spec_list: Sequence
    indices: Sequence[int]
    workers: int
    policy: PointPolicy
    on_complete: Callable
    on_quarantine: Callable | None = None


def resolve_executor(name: str | None, workers: int, points: int):
    """Return the backend instance a run should use.

    ``name=None`` keeps the historical automatic choice: inline serial
    execution for ``workers=1`` (or a batch of at most one point), the
    process pool otherwise.  Unknown names raise
    :class:`~repro.scenarios.registry.UnknownNameError` with a did-you-mean
    suggestion; registered classes are instantiated, instances are used
    as-is (an entry point may export either).
    """
    if name is None:
        name = "serial" if workers == 1 or points <= 1 else "process-pool"
    backend = EXECUTORS.get(name)
    return backend() if isinstance(backend, type) else backend


@register_executor("serial", aliases=("inline",))
class SerialExecutor:
    """Run every point inline, in submission order, in this process.

    The zero-infrastructure backend: no subprocesses to spawn, nothing to
    pickle, the easiest to debug and profile.  A point timeout or an active
    chaos schedule needs process isolation (killing a stuck worker, absorbing
    an injected crash), so those runs delegate to ``process-pool`` — which
    preserves the historical ``run_scenarios`` dispatch exactly.
    """

    name = "serial"

    def execute(self, ctx: ExecutionContext) -> None:
        from repro.scenarios.chaos import active_chaos
        from repro.scenarios.runner import execute_spec_timed

        if ctx.policy.active or active_chaos() is not None:
            ProcessPoolBackend().execute(ctx)
            return
        for index in ctx.indices:
            ctx.on_complete(index, execute_spec_timed(ctx.spec_list[index]), 0)


@register_executor("process-pool", aliases=("pool", "multiprocess"))
class ProcessPoolBackend:
    """Fan points out over a local :class:`ProcessPoolExecutor`.

    The parent stays the only stream writer: workers return
    ``(RunRecord, wall_clock_s)`` payloads over the pool's result pipe and
    the coordinator appends to the single ``index.jsonl``.  Survives worker
    death (pool respawn, the started points charged, the rest re-queued
    free) and enforces ``policy.timeout_s`` by killing the pool; retries and
    quarantine follow the shared scheduler.
    """

    name = "process-pool"

    def execute(self, ctx: ExecutionContext) -> None:
        from repro.scenarios.runner import _run_pooled

        _run_pooled(ctx)
