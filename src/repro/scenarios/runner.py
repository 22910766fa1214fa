"""Scenario execution: single runs, parallel sweeps, portable run records.

:func:`run_scenarios` executes independent scenarios (typically a
:meth:`~repro.scenarios.sweep.SweepSpec.expand` grid) either inline or across
a :class:`~concurrent.futures.ProcessPoolExecutor`.  Determinism is by
construction:

* every spec's seeds are fixed at expansion time (nothing about execution
  order or worker placement feeds any RNG), and
* results are assembled by submission index, not completion order,

so ``workers=4`` returns byte-identical records to ``workers=1``.

What crosses the process boundary is a :class:`RunRecord` — the JSON-safe
projection of an :class:`~repro.harness.experiment.ExperimentResult` (spec,
summary row, timeline rows, adversarial trace, cache stats) — rather than
the result object itself, which drags whole graphs along.  The record is
also exactly what :mod:`repro.scenarios.artifacts` persists to JSONL.

Execution is additionally *self-healing*: a
:class:`~repro.scenarios.policy.PointPolicy` bounds each point's wall clock
and grants it retries, and the :class:`~repro.scenarios.policy.PointScheduler`
behind every backend charges each failure — a worker process dying, a point
hanging past its timeout, or a poison exception that cannot cross the
process boundary — to the culpable point only, re-queueing in-flight
innocents uncharged; a point that exhausts ``max_retries`` is quarantined
(streamed runs record it durably in ``failures.jsonl`` and keep going;
buffered runs flush every already-completed point, then re-raise).  The
process-pool transport (:func:`_run_pooled`) lives here, next to the work
unit it ships.  Because artifact bytes are a pure function of the spec,
re-running an innocent point is always safe.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.adversary.base import AdversaryEvent, EventType
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.scenarios.policy import PointPolicy, PointScheduler
from repro.scenarios.spec import ScenarioSpec
from repro.util.validation import Document, require, require_in


def event_to_dict(event: AdversaryEvent) -> dict:
    """Serialize one adversarial event to a JSON-safe dict."""
    return {
        "type": event.type.value,
        "node": event.node,
        "neighbors": list(event.neighbors),
    }


@dataclass(frozen=True)
class ChurnEvent(Document):
    """A churn-trace line, or an artifact ``event`` line's data (which has no ``step``)."""

    type: str
    node: int
    neighbors: list[int] = field(default_factory=list)
    step: int | None = None

    def validate(self) -> "ChurnEvent":
        require_in(self.type, ("insert", "delete"), "type")
        return self

    def event(self) -> AdversaryEvent:
        """Return the event this line records."""
        return AdversaryEvent(EventType(self.type), self.node, tuple(self.neighbors))


@dataclass(frozen=True)
class TimelineRow(Document):
    """An artifact ``timeline`` line's data: one row of :func:`timeline_rows`.

    ``healed`` and ``ghost`` are snapshot objects; their values, and the
    degree ratio, may be non-finite, so no field checks them.
    """

    timestep: int
    worst_degree_ratio: object
    healed: dict
    ghost: dict


def timeline_rows(result: ExperimentResult) -> list[dict]:
    """Flatten a result's metric timeline into JSON-safe rows."""
    rows: list[dict] = []
    for entry in result.timeline.entries:
        rows.append(
            {
                "timestep": entry.timestep,
                "worst_degree_ratio": entry.worst_degree_ratio,
                "healed": entry.healed.as_dict(),
                "ghost": entry.ghost.as_dict(),
            }
        )
    return rows


@dataclass(frozen=True)
class RunRecord:
    """The portable, JSON-safe outcome of one scenario run.

    Everything here survives ``to_dict -> JSON -> from_dict`` exactly, which
    is what makes run artifacts replayable and sweep results mergeable across
    worker processes.
    """

    spec: ScenarioSpec
    summary: dict
    timeline: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    cache_stats: dict = field(default_factory=dict)

    @classmethod
    def from_result(cls, spec: ScenarioSpec, result: ExperimentResult) -> "RunRecord":
        """Project an experiment result down to its portable record."""
        return cls(
            spec=spec,
            summary=dict(result.summary_row()),
            timeline=timeline_rows(result),
            trace=[event_to_dict(event) for event in result.trace],
            cache_stats=dict(result.cache_stats),
        )

    def events(self) -> list[AdversaryEvent]:
        """Return the recorded adversarial trace as event objects."""
        return [ChurnEvent.from_dict(data).event() for data in self.trace]

    def to_dict(self) -> dict:
        """Return the record as one plain dict (see also the JSONL artifact)."""
        return {
            "spec": self.spec.to_dict(),
            "summary": self.summary,
            "timeline": self.timeline,
            "trace": self.trace,
            "cache_stats": self.cache_stats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            summary=dict(data["summary"]),
            timeline=list(data.get("timeline", [])),
            trace=list(data.get("trace", [])),
            cache_stats=dict(data.get("cache_stats", {})),
        )


def execute_spec(spec: ScenarioSpec) -> RunRecord:
    """Compile and run one scenario; return its :class:`RunRecord`.

    This is the unit of work :func:`run_scenarios` ships to worker
    processes, so it must stay importable at module top level (picklable by
    reference) and must return only portable data.
    """
    result = run_experiment(spec.compile())
    return RunRecord.from_result(spec, result)


def execute_spec_timed(spec: ScenarioSpec) -> tuple[RunRecord, float]:
    """Run one scenario and measure its wall clock *in the executing process*.

    Every backend runs points through this, so the ``wall_clock_s`` that
    rides alongside each record measures the point's own execution, not
    queueing or transfer time.  The timing never enters the
    :class:`RunRecord` (artifact bytes stay a pure function of the spec);
    streamed runs record it in the stream index, buffered runs drop it.
    """
    start = time.perf_counter()
    record = execute_spec(spec)
    return record, time.perf_counter() - start


def execute_point(spec: ScenarioSpec, attempt: int = 0) -> tuple[RunRecord, float]:
    """The work unit pool and fleet workers run: chaos shim, then the timed scenario.

    ``attempt`` numbers retries of one point (0 = first try); it feeds only
    the fault-injection schedule, never the scenario itself, so every
    attempt that completes returns identical bytes.  An injected hang sleeps
    *before* the timer starts, so ``wall_clock_s`` still measures the
    point's own execution.
    """
    from repro.scenarios.chaos import active_chaos, apply_worker_chaos

    if active_chaos() is not None:
        apply_worker_chaos(spec.fingerprint(), attempt)
    return execute_spec_timed(spec)


#: A pool worker's start-stamp queue, installed by :func:`_install_stamps`.
_stamps = None


def _install_stamps(stamps) -> None:
    """Pool initializer: keep the pool's start-stamp queue for :func:`_start_point`."""
    global _stamps
    _stamps = stamps


def _start_point(seq: int, spec: ScenarioSpec, attempt: int) -> tuple[RunRecord, float]:
    """The pool task: stamp lease ``seq`` started, then run :func:`execute_point`.

    The stamp comes first, so an injected hang counts against the timeout.
    """
    _stamps.put((seq, time.monotonic()))
    return execute_point(spec, attempt)


def build_pool(workers: int):
    """Construct a worker pool and its start-stamp queue; return both.

    The single pool-construction site: initial setup, post-crash respawn and
    timeout recovery all come through here, so pool configuration (worker
    count clamping, a future ``mp_context`` choice) cannot drift between the
    happy path and the recovery paths.  Every pool gets a fresh queue: a
    worker killed while putting a stamp dies holding the queue's write lock.
    """
    stamps = multiprocessing.SimpleQueue()
    pool = ProcessPoolExecutor(
        max_workers=max(1, workers), initializer=_install_stamps, initargs=(stamps,)
    )
    return pool, stamps


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's worker processes and abandon its futures.

    Used to enforce point timeouts (there is no cooperative way to stop a
    worker stuck in native code) and to tear down on interrupt.  Reaches
    into ``_processes`` deliberately — it is the only handle the executor
    exposes to its children — and degrades to a plain non-blocking shutdown
    if a future Python version renames it.
    """
    processes = list(getattr(pool, "_processes", {}).values() or ())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead children
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for process in processes:
        try:
            process.join(timeout=5)
        except Exception:  # pragma: no cover - defensive
            pass


def run_scenarios(
    specs: Iterable[ScenarioSpec] | Sequence[ScenarioSpec],
    workers: int = 1,
    stream_to: str | Path | None = None,
    resume: str | Path | None = None,
    compress: bool | None = None,
    policy: PointPolicy | None = None,
    retry_failed: bool = False,
    executor: str | None = None,
    check_resume: Callable[[list], None] | None = None,
):
    """Run every scenario, buffered in memory or streamed to a directory.

    ``workers=1`` executes inline (no subprocesses — simplest to debug and
    profile); ``workers>1`` fans the specs out over a process pool.  Each
    spec is validated up front so a typo in point 37 of a grid fails fast,
    before any work is scheduled.

    ``executor`` names a registered execution backend (``serial``,
    ``process-pool``, ``subprocess-fleet``, or a third-party
    ``repro.executors`` entry point — see
    :mod:`repro.scenarios.executors`); ``None`` keeps the automatic
    inline-vs-pool choice above.  Backends change only *where* points
    execute, never what they produce: artifact bytes and (cost-stripped)
    manifests are identical across every backend.

    Without ``stream_to``/``resume`` the call returns ``list[RunRecord]`` in
    spec order — every record buffered in memory, as before.

    ``stream_to=<dir>`` instead durably appends each finished point to the
    directory as it completes (JSONL artifact + fsync'd index line, in
    completion order — see :mod:`repro.scenarios.stream`), keeps at most the
    in-flight window of records in memory, writes a canonical
    ``MANIFEST.json`` at the end, and returns a
    :class:`~repro.scenarios.stream.StreamResult`.  ``compress=True`` gzip-
    encodes each streamed artifact (``.jsonl.gz``, deterministic bytes — a
    decompressed compressed directory equals the uncompressed one exactly);
    readers sniff, so nothing downstream needs to be told.  ``resume=<dir>``
    streams to the same directory but first fingerprints every spec and
    skips the points the directory already records, executing exactly the
    missing ones; compression is auto-detected from the directory, the
    recorded ``wall_clock_s`` costs schedule the missing points
    most-expensive-first (so parallel resumes finish sooner), and serial,
    parallel and crash-resumed runs of the same spec list produce
    byte-identical artifacts (and manifests, modulo the cost columns).

    ``policy`` bounds each point's execution (timeout, retries, backoff —
    see :class:`~repro.scenarios.policy.PointPolicy`).  An active policy
    routes execution through the process pool even with ``workers=1``,
    because timeouts are enforced by killing the overrunning worker.  In a
    streamed run, a point that exhausts its retries is *quarantined*: its
    failure is appended durably to ``failures.jsonl``, the sweep carries on,
    and ``MANIFEST.json`` gains a ``failed`` section — degraded, never
    silently wrong.  In a buffered run the original exception re-raises
    (after every already-completed point was delivered).  ``resume=`` skips
    previously quarantined points by default; ``retry_failed=True``
    re-offers them with a fresh attempt budget.

    ``check_resume(entries)`` sees every index entry a resumed directory
    records, from the same single read of its index that finds the completed
    points, before any point runs; it raises to refuse the resume (the CLI
    checks the replicate count this way).
    """
    spec_list = list(specs)
    require(workers >= 1, "workers must be at least 1")
    for spec in spec_list:
        spec.validate()
    require(
        compress is None or stream_to is not None or resume is not None,
        "compress only applies to streamed sweeps; pass stream_to=<dir> or resume=<dir>",
    )
    require(
        not retry_failed or resume is not None,
        "retry_failed only applies when resuming; pass resume=<dir>",
    )
    policy = (policy or PointPolicy()).validate()
    if stream_to is None and resume is None:
        from repro.scenarios.executors import ExecutionContext, resolve_executor

        backend = resolve_executor(executor, workers, len(spec_list))
        records: list[RunRecord | None] = [None] * len(spec_list)

        def on_complete(index: int, payload: tuple[RunRecord, float], attempt: int) -> None:
            records[index] = payload[0]

        backend.execute(
            ExecutionContext(
                spec_list=spec_list,
                indices=range(len(spec_list)),
                workers=workers,
                policy=policy,
                on_complete=on_complete,
            )
        )
        return records  # type: ignore[return-value]
    return _run_streamed(
        spec_list,
        workers,
        stream_to,
        resume,
        compress,
        policy,
        retry_failed,
        executor,
        check_resume,
    )


#: Points per worker the process pool keeps submitted, so no worker idles
#: for a result round trip.  Its workers draw them from one shared queue, so
#: the window commits no point to a worker; on a 2-vCPU x86-64 VM, 4 ran
#: the 1-worker sweep-stream perfbench workload 9% faster than 2.
LEASES_PER_WORKER = 4


def _run_pooled(ctx) -> None:
    """The process-pool transport over a :class:`PointScheduler`.

    Submits :func:`_start_point` per lease, which stamps the lease started on
    the pool's start-stamp queue and runs ``execute_point(spec, attempt)``,
    and reports how each lease ended; the scheduler owns retries, backoff and
    quarantine.  A lease's timeout clock runs from its stamp, so
    :data:`LEASES_PER_WORKER` leases per worker stay in flight with or
    without a timeout, and no worker idles for a result round trip between
    points.  The parent reads the stamps before it looks for overdue leases
    and before it charges a broken pool.  The executor cannot say which
    worker died holding which point, so a broken pool charges the started,
    unfinished leases (exact for ``workers=1``) and requeues the rest.  A
    stuck worker has no cooperative stop, so a timeout kills the whole pool:
    the overdue leases are charged and the innocents requeued.
    """
    spec_list = ctx.spec_list
    workers = max(1, ctx.workers)
    scheduler = PointScheduler(
        spec_list, ctx.indices, ctx.policy, ctx.on_complete, ctx.on_quarantine
    )
    futures: dict = {}  # future -> lease
    pool, stamps = build_pool(workers)

    def submit() -> bool:
        """Lease points until every worker holds its share; False if the pool broke."""
        while len(futures) < LEASES_PER_WORKER * workers:
            lease = scheduler.lease()
            if lease is None:
                return True
            try:
                spec = spec_list[lease.index]
                future = pool.submit(_start_point, lease.seq, spec, lease.attempt)
            except BrokenExecutor:
                scheduler.release(lease)  # it never reached a worker
                return False
            futures[future] = lease
        return True

    def drain() -> None:
        """Pass every start stamp the workers put so far to the scheduler."""
        while not stamps.empty():
            scheduler.start(*stamps.get())

    def collect(done) -> dict:
        """Settle the finished and failed futures of ``done``; return the broken ones' errors."""
        finished, failed, broken = [], [], {}
        for future in done:
            lease = futures.pop(future)
            try:
                finished.append((lease, future.result()))
            except BrokenExecutor as error:
                broken[lease] = error
            except Exception as error:
                failed.append((lease, error))
        scheduler.settle(finished, failed)
        return broken

    def replace_pool() -> None:
        """Kill the pool and its queued futures; build a new pool and stamp queue."""
        nonlocal pool, stamps
        _kill_pool(pool)
        futures.clear()
        stamps.close()
        pool, stamps = build_pool(workers)

    def respawn(broken: dict) -> None:
        """Replace a broken pool; charge the started, unfinished leases, release the rest."""
        drain()
        broken.update(collect([future for future in futures if future.done()]))
        replace_pool()
        for lease in scheduler.release_unstarted(scheduler.leased()):
            if lease in broken:
                scheduler.fail(lease, broken[lease])
            else:
                scheduler.die(lease)

    try:
        while not scheduler.done:
            if not submit():
                respawn({})
                continue
            if not futures:
                # Everything left is waiting out a backoff delay.
                time.sleep(scheduler.wait_s())
                continue
            done, _ = wait(futures, timeout=scheduler.wait_s(), return_when=FIRST_COMPLETED)
            broken = collect(done)
            if broken:
                respawn(broken)
                continue
            drain()
            overdue = scheduler.overdue()
            if overdue:
                replace_pool()
                scheduler.requeue([lease for lease in scheduler.leased() if lease not in overdue])
                for lease in overdue:
                    scheduler.expire(lease)
        pool.shutdown(wait=True)
    except KeyboardInterrupt:
        _kill_pool(pool)
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        stamps.close()


def _run_streamed(
    spec_list, workers, stream_to, resume, compress, policy, retry_failed, executor, check_resume
):
    """The ``stream_to``/``resume`` execution path of :func:`run_scenarios`."""
    from repro.scenarios.chaos import PointFault, active_chaos, chaos_decision, tear_artifact
    from repro.scenarios.executors import ExecutionContext, resolve_executor
    from repro.scenarios.stream import (
        StreamResult,
        SweepStream,
        iter_all_index_entries,
        order_most_expensive_first,
        read_failures,
    )

    if resume is not None:
        require(
            stream_to is None or Path(stream_to) == Path(resume),
            "stream_to and resume must name the same directory when both are given",
        )
        stream_to = resume
    chaos = active_chaos()
    stream = SweepStream(stream_to, compress=compress)
    if resume is None:
        existing = stream.index_paths()
        require(
            not existing,
            f"{existing[0] if existing else stream.index_path} already exists; "
            f"pass resume=<dir> to continue that sweep, or stream to a fresh "
            f"directory",
        )
    fingerprints = [spec.fingerprint() for spec in spec_list]
    duplicated = sorted(fp for fp, count in Counter(fingerprints).items() if count > 1)
    require(
        not duplicated,
        f"streamed sweeps need distinct specs per point; duplicate fingerprints: "
        f"{[fp[:12] for fp in duplicated]}",
    )
    recorded = []
    if resume is not None:
        recorded = list(iter_all_index_entries(stream.directory))
        if check_resume is not None:
            check_resume(recorded)
    completed = stream.completed(recorded)
    failed_prior = read_failures(stream.directory, exclude=completed) if resume is not None else {}
    orphans = set(completed) - set(fingerprints)
    if orphans:
        # Loud, not fatal: resuming with a *changed* grid (extended axes) is
        # legitimate, but resuming with the wrong sweep file would otherwise
        # silently mix two sweeps — the orphan artifacts stay on disk while
        # MANIFEST.json (and hence `repro report`) covers only this grid.
        import warnings

        warnings.warn(
            f"{stream.directory} records {len(orphans)} point(s) that are not "
            f"part of this sweep (resumed with a different spec list?); their "
            f"artifacts remain on disk but are excluded from MANIFEST.json",
            RuntimeWarning,
            stacklevel=3,
        )
    todo = [
        index
        for index, fp in enumerate(fingerprints)
        if fp not in completed and (retry_failed or fp not in failed_prior)
    ]
    if completed and todo:
        # Schedule the missing points most-expensive-first (estimated from the
        # recorded costs of completed neighbors) so a parallel resume is not
        # left waiting on one straggler scheduled last.
        todo = order_most_expensive_first(spec_list, fingerprints, completed, todo)

    failed_now: dict[str, dict] = {}

    def record_point(index: int, payload: tuple[RunRecord, float], attempt: int = 0) -> None:
        record, wall_clock_s = payload
        if chaos is not None and chaos_decision(chaos, fingerprints[index], attempt) == "torn-write":
            tear_artifact(stream, index, record)
            raise PointFault(
                f"injected torn write for point {index} attempt {attempt}"
            )
        stream.record(index, record, wall_clock_s=wall_clock_s)

    def quarantine(index: int, attempts: int, error: BaseException) -> None:
        entry = stream.record_failure(index, spec_list[index], attempts, error)
        failed_now[fingerprints[index]] = entry

    with stream:
        backend = resolve_executor(executor, workers, len(todo))
        backend.execute(
            ExecutionContext(
                spec_list=spec_list,
                indices=todo,
                workers=workers,
                policy=policy,
                on_complete=record_point,
                on_quarantine=quarantine,
            )
        )
        manifest = stream.finalize(spec_list, verified=completed, failed=failed_prior)
    entries = manifest["entries"]
    executed = len(todo) - len(failed_now)
    return StreamResult(
        directory=stream.directory,
        paths=[stream.directory / entry["artifact"] for entry in entries],
        executed=executed,
        skipped=len(entries) - executed,
        failed=len(manifest["failed"]),
    )

