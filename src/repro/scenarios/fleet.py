"""The ``subprocess-fleet`` executor: leased worker subprocesses over pipes.

A coordinator leases N long-lived worker subprocesses (each running
:func:`worker_main` from this module) and speaks a JSONL task protocol with
each over its stdin/stdout pipe pair::

    coordinator -> worker   {"op": "run", "index": 3, "attempt": 0,
                             "spec": {...}}
    worker -> coordinator   {"op": "ready"}
                            {"op": "start", "index": 3, "attempt": 0,
                             "at": 5012.25}
                            {"op": "done", "index": 3, "attempt": 0,
                             "record": {...}, "wall_clock_s": 0.12}
                            {"op": "error", "index": 3, "attempt": 0,
                             "error": "ChaosError('...')"}
    coordinator -> worker   {"op": "shutdown"}

The coordinator is a transport over the same
:class:`~repro.scenarios.policy.PointScheduler` as the process pool, which
owns retries, backoff, deadlines and quarantine; the fleet spawns workers,
moves leased points and replies over the pipes, and reports how each lease
ended.  Each worker slot moves through the health states ``leased``
(spawned, awaiting its ready line) → ``ready`` → ``dead`` and, once ready,
holds a FIFO of up to :data:`LEASES_PER_SLOT` leased points, so the worker
runs its next point while the coordinator records the last one.  Points go
out level by level (:func:`_fill`): no worker gets another while a slot,
spawning ones included, holds fewer, and a point is queued behind a
running one only while more points wait than there are slots, so a short
sweep spreads over the whole fleet.  A worker runs its points in order
and writes a ``start`` line (``at`` is its ``time.monotonic()``) before
each, so the head of the FIFO is the point it runs and its timeout clock
starts there; a reply that does not name the head is a protocol error.
Death — pipe EOF, a kill, an injected chaos crash — charges exactly the
started point one attempt (attribution is exact, unlike the shared process
pool), requeues the worker's queued point uncharged at the front of the
queue, and respawns the slot; every other worker's points are untouched.
A worker still running past its point's ``policy.timeout_s`` deadline is
killed alone and its point charged a timeout attempt.  A worker that dies,
is killed or is shut down has both pipes closed and is reaped.

Workers hold no stream state: each runs the pool's work unit
:func:`~repro.scenarios.runner.execute_point` and replies with the
``(record, wall_clock_s)`` pair, which the coordinator hands to
``ctx.on_complete`` exactly as the pool does.  So the coordinator is the
only writer of a streamed sweep directory on every backend, and worker-side
faults keep exact parity with the pool's — same error ``repr`` strings, same
parent-side torn writes, same attempt accounting — so serial, pool and
fleet runs of one sweep are byte-identical after
:func:`~repro.scenarios.stream.strip_costs`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from queue import Empty, Queue

from repro.scenarios.policy import PointScheduler
from repro.scenarios.registry import register_executor
from repro.util.validation import require

#: Seconds a freshly spawned worker gets to print its ready line before the
#: slot is recycled (generous: a worker imports numpy/networkx on startup).
READY_TIMEOUT_S = 120.0

#: Consecutive pre-ready deaths of one worker slot before the fleet concludes
#: workers cannot start in this environment and raises instead of spinning.
MAX_SPAWN_FAILURES = 3

#: Points a ready worker holds: the one it runs and the next, so it never
#: idles for a result round trip.  A slot's points are committed to its
#: worker, and a deeper FIFO leaves more of them waiting behind a long point
#: while other workers run dry.  It pays only on millisecond points: on a
#: 2-vCPU x86-64 VM, 4 ran the 1-worker sweep-stream perfbench workload 4%
#: faster than 2 (medians of 10 pairs).
LEASES_PER_SLOT = 2

#: Worker health states.
LEASED, READY, DEAD = "leased", "ready", "dead"


class RemoteWorkerError(RuntimeError):
    """A failure reported over the wire by a fleet worker.

    Carries the worker-side exception's ``repr`` verbatim — and *is* that
    repr — so quarantine ledgers and manifest ``failed`` sections are
    byte-identical whether a fault fired in a pool worker (whose exception
    object crossed the pickle boundary) or in a fleet worker (whose repr
    crossed the pipe).
    """

    def __init__(self, error_repr: str):
        super().__init__(error_repr)
        self.error_repr = error_repr

    def __repr__(self) -> str:
        return self.error_repr


def _worker_env() -> dict:
    """Return the environment fleet workers inherit.

    The coordinator's environment propagates wholesale — that is what makes
    ``REPRO_CHAOS`` schedules reach workers with zero plumbing — plus the
    directory this very ``repro`` package was imported from is prepended to
    ``PYTHONPATH``, so workers resolve the same code even when the parent
    imported it via ``sys.path`` manipulation rather than an install.
    """
    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


class _Worker:
    """One worker slot: a subprocess, its health state, its leased points."""

    def __init__(self, slot: int):
        self.slot = slot
        self.state = DEAD
        self.process: subprocess.Popen | None = None
        self.leases: deque = deque()  # the scheduler's Leases sent, the running one first
        self.ready_deadline: float | None = None
        self.spawn_failures = 0


def _pump(slot: int, process: subprocess.Popen, events: Queue) -> None:
    """Reader thread: forward one worker's stdout lines, then its EOF.

    The thread is the pipe's only reader, so it closes the pipe after EOF.
    """
    with process.stdout:
        try:
            for line in process.stdout:
                events.put((slot, process, "line", line))
        except Exception:  # pragma: no cover - pipe torn down mid-read
            pass
    events.put((slot, process, "eof", None))


def _reap(process: subprocess.Popen, kill: bool = False) -> None:
    """Close a worker's stdin and wait for it to exit, killing it first if asked.

    A closed stdin ends the worker's serve loop, so a worker still running
    after the grace period is killed.  Idempotent: a reaped worker returns at
    once.  Its stdout is closed by its reader thread (:func:`_pump`).
    """
    if kill:
        process.kill()
    try:
        process.stdin.close()
    except OSError:  # the flush hit a pipe the worker already closed
        pass
    try:
        process.wait(timeout=5)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def _fill(fleet: dict, scheduler: PointScheduler, send) -> None:
    """Lease points to the fleet's slots level by level, the emptiest live slot first.

    No worker gets another point while a live slot holds fewer, and a
    spawning slot counts as holding none, so the workers that report ready
    first do not take the points of a short sweep from the rest.  A slot
    holds at most :data:`LEASES_PER_SLOT` points, and a point is queued
    behind a running one only while more points wait than there are live
    slots: the last points of a sweep, and every point of a short one, go
    to whichever worker frees up first.
    """
    live = [worker for worker in fleet.values() if worker.state != DEAD]
    while live:
        worker = min(live, key=lambda slot: (len(slot.leases), slot.state != READY))
        if worker.state != READY or len(worker.leases) >= LEASES_PER_SLOT:
            return
        if worker.leases and scheduler.queued() <= len(live):
            return
        lease = scheduler.lease()
        if lease is None:
            return
        send(worker, lease)


@register_executor("subprocess-fleet", aliases=("fleet",))
class SubprocessFleetExecutor:
    """Coordinator for a fleet of leased worker subprocesses."""

    name = "subprocess-fleet"

    def execute(self, ctx) -> None:
        from repro.scenarios.runner import RunRecord

        spec_list = ctx.spec_list
        scheduler = PointScheduler(
            spec_list, ctx.indices, ctx.policy, ctx.on_complete, ctx.on_quarantine
        )
        if scheduler.done:
            return
        events: Queue = Queue()

        # Importing the module by its canonical name (rather than running it
        # as __main__ via -m) keeps the worker's registry seeing exactly one
        # SubprocessFleetExecutor class when it later resolves components.
        worker_cmd = [
            sys.executable,
            "-c",
            "from repro.scenarios.fleet import worker_main; "
            "raise SystemExit(worker_main())",
        ]

        def spawn(worker: _Worker) -> None:
            worker.process = subprocess.Popen(
                worker_cmd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=_worker_env(),
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
            worker.state = LEASED
            worker.ready_deadline = time.monotonic() + READY_TIMEOUT_S
            threading.Thread(
                target=_pump, args=(worker.slot, worker.process, events), daemon=True
            ).start()

        def retire(worker: _Worker, kill: bool = True) -> list:
            """Mark a worker dead and reap it (killing it first); return its leases."""
            leases = list(worker.leases)
            worker.state = DEAD
            worker.leases.clear()
            if worker.process is not None:
                _reap(worker.process, kill=kill)
            return leases

        def respawn(worker: _Worker) -> None:
            if not scheduler.done:
                spawn(worker)

        def send(worker: _Worker, lease) -> None:
            """Queue one leased point on a ready worker; on a dead pipe, let EOF handle it."""
            task = {
                "op": "run",
                "index": lease.index,
                "attempt": lease.attempt,
                "spec": spec_list[lease.index].to_dict(),
            }
            worker.leases.append(lease)
            try:
                worker.process.stdin.write(json.dumps(task) + "\n")
                worker.process.stdin.flush()
            except (BrokenPipeError, OSError, ValueError):
                # The worker died holding its leases; its EOF event (already
                # queued or imminent) settles them and respawns.
                pass

        def on_death(worker: _Worker) -> None:
            """EOF from a worker: reap it, charge its started point, release the rest."""
            was = worker.state
            leases = retire(worker, kill=False)
            if was == LEASED:
                worker.spawn_failures += 1
                require(
                    worker.spawn_failures < MAX_SPAWN_FAILURES,
                    f"fleet worker slot {worker.slot} died {worker.spawn_failures} "
                    f"times before becoming ready; workers cannot start "
                    f"(is repro.scenarios.fleet importable by {sys.executable}?)",
                )
            for lease in scheduler.release_unstarted(leases):
                scheduler.die(lease)
            respawn(worker)

        def on_violation(worker: _Worker, what: str) -> None:
            """Kill a worker that broke the protocol; charge its point, release the rest."""
            leases = retire(worker)
            if leases:
                scheduler.requeue(leases[1:])  # only the head can have started
                scheduler.fail(
                    leases[0],
                    RemoteWorkerError(f"RuntimeError('worker {worker.slot} sent {what}')"),
                )
            respawn(worker)

        def on_message(worker: _Worker, line: str) -> None:
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                on_violation(worker, "an undecodable protocol line")
                return
            op = message.get("op") if isinstance(message, dict) else None
            if op == "ready":
                worker.spawn_failures = 0
                worker.ready_deadline = None
                if worker.state == LEASED:
                    worker.state = READY
                return
            if op not in ("start", "done", "error"):
                return  # stray chatter; harmless
            head = worker.leases[0] if worker.leases else None
            named = (message.get("index"), message.get("attempt"))
            if head is None or named != (head.index, head.attempt):
                on_violation(
                    worker, f"a {op} line for point {named[0]} attempt {named[1]} out of turn"
                )
                return
            if op == "start":
                scheduler.start(head.seq, message["at"])
                return
            worker.leases.popleft()
            if op == "error":
                scheduler.fail(head, RemoteWorkerError(str(message.get("error"))))
            else:
                record = RunRecord.from_dict(message["record"])
                scheduler.finish(head, (record, message["wall_clock_s"]))

        fleet = {
            slot: _Worker(slot) for slot in range(max(1, min(ctx.workers, len(ctx.indices))))
        }
        try:
            for worker in fleet.values():
                spawn(worker)
            while not scheduler.done:
                _fill(fleet, scheduler, send)
                # Sleep until the next actionable instant: a worker message,
                # a lease deadline, a backoff expiry, or a spawn deadline.
                wakeups = [
                    max(0.0, worker.ready_deadline - time.monotonic())
                    for worker in fleet.values()
                    if worker.state == LEASED
                ]
                wait_s = scheduler.wait_s()
                if wait_s is not None:
                    wakeups.append(wait_s)
                batch = []
                try:
                    batch.append(events.get(timeout=min(wakeups) if wakeups else None))
                except Empty:
                    pass
                while True:
                    try:
                        batch.append(events.get_nowait())
                    except Empty:
                        break
                for slot, process, kind, payload in batch:
                    worker = fleet[slot]
                    if worker.process is not process:
                        continue  # an event from a slot's previous, replaced worker
                    if kind == "eof":
                        on_death(worker)
                    else:
                        on_message(worker, payload)
                # Enforce deadlines: a worker past its running point's deadline
                # is killed alone, its point charged a timeout attempt and its
                # queued points released.
                overdue = scheduler.overdue()
                now = time.monotonic()
                for worker in fleet.values():
                    if worker.leases and worker.leases[0] in overdue:
                        for lease in scheduler.release_unstarted(retire(worker)):
                            scheduler.expire(lease)
                        respawn(worker)
                    elif worker.state == LEASED and worker.ready_deadline <= now:
                        worker.spawn_failures += 1
                        retire(worker)
                        require(
                            worker.spawn_failures < MAX_SPAWN_FAILURES,
                            f"fleet worker slot {worker.slot} failed to become "
                            f"ready within {READY_TIMEOUT_S}s, "
                            f"{worker.spawn_failures} time(s)",
                        )
                        spawn(worker)
        except KeyboardInterrupt:
            for worker in fleet.values():
                retire(worker)
            raise
        finally:
            self._shutdown(fleet)

    @staticmethod
    def _shutdown(fleet: dict) -> None:
        """Ask every idle live worker to exit, kill any still holding points, reap each."""
        for worker in fleet.values():
            process = worker.process
            if process is None or process.poll() is not None:
                continue
            if worker.leases:
                process.kill()  # abandoned points queued behind the shutdown line
                continue
            try:
                process.stdin.write('{"op": "shutdown"}\n')
                process.stdin.flush()
            except OSError:  # it died since the poll; reaping covers it
                pass
        for worker in fleet.values():
            if worker.process is not None:
                _reap(worker.process)


# -- worker side ---------------------------------------------------------------


def _execute_task(task: dict) -> dict:
    """Run one leased point through the pool's work unit; return the reply.

    :func:`~repro.scenarios.runner.execute_point` runs the chaos shim first,
    so faults keep parity with the pool branch by branch: ``crash`` exits the
    process (the coordinator sees EOF, exactly like ``BrokenProcessPool``),
    ``hang`` sleeps into the lease's timeout, and ``raise`` lands in the
    error reply carrying the exception's ``repr``.
    """
    from repro.scenarios.runner import execute_point
    from repro.scenarios.spec import ScenarioSpec

    index, attempt = task["index"], task["attempt"]
    try:
        record, wall_clock_s = execute_point(ScenarioSpec.from_dict(task["spec"]), attempt)
    except KeyboardInterrupt:
        raise
    except BaseException as error:
        return {"op": "error", "index": index, "attempt": attempt, "error": repr(error)}
    return {
        "op": "done",
        "index": index,
        "attempt": attempt,
        "record": record.to_dict(),
        "wall_clock_s": wall_clock_s,
    }


def worker_main() -> int:
    """The worker process: serve leased tasks over stdin/stdout until shutdown."""
    # The JSONL protocol owns fd 1.  Re-point sys.stdout at stderr so stray
    # prints from scenario code cannot corrupt the protocol stream.
    with os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1) as protocol:
        sys.stdout = sys.stderr

        def reply(message: dict) -> None:
            protocol.write(json.dumps(message, sort_keys=True) + "\n")
            protocol.flush()

        reply({"op": "ready"})
        for line in sys.stdin:
            if not line.strip():
                continue
            try:
                task = json.loads(line)
            except json.JSONDecodeError:
                reply(
                    {
                        "op": "error",
                        "error": f"RuntimeError('undecodable task line: {line[:60]!r}')",
                    }
                )
                continue
            op = task.get("op") if isinstance(task, dict) else None
            if op == "shutdown":
                break
            if op != "run":
                reply({"op": "error", "error": f"RuntimeError('unknown op: {op!r}')"})
                continue
            # Before the point, chaos shim included: a hang counts against the timeout.
            reply(
                {
                    "op": "start",
                    "index": task["index"],
                    "attempt": task["attempt"],
                    "at": time.monotonic(),
                }
            )
            reply(_execute_task(task))
    return 0
