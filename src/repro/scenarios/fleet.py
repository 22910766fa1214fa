"""The ``subprocess-fleet`` executor: leased worker subprocesses over pipes.

A coordinator leases N long-lived worker subprocesses (each running
:func:`worker_main` from this module) and speaks a JSONL task protocol with
each over its stdin/stdout pipe pair::

    coordinator -> worker   {"op": "run", "index": 3, "attempt": 0,
                             "spec": {...}}
    worker -> coordinator   {"op": "ready"}
                            {"op": "done", "index": 3, "attempt": 0,
                             "record": {...}, "wall_clock_s": 0.12}
                            {"op": "error", "index": 3, "attempt": 0,
                             "error": "ChaosError('...')"}
    coordinator -> worker   {"op": "shutdown"}

The coordinator is a transport over the same
:class:`~repro.scenarios.policy.PointScheduler` as the process pool, which
owns retries, backoff, deadlines and quarantine; the fleet spawns workers,
moves leased points and replies over the pipes, and reports how each lease
ended.  Each worker slot holds at most one leased point and moves through
the health states ``leased`` (spawned, awaiting its ready line) → ``idle`` →
``busy`` → ``dead``.  Death — pipe EOF, a kill, an injected chaos crash —
charges exactly the worker's own point one attempt (attribution is exact,
unlike the shared process pool) and respawns the slot; every other
in-flight point is untouched.  A worker still busy past its lease's
``policy.timeout_s`` deadline is killed alone and its point charged a
timeout attempt; the lease starts when the point is sent to a ready worker,
so spawn time (bounded by its own ready deadline) never counts.  A worker
that dies, is killed or is shut down has both pipes closed and is reaped.

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
from pathlib import Path
from queue import Empty, Queue

from repro.scenarios.policy import PointScheduler
from repro.scenarios.registry import register_executor
from repro.util.validation import require

#: Seconds a freshly spawned worker gets to print its ready line before the
#: slot is recycled (generous: a worker imports numpy/scipy on startup).
READY_TIMEOUT_S = 120.0

#: Consecutive pre-ready deaths of one worker slot before the fleet concludes
#: workers cannot start in this environment and raises instead of spinning.
MAX_SPAWN_FAILURES = 3

#: Worker health states.
LEASED, IDLE, BUSY, DEAD = "leased", "idle", "busy", "dead"


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
    """One worker slot: a subprocess, its health state, its leased point."""

    def __init__(self, slot: int):
        self.slot = slot
        self.state = DEAD
        self.process: subprocess.Popen | None = None
        self.lease = None  # the scheduler's Lease this worker is running
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
            worker.lease = None
            worker.ready_deadline = time.monotonic() + READY_TIMEOUT_S
            threading.Thread(
                target=_pump, args=(worker.slot, worker.process, events), daemon=True
            ).start()

        def kill(worker: _Worker) -> None:
            worker.state = DEAD
            worker.lease = None
            if worker.process is not None:
                _reap(worker.process, kill=True)

        def respawn(worker: _Worker) -> None:
            if not scheduler.done:
                spawn(worker)

        def send(worker: _Worker, lease) -> None:
            """Hand one leased point to an idle worker; on a dead pipe, let EOF handle it."""
            task = {
                "op": "run",
                "index": lease.index,
                "attempt": lease.attempt,
                "spec": spec_list[lease.index].to_dict(),
            }
            worker.lease = lease
            worker.state = BUSY
            try:
                worker.process.stdin.write(json.dumps(task) + "\n")
                worker.process.stdin.flush()
            except (BrokenPipeError, OSError, ValueError):
                # The worker died holding the lease; its EOF event (already
                # queued or imminent) charges the point and respawns.
                pass

        def on_death(worker: _Worker) -> None:
            """EOF from a worker: reap it, charge its leased point, recycle the slot."""
            was, lease = worker.state, worker.lease
            worker.state = DEAD
            worker.lease = None
            _reap(worker.process)
            if was == LEASED:
                worker.spawn_failures += 1
                require(
                    worker.spawn_failures < MAX_SPAWN_FAILURES,
                    f"fleet worker slot {worker.slot} died {worker.spawn_failures} "
                    f"times before becoming ready; workers cannot start "
                    f"(is repro.scenarios.fleet importable by {sys.executable}?)",
                )
            if was == BUSY and lease is not None:
                scheduler.die(lease)
            respawn(worker)

        def on_message(worker: _Worker, line: str) -> None:
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                # A worker that corrupts its protocol stream is as good as
                # dead: kill it, charge its point, recycle the slot.
                lease = worker.lease
                kill(worker)
                if lease is not None:
                    scheduler.fail(
                        lease,
                        RemoteWorkerError(
                            f"RuntimeError('worker {worker.slot} sent an "
                            f"undecodable protocol line')"
                        ),
                    )
                respawn(worker)
                return
            op = message.get("op") if isinstance(message, dict) else None
            if op == "ready":
                worker.spawn_failures = 0
                worker.ready_deadline = None
                if worker.state == LEASED:
                    worker.state = IDLE
                return
            if op not in ("done", "error") or worker.lease is None:
                return  # stray chatter; harmless
            lease = worker.lease
            worker.lease = None
            worker.state = IDLE
            if op == "error":
                scheduler.fail(lease, RemoteWorkerError(str(message.get("error"))))
            else:
                record = RunRecord.from_dict(message["record"])
                scheduler.finish(lease, (record, message["wall_clock_s"]))

        fleet = {
            slot: _Worker(slot) for slot in range(max(1, min(ctx.workers, len(ctx.indices))))
        }
        try:
            for worker in fleet.values():
                spawn(worker)
            while not scheduler.done:
                for worker in fleet.values():
                    if worker.state == IDLE:
                        lease = scheduler.lease()
                        if lease is None:
                            break
                        send(worker, lease)
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
                # Enforce deadlines: a busy worker past its lease's deadline is
                # killed alone and its point charged a timeout attempt.
                overdue = scheduler.overdue()
                now = time.monotonic()
                for worker in fleet.values():
                    if worker.state == BUSY and worker.lease in overdue:
                        lease = worker.lease
                        kill(worker)
                        scheduler.expire(lease)
                        respawn(worker)
                    elif worker.state == LEASED and worker.ready_deadline <= now:
                        worker.spawn_failures += 1
                        kill(worker)
                        require(
                            worker.spawn_failures < MAX_SPAWN_FAILURES,
                            f"fleet worker slot {worker.slot} failed to become "
                            f"ready within {READY_TIMEOUT_S}s, "
                            f"{worker.spawn_failures} time(s)",
                        )
                        spawn(worker)
        except KeyboardInterrupt:
            for worker in fleet.values():
                kill(worker)
            raise
        finally:
            self._shutdown(fleet)

    @staticmethod
    def _shutdown(fleet: dict) -> None:
        """Ask every live worker to exit, then reap each; kill one that lingers."""
        for worker in fleet.values():
            process = worker.process
            if process is None or process.poll() is not None:
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
            reply(_execute_task(task))
    return 0
