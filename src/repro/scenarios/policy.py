"""Per-point execution guards for sweep runs, and the scheduler enforcing them.

A :class:`PointPolicy` bounds what one scenario point may cost the run:
``timeout_s`` caps one attempt's wall clock from the moment a worker starts
it, ``max_retries`` re-offers a failed point that many extra attempts, and
``backoff`` spaces the retries out.  The backoff *delay* is deterministic —
it is drawn from ``derive_seed(seed, "retry", fingerprint, attempt)``,
never from wall clock or a global RNG — so a resumed run facing the same
faults makes byte-identical retry decisions, which is what keeps the
fault-injection differential tests honest (see :mod:`repro.scenarios.chaos`).
One :class:`PointScheduler` enforces the policy under every executor backend.

The policy never enters a :class:`~repro.scenarios.spec.ScenarioSpec`
fingerprint: how hard the harness tries to execute a point is an
operational concern, not part of the point's identity, so toggling
retries on a resume still matches every recorded artifact.  It parses and
serializes as a :class:`~repro.util.validation.Document` (a sweep file's
``policy`` block is type-checked field by field); :meth:`PointPolicy.validate`
checks only the ranges.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.util.rng import derive_seed
from repro.util.validation import Document, require


@dataclass(frozen=True)
class PointPolicy(Document):
    """Execution limits applied to every point of a sweep.

    Attributes
    ----------
    timeout_s:
        Wall-clock budget for one attempt of one point, counted from the
        moment a worker starts it, or ``None`` for unlimited.  Enforcing a
        timeout kills the overrunning worker, so a policy with a timeout
        routes even ``workers=1`` serial runs through the process pool.
    max_retries:
        Extra attempts a failing point gets before it is quarantined
        (0 = fail on the first error, the pre-policy behavior).
    backoff:
        Base delay in seconds between attempts; attempt ``k`` waits about
        ``backoff * 2**k`` (with deterministic jitter).  0 retries
        immediately.
    """

    timeout_s: float | None = None
    max_retries: int = 0
    backoff: float = 0.0

    def validate(self) -> "PointPolicy":
        """Check ranges; return self for chaining."""
        require(
            self.timeout_s is None or self.timeout_s > 0,
            "timeout_s must be None or positive",
        )
        require(self.max_retries >= 0, "max_retries must be non-negative")
        require(self.backoff >= 0, "backoff must be non-negative")
        return self

    @property
    def active(self) -> bool:
        """Return whether this policy changes anything about execution."""
        return self.timeout_s is not None or self.max_retries > 0 or self.backoff > 0

    def retry_delay(self, seed: int, fingerprint: str, attempt: int) -> float:
        """Return the deterministic delay before re-running ``attempt + 1``.

        Exponential in the attempt number with jitter in ``[0.5, 1.5)``,
        drawn from the (seed, fingerprint, attempt) triple alone — two runs
        that retry the same point for the same attempt wait identically.
        """
        if self.backoff <= 0:
            return 0.0
        rng = random.Random(derive_seed(seed, "retry", fingerprint, attempt))
        return self.backoff * (2**attempt) * (0.5 + rng.random())

    def merged_with(
        self,
        timeout_s: float | None = None,
        max_retries: int | None = None,
        backoff: float | None = None,
    ) -> "PointPolicy":
        """Return a copy with every non-``None`` override applied (CLI flags)."""
        return PointPolicy(
            timeout_s=self.timeout_s if timeout_s is None else timeout_s,
            max_retries=self.max_retries if max_retries is None else max_retries,
            backoff=self.backoff if backoff is None else backoff,
        ).validate()


class Lease(NamedTuple):
    """One attempt of one point on a worker; ``seq`` is the lease order."""

    index: int
    attempt: int
    seq: int


class PointScheduler:
    """Which point runs next, and what a failure costs, for every backend.

    A state machine with an injected ``clock`` that never sleeps.  A point is
    queued, leased to a worker, done (delivered to ``on_complete``), waiting
    out a backoff after a charged attempt, or quarantined.  A released lease
    goes back to the queue uncharged.  Backends are transports: they
    :meth:`lease` points, relay each worker's report that it started one
    (:meth:`start`), and report how each lease ended (:meth:`settle`,
    :meth:`finish`, :meth:`fail`, :meth:`die`, :meth:`expire`,
    :meth:`release`, :meth:`requeue`).  A lease's deadline counts from its
    start, so a transport may queue several leases on a worker.  The
    scheduler owns the deadlines, the :meth:`PointPolicy.retry_delay`
    backoff, the canonical timeout and worker-death errors, and a point's
    last charge: ``on_quarantine(index, attempts, error)``, or re-raising
    the error when no quarantine sink is given (buffered runs).
    """

    def __init__(
        self,
        spec_list: Sequence,
        indices: Sequence[int],
        policy: PointPolicy | None,
        on_complete: Callable,
        on_quarantine: Callable | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.spec_list = spec_list
        self.policy = (policy or PointPolicy()).validate()
        self.on_complete = on_complete
        self.on_quarantine = on_quarantine
        self.clock = clock
        self._queue: deque = deque((index, 0) for index in indices)
        self._backoff: list = []  # heap of (ready_at, seq, index, next attempt)
        self._leased: dict[int, Lease] = {}  # seq -> lease, oldest first
        self._started: dict[int, float] = {}  # seq -> when its worker started it
        self._seq = 0

    @property
    def done(self) -> bool:
        """Return whether every point was delivered or quarantined."""
        return not (self._queue or self._backoff or self._leased)

    def leased(self) -> list[Lease]:
        """Return every lease in flight, oldest first."""
        return list(self._leased.values())

    def started(self, lease: Lease) -> bool:
        """Return whether a worker reported starting ``lease``."""
        return lease.seq in self._started

    def queued(self) -> int:
        """Return how many points are ready to lease now."""
        self._promote(self.clock())
        return len(self._queue)

    def lease(self) -> Lease | None:
        """Lease the next ready point to a worker, or return ``None``.

        The lease has no deadline until its worker reports starting it
        (:meth:`start`), so it may wait in the worker's queue.
        """
        self._promote(self.clock())
        if not self._queue:
            return None
        index, attempt = self._queue.popleft()
        self._seq += 1
        lease = Lease(index, attempt, self._seq)
        self._leased[lease.seq] = lease
        return lease

    def start(self, seq: int, at: float) -> None:
        """Record that a worker started lease ``seq`` at clock time ``at``.

        Its deadline is ``at + timeout_s``.  A lease that already ended (a
        late report) is ignored.
        """
        if seq in self._leased:
            self._started[seq] = at

    def wait_s(self) -> float | None:
        """Return the seconds until the next deadline or backoff expiry, if any.

        A backoff that expired since the last call is queued and makes this
        call return 0, once; a queued point is never a wakeup, so a transport
        whose slots are all busy sleeps instead of spinning.  Under a timeout,
        an unstarted lease caps the wait at ``timeout_s``: its worker may start
        it at any moment, and a transport that learns of the start late still
        wakes before the deadline.
        """
        now = self.clock()
        if self._promote(now):
            return 0.0
        timeout_s = self.policy.timeout_s
        instants = [self._backoff[0][0]] if self._backoff else []
        if timeout_s is not None:
            instants.extend(at + timeout_s for at in self._started.values())
            if len(self._started) < len(self._leased):
                instants.append(now + timeout_s)
        return max(0.0, min(instants) - now) if instants else None

    def _promote(self, now: float) -> bool:
        """Queue every point whose backoff is over; return whether there was one."""
        promoted = bool(self._backoff) and self._backoff[0][0] <= now
        while self._backoff and self._backoff[0][0] <= now:
            _, _, index, attempt = heapq.heappop(self._backoff)
            self._queue.append((index, attempt))
        return promoted

    def overdue(self) -> list[Lease]:
        """Return the started leases whose deadline has passed, oldest first."""
        timeout_s = self.policy.timeout_s
        if timeout_s is None:
            return []
        now = self.clock()
        return [
            lease
            for seq, lease in self._leased.items()
            if seq in self._started and self._started[seq] + timeout_s <= now
        ]

    def settle(self, finished=(), failed=()) -> None:
        """End a batch of leases: ``(lease, payload)`` and ``(lease, error)`` pairs.

        Payloads are delivered in index order before any failure is charged,
        so a re-raised failure never loses a result of the same batch.  A
        :class:`~repro.scenarios.chaos.PointFault` raised by ``on_complete``
        joins the failures, which are charged in index order: retried after
        the backoff, quarantined, or re-raised.
        """
        from repro.scenarios.chaos import PointFault

        for lease, _ in (*finished, *failed):
            del self._leased[lease.seq]
            self._started.pop(lease.seq, None)
        failures = list(failed)
        for lease, payload in sorted(finished, key=lambda pair: pair[0].index):
            try:
                self.on_complete(lease.index, payload, lease.attempt)
            except PointFault as error:
                failures.append((lease, error))
        for lease, error in sorted(failures, key=lambda pair: pair[0].index):
            index, attempt = lease.index, lease.attempt
            if attempt < self.policy.max_retries:
                spec = self.spec_list[index]
                delay = self.policy.retry_delay(spec.seed, spec.fingerprint(), attempt)
                if delay > 0:
                    ready_at = self.clock() + delay
                    heapq.heappush(self._backoff, (ready_at, lease.seq, index, attempt + 1))
                else:
                    self._queue.append((index, attempt + 1))
            elif self.on_quarantine is not None:
                self.on_quarantine(index, attempt + 1, error)
            else:
                raise error

    def finish(self, lease: Lease, payload) -> None:
        """Deliver one finished lease's payload."""
        self.settle(finished=[(lease, payload)])

    def fail(self, lease: Lease, error: BaseException) -> None:
        """Charge one lease's attempt with ``error``."""
        self.settle(failed=[(lease, error)])

    def die(self, lease: Lease) -> None:
        """Charge a lease whose worker died running it."""
        self.fail(lease, BrokenExecutor(f"worker died running point {lease.index}"))

    def expire(self, lease: Lease) -> None:
        """Charge a lease that overran its deadline (its worker is gone)."""
        self.fail(
            lease,
            TimeoutError(
                f"point {lease.index} exceeded timeout_s={self.policy.timeout_s} "
                f"on attempt {lease.attempt}"
            ),
        )

    def release(self, lease: Lease) -> None:
        """Re-queue an innocent lease's point, uncharged, behind the queue."""
        del self._leased[lease.seq]
        self._started.pop(lease.seq, None)
        self._queue.append((lease.index, lease.attempt))

    def requeue(self, leases: Sequence[Lease]) -> None:
        """Re-queue innocent leases' points, uncharged, in order at the front of the queue.

        They were next in line when leased, so a worker's death or kill does
        not push them behind the points queued since (a resume queues the
        most expensive points first).
        """
        for lease in leases:
            del self._leased[lease.seq]
            self._started.pop(lease.seq, None)
        self._queue.extendleft((lease.index, lease.attempt) for lease in reversed(leases))

    def release_unstarted(self, leases) -> list[Lease]:
        """Requeue every lease of ``leases`` no worker started; return the started rest.

        A worker that dies or is killed holds its started lease, which the
        transport then charges, and the queued ones it never began.
        """
        started = [lease for lease in leases if self.started(lease)]
        self.requeue([lease for lease in leases if not self.started(lease)])
        return started
