"""The point scheduler every executor backend runs on, under a fake clock.

:class:`~repro.scenarios.policy.PointScheduler` decides which point runs
next and what a failure costs; the backends are only transports.  These
tests drive it directly — no subprocess, no sleeping — so retry, backoff,
deadline and quarantine semantics are pinned once for every backend.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor

import pytest

from repro.scenarios import PointPolicy, ScenarioSpec
from repro.scenarios.chaos import PointFault
from repro.scenarios.policy import PointScheduler

SPECS = [
    ScenarioSpec(
        name=f"scheduler-{index}",
        healer="xheal",
        topology="random-regular",
        topology_kwargs={"n": 16, "degree": 4},
        timesteps=3,
        seed=index,
    )
    for index in range(3)
]


class FakeClock:
    """A settable clock: ``now`` moves only when a test moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Log:
    """Records every delivery and quarantine, in call order."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_complete(self, index, payload, attempt) -> None:
        self.events.append(("complete", index, attempt))

    def on_quarantine(self, index, attempts, error) -> None:
        self.events.append(("quarantine", index, attempts, repr(error)))


def make(policy: PointPolicy, points: int = 1, sink: bool = True):
    clock, log = FakeClock(), Log()
    scheduler = PointScheduler(
        SPECS[:points],
        range(points),
        policy,
        log.on_complete,
        log.on_quarantine if sink else None,
        clock=clock,
    )
    return scheduler, clock, log


def test_a_backoff_comes_from_retry_delay_and_holds_the_point_until_ready():
    policy = PointPolicy(max_retries=2, backoff=1.0)
    scheduler, clock, _ = make(policy)
    first = scheduler.lease()
    clock.now = 10.0
    scheduler.fail(first, RuntimeError("flaky"))
    delay = policy.retry_delay(SPECS[0].seed, SPECS[0].fingerprint(), 0)
    assert delay > 0
    assert scheduler.wait_s() == pytest.approx(delay)
    clock.now = 10.0 + delay * 0.999
    assert scheduler.lease() is None and not scheduler.done
    clock.now = 10.0 + delay
    retry = scheduler.lease()
    assert (retry.index, retry.attempt) == (0, 1)


def test_wait_s_is_the_minimum_of_the_next_deadline_and_the_next_backoff():
    policy = PointPolicy(timeout_s=4.0, max_retries=1, backoff=1.0)
    scheduler, clock, _ = make(policy, points=2)
    first, second = scheduler.lease(), scheduler.lease()
    scheduler.start(first.seq, 0.0)
    scheduler.start(second.seq, 0.0)
    assert scheduler.wait_s() == pytest.approx(4.0)  # only deadlines so far
    scheduler.fail(second, RuntimeError("flaky"))
    delay = policy.retry_delay(SPECS[1].seed, SPECS[1].fingerprint(), 0)
    assert delay < 4.0
    assert scheduler.wait_s() == pytest.approx(delay)  # the backoff is sooner
    clock.now = 2.0
    retry = scheduler.lease()  # the backoff has expired
    scheduler.start(retry.seq, 2.0)  # deadline 2 + 4
    assert retry.attempt == 1
    assert scheduler.wait_s() == pytest.approx(2.0)  # first's deadline is sooner
    scheduler.finish(first, "payload")
    assert scheduler.wait_s() == pytest.approx(4.0)
    scheduler.finish(retry, "payload")
    assert scheduler.wait_s() is None and scheduler.done


def test_an_expired_backoff_is_a_wakeup_once_and_never_while_it_waits_for_a_slot():
    policy = PointPolicy(timeout_s=10.0, max_retries=1, backoff=1.0)
    scheduler, clock, _ = make(policy, points=2)
    first, second = scheduler.lease(), scheduler.lease()
    scheduler.start(first.seq, 0.0)
    scheduler.fail(second, RuntimeError("flaky"))
    delay = policy.retry_delay(SPECS[1].seed, SPECS[1].fingerprint(), 0)
    clock.now = delay + 1.0  # the backoff is over, but every slot is busy: no lease()
    assert scheduler.wait_s() == 0.0  # lease it now if a slot is free
    assert scheduler.wait_s() == pytest.approx(10.0 - clock.now)  # then first's deadline
    assert scheduler.wait_s() == pytest.approx(10.0 - clock.now)
    scheduler.finish(first, "payload")
    assert scheduler.wait_s() is None  # a queued point is not a wakeup
    retry = scheduler.lease()
    assert (retry.index, retry.attempt) == (1, 1)


def test_an_expired_lease_is_charged_with_the_canonical_timeout_error():
    scheduler, clock, log = make(PointPolicy(timeout_s=1.5, max_retries=1), points=2)
    scheduler.start(scheduler.lease().seq, 0.0)
    clock.now = 1.0
    late = scheduler.lease()
    scheduler.start(late.seq, 1.0)
    scheduler.finish(scheduler.leased()[0], "payload")
    clock.now = 2.4
    assert scheduler.overdue() == []
    clock.now = 2.5
    assert scheduler.overdue() == [late]
    scheduler.expire(late)
    retry = scheduler.lease()
    assert (retry.index, retry.attempt) == (1, 1)
    scheduler.start(retry.seq, 2.5)
    clock.now = 4.0
    scheduler.expire(retry)
    assert log.events[-1] == (
        "quarantine",
        1,
        2,
        repr(TimeoutError("point 1 exceeded timeout_s=1.5 on attempt 1")),
    )


def test_an_unstarted_lease_is_never_overdue_and_caps_wait_s_at_the_timeout():
    scheduler, clock, _ = make(PointPolicy(timeout_s=2.0), points=2)
    first, second = scheduler.lease(), scheduler.lease()
    assert scheduler.wait_s() == pytest.approx(2.0)  # either may start any moment
    clock.now = 100.0
    assert scheduler.overdue() == []  # a queued lease never times out
    assert scheduler.wait_s() == pytest.approx(2.0)
    scheduler.start(first.seq, 99.5)
    assert scheduler.started(first) and not scheduler.started(second)
    assert scheduler.wait_s() == pytest.approx(1.5)  # first's deadline, 101.5
    scheduler.start(second.seq, 100.0)
    assert scheduler.wait_s() == pytest.approx(1.5)  # every lease started: no cap
    clock.now = 101.5
    assert scheduler.overdue() == [first]
    scheduler.expire(first)
    scheduler.start(first.seq, 101.5)  # a late report for an ended lease
    assert not scheduler.started(first)
    assert scheduler.wait_s() == pytest.approx(0.5)
    scheduler.finish(second, "payload")
    assert scheduler.wait_s() is None and scheduler.done


def test_without_a_timeout_leases_have_no_deadline_and_no_wakeup():
    scheduler, clock, _ = make(PointPolicy(), points=2)
    first, _ = scheduler.lease(), scheduler.lease()
    scheduler.start(first.seq, 0.0)
    clock.now = 1e9
    assert scheduler.overdue() == [] and scheduler.wait_s() is None


def test_release_unstarted_requeues_the_queued_leases_and_returns_the_started_one():
    scheduler, _, log = make(PointPolicy(), points=3)
    leases = [scheduler.lease() for _ in range(3)]
    scheduler.start(leases[1].seq, 0.0)
    assert scheduler.release_unstarted(leases) == [leases[1]]
    assert scheduler.leased() == [leases[1]] and log.events == []
    requeued = scheduler.lease(), scheduler.lease()
    assert [lease.index for lease in requeued] == [0, 2]
    assert not any(scheduler.started(lease) for lease in requeued)


def test_requeued_leases_go_back_in_order_ahead_of_the_points_still_queued():
    """A dead worker's queued points keep their place in the schedule (a
    resume queues the most expensive points first)."""
    scheduler, _, log = make(PointPolicy(), points=3)
    first, second = scheduler.lease(), scheduler.lease()
    scheduler.start(first.seq, 0.0)
    assert scheduler.release_unstarted([first, second]) == [first]
    assert scheduler.lease().index == 1
    scheduler.requeue([first, scheduler.leased()[1]])
    assert [scheduler.lease().index for _ in range(3)] == [0, 1, 2]
    assert log.events == [] and not any(scheduler.started(lease) for lease in scheduler.leased())


def test_a_dead_worker_charges_its_lease_the_canonical_broken_executor_error():
    scheduler, _, log = make(PointPolicy())
    scheduler.die(scheduler.lease())
    assert log.events == [
        ("quarantine", 0, 1, repr(BrokenExecutor("worker died running point 0")))
    ]


def test_a_release_requeues_behind_the_queue_without_a_charge():
    scheduler, _, log = make(PointPolicy(), points=2)
    innocent = scheduler.lease()
    scheduler.release(innocent)
    assert scheduler.leased() == [] and log.events == []
    nxt, again = scheduler.lease(), scheduler.lease()
    assert (nxt.index, again.index) == (1, 0)
    assert again.attempt == 0 and again.seq > innocent.seq


def test_a_quarantine_reports_max_retries_plus_one_attempts():
    scheduler, _, log = make(PointPolicy(max_retries=2))
    for _ in range(3):
        scheduler.fail(scheduler.lease(), RuntimeError("always"))
    assert log.events == [("quarantine", 0, 3, repr(RuntimeError("always")))]
    assert scheduler.done


def test_a_buffered_run_with_no_quarantine_sink_reraises_the_original_error():
    scheduler, _, _ = make(PointPolicy(), sink=False)
    error = RuntimeError("fatal")
    with pytest.raises(RuntimeError) as raised:
        scheduler.fail(scheduler.lease(), error)
    assert raised.value is error


def test_lease_order_is_exposed_oldest_first():
    scheduler, _, _ = make(PointPolicy(), points=3)
    leases = [scheduler.lease() for _ in range(3)]
    assert scheduler.leased() == leases
    assert [lease.seq for lease in leases] == sorted(lease.seq for lease in leases)
    scheduler.finish(leases[1], "payload")
    scheduler.release(leases[0])
    relet = scheduler.lease()
    assert scheduler.leased() == [leases[2], relet]


def test_a_batch_delivers_in_index_order_before_charging_any_failure():
    log = Log()

    def on_complete(index, payload, attempt):
        log.on_complete(index, payload, attempt)
        if index == 1:
            raise PointFault(f"rejected point {index}")

    scheduler = PointScheduler(SPECS, range(3), PointPolicy(), on_complete, log.on_quarantine)
    zero, one, two = (scheduler.lease() for _ in range(3))
    scheduler.settle(
        finished=[(one, "payload"), (zero, "payload")],
        failed=[(two, RuntimeError("worker raised"))],
    )
    assert log.events == [
        ("complete", 0, 0),
        ("complete", 1, 0),
        ("quarantine", 1, 1, repr(PointFault("rejected point 1"))),
        ("quarantine", 2, 1, repr(RuntimeError("worker raised"))),
    ]
    assert scheduler.done
