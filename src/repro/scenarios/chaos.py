"""Deterministic fault injection for the sweep runner.

The paper's claim is that a network should survive adversarial deletions
without global repair; this module plays the same adversary against our own
harness.  A :class:`ChaosSpec` is a seeded schedule of worker faults —
process crashes, hangs, injected exceptions and torn artifact writes — that
the pooled runner consults per ``(point fingerprint, attempt)``:

* ``crash``  — the worker process dies mid-point (``os._exit``), which the
  parent sees as ``BrokenProcessPool``;
* ``hang``   — the worker sleeps ``hang_s`` seconds before running the
  point, tripping any :class:`~repro.scenarios.policy.PointPolicy` timeout;
* ``raise``  — the worker raises :class:`ChaosError` instead of a record;
* ``torn-write`` — the *parent* writes a truncated artifact with no index
  line (simulating a crash between the artifact write and the index
  append) and fails the point with :class:`PointFault`.

Every decision is a pure function of ``(chaos seed, fingerprint, attempt)``
via :func:`~repro.util.rng.derive_seed`, so a retried or resumed run faces
exactly the same fault schedule — which is what lets the differential tests
assert that a chaotic run converges to artifacts byte-identical to a
fault-free serial run.

Activation is by environment variable (:data:`ENV_VAR` holds a
:meth:`ChaosSpec.to_json` document) so worker processes inherit the
schedule without any plumbing, and production runs — where the variable is
unset — pay nothing.  The variable parses as a
:class:`~repro.util.validation.Document`: an unknown or mistyped field is
refused by name (``crash_prob must be a finite number, got 'x'``).

Two registry-registered wrapper components exercise the *quarantine* path
(a point that fails deterministically on every attempt): the
``chaos-flaky`` healer and adversary fail at a configured event, either
with a plain :class:`ChaosError` or with a deliberately unpicklable
:class:`PoisonError` — the latter proves a poison exception reaches the
parent as a per-point failure instead of wedging the pool.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass

from repro.adversary.base import Adversary, AdversaryEvent
from repro.core.events import RepairAction
from repro.core.healer import SelfHealer
from repro.scenarios.registry import (
    ADVERSARIES,
    register_adversary,
    register_healer,
)
from repro.util.rng import derive_seed
from repro.util.validation import Document, require

#: Environment variable carrying a ``ChaosSpec.to_json()`` document.
ENV_VAR = "REPRO_CHAOS"

#: The fault kinds a schedule can inject, in draw order (first hit wins).
FAULT_KINDS = ("crash", "hang", "raise", "torn-write")


class ChaosError(RuntimeError):
    """The exception an injected ``raise`` fault throws inside a worker."""


class PointFault(RuntimeError):
    """Raised by a completion callback to fail an already-delivered point.

    The pooled runner treats it exactly like a worker-side failure: the
    point is retried (or quarantined), and nothing else in flight is
    affected.  The torn-write fault uses it to model a crash *after* the
    scenario ran but *before* its artifact landed durably.
    """


class PoisonError(RuntimeError):
    """An exception that cannot cross the process boundary.

    Its payload is a live lambda, so pickling it fails inside the worker's
    result path; :mod:`concurrent.futures` then delivers a picklable
    stand-in error to the future — the pool must survive that, and the
    point must fail individually rather than globally.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.payload = lambda: message


@dataclass(frozen=True)
class ChaosSpec(Document):
    """A seeded schedule of injected faults.

    Each probability is evaluated independently per ``(fingerprint,
    attempt)`` in :data:`FAULT_KINDS` order; the first hit is the attempt's
    fault (at most one fault per attempt).  ``hang_s`` is how long a
    ``hang`` fault sleeps before executing normally — pair it with a
    :class:`~repro.scenarios.policy.PointPolicy` timeout below it to turn
    hangs into kills.
    """

    crash_prob: float = 0.0
    hang_prob: float = 0.0
    hang_s: float = 0.0
    torn_write_prob: float = 0.0
    raise_prob: float = 0.0
    seed: int = 0

    def validate(self) -> "ChaosSpec":
        """Check probability ranges; return self for chaining."""
        for name in ("crash_prob", "hang_prob", "torn_write_prob", "raise_prob"):
            value = getattr(self, name)
            require(0.0 <= value <= 1.0, f"{name} must be in [0, 1], got {value}")
        require(self.hang_s >= 0, "hang_s must be non-negative")
        return self

    def to_json(self) -> str:
        """Return canonical JSON (sorted keys, compact) — the env-var format."""
        return json.dumps(self.to_dict(), sort_keys=True)


def active_chaos() -> ChaosSpec | None:
    """Return the schedule :data:`ENV_VAR` carries, or ``None`` when unset.

    Read on every call (not cached) so tests can flip the variable, and so
    worker processes — which inherit the environment — see the same
    schedule the parent does.
    """
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    return ChaosSpec.from_json(text).validate()


def chaos_decision(chaos: ChaosSpec, fingerprint: str, attempt: int) -> str | None:
    """Return the fault this ``(fingerprint, attempt)`` suffers, if any.

    A pure function of its arguments: the draws come from
    ``derive_seed(chaos.seed, "chaos", fingerprint, attempt)`` in the fixed
    :data:`FAULT_KINDS` order, so every process — parent, worker, a resumed
    run days later — agrees on the schedule.
    """
    rng = random.Random(derive_seed(chaos.seed, "chaos", fingerprint, attempt))
    probabilities = {
        "crash": chaos.crash_prob,
        "hang": chaos.hang_prob,
        "raise": chaos.raise_prob,
        "torn-write": chaos.torn_write_prob,
    }
    for kind in FAULT_KINDS:
        if rng.random() < probabilities[kind]:
            return kind
    return None


def apply_worker_chaos(fingerprint: str, attempt: int) -> None:
    """Inject this attempt's worker-side fault, if the schedule has one.

    Called inside the worker before the scenario executes.  ``crash`` exits
    the process bluntly (no atexit, no cleanup — exactly what a kernel OOM
    kill looks like to the parent); ``hang`` sleeps, then lets the point
    run normally; ``raise`` throws.  ``torn-write`` is a parent-side fault
    and is a no-op here.
    """
    chaos = active_chaos()
    if chaos is None:
        return
    kind = chaos_decision(chaos, fingerprint, attempt)
    if kind == "crash":
        os._exit(13)
    elif kind == "hang":
        time.sleep(chaos.hang_s)
    elif kind == "raise":
        raise ChaosError(f"injected failure for {fingerprint[:12]} attempt {attempt}")


def tear_artifact(stream, index: int, record) -> None:
    """Write a truncated artifact for ``record`` at its *final* name.

    Models a crash between step (2) and step (3) of the stream durability
    protocol: the artifact file exists (here: half its bytes) but no index
    line records it.  Because artifact bytes are a pure function of the
    spec, the retry or resume that re-runs the point overwrites the stump
    with identical full content — so injecting this fault never breaks
    byte-identity with a fault-free run.
    """
    from repro.scenarios.artifacts import artifact_name, run_bytes

    data = run_bytes(record, compress=stream.compress)
    path = stream.directory / artifact_name(index, record.spec.label, stream.compress)
    path.write_bytes(data[: len(data) // 2])


# -- registry-registered flaky wrappers ---------------------------------------


def _fail(mode: str, what: str) -> None:
    require(mode in ("raise", "poison"), f"chaos mode must be 'raise' or 'poison', got {mode!r}")
    if mode == "poison":
        raise PoisonError(f"injected unpicklable failure in {what}")
    raise ChaosError(f"injected failure in {what}")


@register_healer("chaos-flaky")
class FlakyHealer(SelfHealer):
    """A healer that fails deterministically — the quarantine test fixture.

    ``fail_at=0`` (default) fails during :meth:`initialize`; ``fail_at=N``
    lets the first ``N - 1`` deletions through (healing like ``no-heal``)
    and fails on the Nth.  ``mode="poison"`` raises the unpicklable
    :class:`PoisonError` instead of :class:`ChaosError`, exercising the
    runner's poison-exception path.  Every attempt fails identically, so a
    point using this healer exhausts its retries and lands in
    ``failures.jsonl``.
    """

    name = "chaos-flaky"

    def __init__(self, fail_at: int = 0, mode: str = "raise", seed: int = 0):
        super().__init__(seed=seed)
        require(fail_at >= 0, "fail_at must be non-negative")
        self._fail_at = fail_at
        self._mode = mode
        self._deletions = 0

    def _after_initialize(self) -> None:
        if self._fail_at == 0:
            _fail(self._mode, "chaos-flaky healer (initialize)")

    def _heal_after_deletion(self, deleted, neighbors, incident_colors, report) -> None:
        self._deletions += 1
        if self._deletions >= self._fail_at > 0:
            _fail(self._mode, f"chaos-flaky healer (deletion {self._deletions})")
        report.note_action(RepairAction.BASELINE)


@register_adversary("chaos-flaky")
class FlakyAdversary(Adversary):
    """An adversary wrapper that fails deterministically at one timestep.

    Delegates every move to the ``inner`` adversary (resolved through the
    registry, seeded from this wrapper's seed) until ``fail_at`` is
    reached, then fails with the configured ``mode`` — same contract as
    :class:`FlakyHealer`, for faults that originate on the adversary side.
    """

    name = "chaos-flaky"

    def __init__(
        self,
        inner: str = "random",
        inner_kwargs: dict | None = None,
        fail_at: int = 1,
        mode: str = "raise",
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        require(fail_at >= 1, "fail_at must be at least 1 (timesteps start at 1)")
        kwargs = dict(inner_kwargs or {})
        kwargs.setdefault("seed", derive_seed(seed, "chaos-inner"))
        self._inner = ADVERSARIES.get(inner)(**kwargs)
        self._fail_at = fail_at
        self._mode = mode

    def bind(self, initial_graph) -> None:
        super().bind(initial_graph)
        self._inner.bind(initial_graph)

    def next_event(self, graph, timestep: int) -> AdversaryEvent | None:
        if timestep >= self._fail_at:
            _fail(self._mode, f"chaos-flaky adversary (timestep {timestep})")
        return self._inner.next_event(graph, timestep)
