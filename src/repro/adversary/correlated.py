"""Correlated adversaries: whole-domain kills and recorded-trace replay.

Single-node churn (:mod:`repro.adversary.strategies`) misses the failure
modes real deployments see: a top-of-rack switch or a power feed takes a
whole *failure domain* (:mod:`repro.core.domains`) dark in one step, and
operators want to stress healers against recorded production churn, not
synthetic distributions.  Both land here as registry plugins:

* ``domain-kill`` drains one labelled failure domain per kill turn as an
  atomic batched event sequence (the harness applies all of it within one
  timestep, metric cadence included);
* ``trace-replay`` deterministically plays back a JSONL churn trace
  (:mod:`repro.adversary.traces`), preserving recorded batch boundaries —
  trace in, identical adversary out.

``trace-replay`` is a file reader over :class:`RecordedAdversary`, the
unregistered in-memory form that :func:`~repro.harness.sweeps.compare_healers`
and artifact replay hand to :func:`~repro.harness.experiment.run_experiment`:
a replay is a live run whose adversary plays back a recorded trace.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from repro.adversary.base import Adversary, AdversaryEvent
from repro.adversary.strategies import DEFAULT_MIN_NODES
from repro.adversary.traces import group_into_batches, read_churn_trace
from repro.core.domains import domain_members
from repro.scenarios.registry import register_adversary
from repro.util.validation import require

#: Domain-selection policies for :class:`DomainKillAdversary`.
_KILL_ORDERS = ("random", "round-robin", "largest")


@register_adversary("domain-kill", aliases=("rack-kill",))
class DomainKillAdversary(Adversary):
    """Kill an entire failure domain at once; insert churn between kills.

    Every ``kill_every``-th timestep the adversary picks a domain that still
    has labelled members alive (policy: ``order``) and emits one batched
    deletion per member — atomically truncated by the ``min_nodes`` floor, so
    a kill that would shrink the graph too far is shortened up front, never
    half-applied.  Other timesteps insert a random node (domainless: the
    healer's replacements don't belong to any rack), which is what gives a
    budget-limited healer steps to drain its deferred-repair queue between
    kills.  Runs out of labelled domains → falls back to insertions;
    ``max_kills`` bounds the total number of domain kills.
    """

    name = "domain-kill"

    def __init__(
        self,
        kill_every: int = 1,
        max_attachments: int = 5,
        min_nodes: int = DEFAULT_MIN_NODES,
        seed: int = 0,
        order: str = "random",
        max_kills: int | None = None,
    ):
        require(kill_every >= 1, "kill_every must be at least 1")
        require(max_attachments >= 1, "max_attachments must be at least 1")
        require(order in _KILL_ORDERS, f"order must be one of {_KILL_ORDERS}")
        require(max_kills is None or max_kills >= 0, "max_kills must be non-negative")
        super().__init__(seed=seed)
        self.kill_every = kill_every
        self.max_attachments = max_attachments
        self.min_nodes = min_nodes
        self.order = order
        self.max_kills = max_kills
        self._kills_done = 0
        self._round_robin_cursor = 0

    def _pick_domain(self, domains: dict[str, list]) -> str:
        names = list(domains)
        if self.order == "largest":
            # Size-desc, name-asc tie-break: deterministic for equal racks.
            return max(names, key=lambda name: (len(domains[name]), name))
        if self.order == "round-robin":
            name = names[self._round_robin_cursor % len(names)]
            self._round_robin_cursor += 1
            return name
        return self._rng.choice(names)

    def next_events(self, graph: nx.Graph, timestep: int) -> tuple[AdversaryEvent, ...] | None:
        kill_turn = timestep % self.kill_every == 0 and (
            self.max_kills is None or self._kills_done < self.max_kills
        )
        if kill_turn:
            domains = domain_members(graph)
            if domains:
                targets = domains[self._pick_domain(domains)]
                batch = self._batched_deletions(graph, targets, self.min_nodes)
                if batch:
                    self._kills_done += 1
                    return batch
                # Floor reached: fall through to insertion churn so the run
                # keeps producing events instead of stopping early.
        insertion = self._random_insertion(graph, self.max_attachments)
        if insertion is None:
            return None
        return (insertion,)


class RecordedAdversary(Adversary):
    """Play back an in-memory event sequence, batch boundaries included.

    ``steps``, when given, parallels ``events`` with the timestep each event
    belonged to (:attr:`~repro.harness.experiment.ExperimentResult.event_steps`);
    consecutive events sharing a step form one atomic batch.  ``steps=None``
    plays one event per timestep.  Each call to :meth:`next_events` returns
    the next batch, then ``None``.  Replay is strict: the adversary never
    inspects the graph, so an event that cannot apply fails the harness's
    batch validation rather than being skipped.  ``label`` overrides the
    reported adversary name: pass the recording run's adversary so the
    replayed summary row matches the original bit for bit.
    """

    name = "trace"

    def __init__(
        self,
        events: Sequence[AdversaryEvent],
        steps: Sequence[int | None] | None = None,
        label: str | None = None,
    ):
        super().__init__()
        if label is not None:
            self.name = str(label)
        if steps is None:
            steps = [None] * len(events)
        self._batches = group_into_batches(events, steps)
        self._cursor = 0

    def next_events(self, graph: nx.Graph, timestep: int) -> tuple[AdversaryEvent, ...] | None:
        if self._cursor >= len(self._batches):
            return None
        batch = self._batches[self._cursor]
        self._cursor += 1
        return batch


@register_adversary("trace-replay")
class TraceReplayAdversary(RecordedAdversary):
    """Replay a recorded JSONL churn trace, batch boundaries included.

    The trace (see :mod:`repro.adversary.traces`) is read once at
    construction and played back by :class:`RecordedAdversary` — the
    adversary is a pure function of the file, so two runs over the same
    trace are byte-identical.  ``seed`` is accepted for the spec layer's
    seed derivation; a replay draws no randomness.
    """

    name = "trace-replay"

    def __init__(self, path: str, label: str | None = None, seed: int = 0):
        self.path = str(path)
        events, steps = read_churn_trace(self.path)
        super().__init__(events, steps, label=label)
