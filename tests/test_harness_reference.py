"""Equivalence suite pinning the data-oriented core to the pre-rewrite code.

``tests/golden/reference_summaries.json`` holds ``summary_row()`` outputs for
24 scenarios, generated with the original pure-NetworkX simulation core (see
``scripts/regen_reference_golden.py``).  Re-running the same specs through
the current struct-of-arrays core must reproduce every row byte for byte —
node iteration order, metric floats, verdicts, everything.

A second layer cross-checks the *internal* fast paths against their reference
implementations on live runs: the touched-node degree-ratio tracker vs the
full per-node scan (for every registered healer), and the materialized
``nx.Graph`` vs the store.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.trackers import DegreeRatioTracker, MetricTimeline
from repro.core.xheal import Xheal
from repro.harness.experiment import run_experiment
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.registry import ADVERSARIES, HEALERS

GOLDEN = Path(__file__).parent / "golden" / "reference_summaries.json"


def _golden_entries():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "entry",
    _golden_entries(),
    ids=lambda entry: f"{entry['spec']['healer']}@{entry['spec'].get('topology')}"
    f"/{entry['spec'].get('adversary')}-s{entry['spec'].get('seed', 0)}",
)
def test_summary_rows_match_pre_rewrite_reference(entry):
    spec = ScenarioSpec.from_dict(entry["spec"])
    result = run_experiment(spec.validate().compile())
    assert result.summary_row() == entry["summary"]


#: Every registered healer except the fault-injection fixture, which fails on
#: purpose.  Each runs under single-node churn and under batched domain kills
#: (whose insertion turns let ``budgeted`` drain deferred repairs).
_TRACKER_HEALERS = sorted(set(HEALERS.names()) - {"chaos-flaky"})
_TRACKER_RUNS = {
    "random": dict(
        topology="random-regular", topology_kwargs={"n": 24, "degree": 4}, adversary="random"
    ),
    "domain-kill": dict(
        topology="racked-clos",
        topology_kwargs={"racks": 4, "nodes_per_rack": 6},
        adversary="domain-kill",
        adversary_kwargs={"kill_every": 4},
    ),
}


@pytest.mark.parametrize("adversary", sorted(_TRACKER_RUNS))
@pytest.mark.parametrize("healer", _TRACKER_HEALERS)
def test_incremental_tracker_matches_reference_scan(healer, adversary, monkeypatch):
    """After every event, the touched-node tracker equals a full reference scan.

    The tracker re-scores only the nodes an event touched, so this pins the
    contract it relies on: every healer reports each edge it adds in the
    event's ``RepairReport.edges_added``.  Each timeline row must carry the
    reference's current worst ratio.
    """
    config = ScenarioSpec(
        healer=healer,
        **_TRACKER_RUNS[adversary],
        timesteps=60,
        metric_every=10,
        snapshot_every=0,
        exact_expansion_limit=0,
        stretch_sample_pairs=10,
        seed=13,
    ).validate().compile()
    observe_store, record = DegreeRatioTracker.observe_store, MetricTimeline.record
    reference = DegreeRatioTracker(kappa=config.kappa)
    current_worst: list[float] = []
    rows: list[int] = []

    def checked(tracker, store, ghost, touched):
        observe_store(tracker, store, ghost, touched)
        current_worst.append(reference.observe(store, ghost))
        got = (tracker.max_ratio_seen, tracker.worst_node, tracker.max_additive_violation)
        want = (reference.max_ratio_seen, reference.worst_node, reference.max_additive_violation)
        assert got == want, f"event {len(current_worst)}"
        assert tracker.bound_respected == reference.bound_respected

    def recorded(timeline, timestep, healed, ghost, worst_degree_ratio, **kwargs):
        assert worst_degree_ratio == current_worst[-1], f"row at step {timestep}"
        rows.append(timestep)
        return record(timeline, timestep, healed, ghost, worst_degree_ratio, **kwargs)

    monkeypatch.setattr(DegreeRatioTracker, "observe_store", checked)
    monkeypatch.setattr(MetricTimeline, "record", recorded)
    result = run_experiment(config)
    assert len(current_worst) == len(result.trace) > 0 and rows
    assert result.worst_degree_ratio == reference.max_ratio_seen


def test_materialized_graph_matches_store_after_churn():
    """The lazy nx materializer mirrors the store's nodes, edges and attrs."""
    spec = ScenarioSpec(
        healer="xheal",
        topology="erdos-renyi",
        topology_kwargs={"n": 20, "average_degree": 4.0},
        adversary="random",
        timesteps=40,
        seed=3,
    )
    config = spec.validate().compile()
    healer = config.healer_factory()
    healer.initialize(config.initial_graph)
    adversary = config.adversary_factory()
    adversary.bind(config.initial_graph)

    for timestep in range(1, config.timesteps + 1):
        event = adversary.next_event(healer.graph_store, timestep)
        if event is None:
            break
        if event.is_insertion:
            healer.handle_insertion(event.node, event.neighbors)
        else:
            healer.handle_deletion(event.node)

    store = healer.graph_store
    graph = healer.graph
    assert graph is healer.graph  # cached while the version is unchanged
    assert list(graph.nodes()) == list(store.nodes())
    assert graph.number_of_edges() == store.number_of_edges()
    for u, v, data in graph.edges(data=True):
        assert store.has_edge(u, v)
        assert data["color"] == store.color(u, v)
        assert data["was_black"] is store.was_black(u, v)
        assert data["owners"] == store.owners_of_slot(store.edge_slot(u, v))
    for node in store.nodes():
        assert graph.degree(node) == store.degree(node)


def test_store_speaks_the_adversary_graph_dialect():
    """Every registered adversary can drive the store directly (no nx view)."""
    import networkx as nx

    initial = nx.random_regular_graph(4, 16, seed=2)
    for name in sorted(ADVERSARIES.names()):
        if name in ("chaos-flaky", "scripted", "trace-replay"):
            continue  # these require constructor arguments beyond a seed
        healer = Xheal(kappa=4, seed=1)
        healer.initialize(initial)
        adversary = ADVERSARIES.get(name)(seed=5)
        adversary.bind(initial)
        for timestep in range(1, 13):
            batch = adversary.next_events(healer.graph_store, timestep)
            if not batch:
                break
            for event in batch:
                if event.is_insertion:
                    healer.handle_insertion(event.node, event.neighbors)
                else:
                    healer.handle_deletion(event.node)
        healer.check_invariants()
