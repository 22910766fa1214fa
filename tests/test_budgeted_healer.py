"""BudgetedHealer: bounded edge swaps per step, deferred-repair accounting.

ISSUE 9 tentpole part 3.  The wrapper models optical-circuit-switch
reconfiguration: the inner healer plans repairs on an unconstrained copy of
the network; the deployed graph executes at most ``budget`` edge changes per
adversarial event, queueing the rest FIFO.  The gap surfaces as the
``deferred_repairs`` / ``budget_stalls`` / ``pending_repairs`` /
``time_to_recover`` summary columns, which must flow through summary rows,
artifact replay, and ``repro report`` untouched.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import networkx as nx
import pytest

from repro.adversary.correlated import RecordedAdversary
from repro.core.budget import BudgetedHealer
from repro.harness.experiment import run_experiment
from repro.scenarios.registry import HEALERS
from repro.scenarios.spec import ScenarioSpec
from repro.util.validation import ValidationError


def star(n: int = 8) -> nx.Graph:
    return nx.star_graph(n - 1)


# -- construction -------------------------------------------------------------


def test_budgeted_is_registered_and_names_its_inner_healer():
    assert HEALERS.get("budgeted") is BudgetedHealer
    healer = BudgetedHealer(inner="line-heal", budget=3)
    assert healer.name == "budgeted(line-heal,b=3)"
    assert healer.inner_healer.name == "line-heal"


def test_budgeted_rejects_a_zero_budget_and_unknown_inners():
    with pytest.raises(ValidationError):
        BudgetedHealer(budget=0)
    with pytest.raises(Exception):
        BudgetedHealer(inner="no-such-healer")


def test_budgeted_forwards_kappa_and_derives_the_inner_seed():
    healer = BudgetedHealer(inner="xheal", kappa=3, seed=11)
    assert healer.inner_healer.kappa == 3
    other = BudgetedHealer(inner="xheal", kappa=3, seed=11)
    assert type(other.inner_healer) is type(healer.inner_healer)


# -- budget semantics ---------------------------------------------------------


def test_large_budget_tracks_the_inner_healer_exactly():
    """With budget >= any repair size the deployed graph equals the plan."""
    budgeted = BudgetedHealer(inner="line-heal", budget=100, seed=0)
    inner = HEALERS.get("line-heal")(seed=0)
    graph = star(10)
    budgeted.initialize(graph)
    inner.initialize(graph)
    budgeted.handle_deletion(0)
    inner.handle_deletion(0)
    assert nx.utils.graphs_equal(
        nx.Graph(budgeted.graph.edges()), nx.Graph(inner.graph.edges())
    )
    assert budgeted.extra_summary() == {
        "deferred_repairs": 0,
        "budget_stalls": 0,
        "pending_repairs": 0,
        "time_to_recover": 0,
    }


def test_small_budget_defers_and_later_steps_drain_the_queue():
    """Deleting a star centre plans n-2 line edges; budget 2 applies 2."""
    healer = BudgetedHealer(inner="line-heal", budget=2, seed=0)
    healer.initialize(star(10))
    report = healer.handle_deletion(0)
    assert len(report.edges_added) == 2
    extra = healer.extra_summary()
    # line-heal reconnects 9 leaves in a cycle: 9 edges planned, 2 applied.
    assert extra["pending_repairs"] == 7
    assert extra["deferred_repairs"] == 7
    assert extra["budget_stalls"] == 1
    assert extra["time_to_recover"] == 1
    # Insertions also drain: two more per event until the queue empties.
    node = 100
    while healer.extra_summary()["pending_repairs"] > 0:
        healer.handle_insertion(node, [1])
        node += 1
    extra = healer.extra_summary()
    assert extra["pending_repairs"] == 0
    assert extra["deferred_repairs"] == 7  # counted once, at the step they missed
    assert extra["budget_stalls"] == 4  # 7 pending -> 5 -> 3 -> 1 -> 0
    assert extra["time_to_recover"] == 5  # deletion step + 4 drain steps


def test_opposite_queued_ops_annihilate():
    healer = BudgetedHealer(inner="line-heal", budget=1, seed=0)
    healer.initialize(star(8))
    healer.handle_deletion(0)
    before = healer.extra_summary()["pending_repairs"]
    healer._enqueue("remove", *sorted(healer._pending_entries()[0][2]))
    assert healer.extra_summary()["pending_repairs"] == before - 1


def test_stale_ops_for_dead_endpoints_are_dropped_without_budget_charge():
    healer = BudgetedHealer(inner="line-heal", budget=2, seed=0)
    healer.initialize(star(10))
    healer.handle_deletion(0)
    # Kill a leaf whose queued repair edges now reference a dead endpoint.
    pending_edges = [entry[2] for entry in healer._pending_entries()]
    victim = pending_edges[0][0]
    report = healer.handle_deletion(victim)
    # The drain still spent its full budget on *valid* ops.
    applied = len(report.edges_added) + len(
        [e for e in report.edges_removed if victim not in e]
    )
    assert applied == 2


def test_deployed_graph_is_what_the_harness_measures():
    spec = ScenarioSpec(
        healer="budgeted",
        healer_kwargs={"inner": "xheal", "budget": 1},
        adversary="deletion-only",
        topology="random-regular",
        topology_kwargs={"n": 12, "degree": 4},
        timesteps=3,
        seed=2,
        exact_expansion_limit=0,
        stretch_sample_pairs=5,
    )
    result = run_experiment(spec.compile())
    row = result.summary_row()
    assert row["healer"] == "budgeted(xheal,b=1)"
    for column in ("deferred_repairs", "budget_stalls", "pending_repairs", "time_to_recover"):
        assert isinstance(row[column], int)
    # Ordinary healers keep their rows column-stable (golden-suite safety).
    assert "deferred_repairs" not in run_experiment(
        spec.with_overrides(healer="xheal", healer_kwargs={}).compile()
    ).summary_row()


def test_budgeted_replay_reproduces_the_run_including_extra_columns():
    spec = ScenarioSpec(
        healer="budgeted",
        healer_kwargs={"inner": "xheal", "budget": 2},
        adversary="domain-kill",
        adversary_kwargs={"kill_every": 2, "min_nodes": 5},
        topology="pod-mesh",
        topology_kwargs={"pods": 3, "nodes_per_pod": 4},
        timesteps=6,
        seed=11,
        exact_expansion_limit=0,
        stretch_sample_pairs=10,
    )
    config = spec.compile()
    original = run_experiment(config)
    # Flat replay (one event per timestep), as artifact replay does.
    replayed = run_experiment(
        replace(
            config,
            adversary_factory=partial(
                RecordedAdversary, original.trace, label=original.adversary_name
            ),
            timesteps=len(original.trace),
        )
    )
    assert replayed.summary_row() == original.summary_row()
    assert replayed.healer_extra == original.healer_extra


def test_initialize_resets_the_queue_and_counters():
    healer = BudgetedHealer(inner="line-heal", budget=1, seed=0)
    healer.initialize(star(8))
    healer.handle_deletion(0)
    assert healer.extra_summary()["pending_repairs"] > 0
    healer.initialize(star(8))
    assert healer.extra_summary() == {
        "deferred_repairs": 0,
        "budget_stalls": 0,
        "pending_repairs": 0,
        "time_to_recover": 0,
    }
