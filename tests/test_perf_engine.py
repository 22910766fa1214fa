"""Tests for the metrics engine: version counters, caching, and harness wiring."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.adversary import RandomAdversary
from repro.baselines import RandomKHeal
from repro.core.ghost import GhostGraph
from repro.core.xheal import Xheal
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.perf.engine import MetricsCache, MetricsEngine
from repro.spectral import (
    algebraic_connectivity,
    cheeger_constant,
    edge_expansion,
    normalized_laplacian_second_eigenvalue,
    stretch_against_ghost,
)
from repro.spectral.metrics import GraphMetrics


# ---------------------------------------------------------------- version counters


def test_healer_graph_version_bumps_on_events(small_regular_graph):
    healer = Xheal(kappa=4, seed=1)
    healer.initialize(small_regular_graph)
    v0 = healer.graph_version
    healer.handle_insertion(100, [0, 1])
    v1 = healer.graph_version
    assert v1 > v0
    healer.handle_deletion(100)
    assert healer.graph_version > v1


def test_graph_version_bumps_on_healing_edge_churn(small_regular_graph):
    # A deletion whose healing claims/releases edges must advance the version
    # past the single handle_deletion bump.
    healer = Xheal(kappa=4, seed=1)
    healer.initialize(small_regular_graph)
    before = healer.graph_version
    report = healer.handle_deletion(0)
    assert report.edges_added  # the healing did rewire something
    assert healer.graph_version >= before + 1 + len(report.edges_added)


def test_baseline_healer_has_graph_version(small_regular_graph):
    healer = RandomKHeal(seed=2)
    healer.initialize(small_regular_graph)
    v0 = healer.graph_version
    healer.handle_deletion(3)
    assert healer.graph_version > v0


def test_ghost_version_bumps_and_copies(small_regular_graph):
    ghost = GhostGraph(small_regular_graph)
    v0 = ghost.version
    ghost.record_insertion(100, [0])
    assert ghost.version == v0 + 1
    ghost.record_deletion(100)  # alive view changes even though G' does not
    assert ghost.version == v0 + 2
    assert ghost.copy().version == ghost.version


def test_ghost_graph_version_ignores_deletions(small_regular_graph):
    # Full-ghost metrics are keyed on graph_version, which only insertions
    # advance — deletion-heavy runs must keep those cache entries warm.
    ghost = GhostGraph(small_regular_graph)
    gv = ghost.graph_version
    ghost.record_deletion(0)
    ghost.record_deletion(1)
    assert ghost.graph_version == gv
    ghost.record_insertion(100, [2])
    assert ghost.graph_version == gv + 1
    assert ghost.copy().graph_version == ghost.graph_version


# ---------------------------------------------------------------- MetricsCache


def test_metrics_cache_hit_and_invalidation():
    cache = MetricsCache()
    miss = cache.lookup("k", 1)
    assert miss is not None and cache.misses == 1
    cache.store("k", 1, 42)
    assert cache.lookup("k", 1) == 42
    assert cache.hits == 1
    # A new version invalidates; None bypasses entirely.
    assert cache.lookup("k", 2) != 42 or cache.misses >= 2
    cache.lookup("k", None)
    assert cache.misses == 3
    assert cache.stats() == {"hits": 1, "misses": 3, "entries": 1}


def test_engine_snapshot_matches_plain_snapshot(small_regular_graph):
    # A versioned snapshot is exactly the plain kernels at the engine's fidelity.
    graph = small_regular_graph
    engine = MetricsEngine(exact_limit=16, stretch_sample_pairs=50, seed=0)
    ghost = nx.random_regular_graph(4, 16, seed=8)
    by_engine = engine.snapshot(graph, ghost=ghost, version=1, ghost_version=1)
    stretch = stretch_against_ghost(graph, ghost, sample_pairs=50, seed=0)
    plain = GraphMetrics(
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        connected=nx.is_connected(graph),
        max_degree=max(degree for _, degree in graph.degree()),
        min_degree=min(degree for _, degree in graph.degree()),
        edge_expansion=edge_expansion(graph, exact_limit=16, seed=0),
        cheeger_constant=cheeger_constant(graph, exact_limit=16, seed=0),
        algebraic_connectivity=algebraic_connectivity(graph),
        normalized_lambda2=normalized_laplacian_second_eigenvalue(graph),
        max_stretch=stretch.max_stretch,
        average_stretch=stretch.average_stretch,
    )
    assert by_engine == plain


def test_engine_snapshot_cache_hit_on_same_version(small_regular_graph):
    engine = MetricsEngine(exact_limit=16)
    first = engine.snapshot(small_regular_graph, version=7)
    misses = engine.cache.misses
    second = engine.snapshot(small_regular_graph, version=7)
    assert second == first
    assert engine.cache.misses == misses  # nothing recomputed
    assert engine.cache.hits >= 1


def test_engine_unversioned_calls_bypass_cache(small_regular_graph):
    engine = MetricsEngine(exact_limit=16)
    engine.snapshot(small_regular_graph)
    engine.snapshot(small_regular_graph)
    assert engine.cache.hits == 0


def test_snapshot_with_unknown_ghost_version_bypasses_cache(small_regular_graph):
    # version given but ghost_version omitted: the composite snapshot (whose
    # stretch depends on the ghost) must NOT be served from cache later.
    engine = MetricsEngine(exact_limit=16, stretch_sample_pairs=20)
    ghost_a = nx.random_regular_graph(4, 16, seed=1)
    ghost_b = nx.path_graph(16)
    first = engine.snapshot(small_regular_graph, ghost=ghost_a, version=1)
    second = engine.snapshot(small_regular_graph, ghost=ghost_b, version=1)
    assert first.max_stretch != second.max_stretch or first != second


def test_engine_invariant_check_reuses_snapshot_values(small_regular_graph):
    healer = Xheal(kappa=4, seed=3)
    healer.initialize(small_regular_graph)
    ghost = GhostGraph(small_regular_graph)
    engine = MetricsEngine(exact_limit=16, stretch_sample_pairs=50)
    engine.snapshot(
        healer.graph,
        ghost=ghost.alive_subgraph(),
        version=healer.graph_version,
        ghost_version=ghost.version,
    )
    hits_before = engine.cache.hits
    verdict = engine.check_theorem2(
        healer.graph, ghost, kappa=4, healed_version=healer.graph_version
    )
    # expansion + lambda(healed) + stretch + connectivity come straight from cache.
    assert engine.cache.hits >= hits_before + 3
    assert verdict.all_hold


def test_engine_verdict_matches_plain_verdict(small_regular_graph):
    # A verdict served from a snapshot's cached values equals one a fresh,
    # unversioned engine measures from scratch.
    healer = Xheal(kappa=4, seed=3)
    healer.initialize(small_regular_graph)
    ghost = GhostGraph(small_regular_graph)
    healer.handle_deletion(5)
    ghost.record_deletion(5)
    engine = MetricsEngine(exact_limit=16, stretch_sample_pairs=50, seed=0)
    engine.snapshot(
        healer.graph,
        ghost=ghost.alive_subgraph(),
        version=healer.graph_version,
        ghost_version=ghost.version,
    )
    fast = engine.check_theorem2(
        healer.graph, ghost, kappa=4, healed_version=healer.graph_version
    )
    plain = MetricsEngine(exact_limit=16, stretch_sample_pairs=50, seed=0).check_theorem2(
        healer.graph, ghost, kappa=4
    )
    assert fast == plain


def test_stretch_summary_keyed_per_label(small_regular_graph):
    # Two labeled streams at equal version tuples must not share stretch results.
    engine = MetricsEngine(stretch_sample_pairs=None)
    star = nx.star_graph(9)
    cycle = nx.cycle_graph(10)
    a = engine.snapshot(star, ghost=star, version=1, ghost_version=1, label="A")
    b = engine.snapshot(nx.path_graph(10), ghost=cycle, version=1, ghost_version=1, label="B")
    assert a.max_stretch == 1.0
    assert b.max_stretch > 1.0  # path vs cycle ghost: not label-A's cached 1.0


def test_stretch_summary_factory_not_called_on_cache_hit(small_regular_graph):
    engine = MetricsEngine(stretch_sample_pairs=20)
    ghost = nx.random_regular_graph(4, 16, seed=9)
    calls = []

    def factory():
        calls.append(1)
        return ghost

    first = engine.stretch_summary(small_regular_graph, factory, 1, 1)
    second = engine.stretch_summary(small_regular_graph, factory, 1, 1)
    assert first == second and first is not None
    assert len(calls) == 1


# ---------------------------------------------------------------- harness wiring


def test_run_experiment_reports_cache_hits(small_regular_graph):
    config = ExperimentConfig(
        healer_factory=lambda: Xheal(kappa=4, seed=1),
        adversary_factory=lambda: RandomAdversary(seed=2, delete_probability=0.5),
        initial_graph=small_regular_graph,
        timesteps=12,
        metric_every=4,
        check_invariants_every=4,
        exact_expansion_limit=12,
        stretch_sample_pairs=30,
    )
    result = run_experiment(config)
    assert result.cache_stats["hits"] > 0
    assert result.timeline.entries  # intermediate snapshots were recorded
    assert result.final_metrics.nodes == result.final_graph.number_of_nodes()
