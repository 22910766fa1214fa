"""Tests for repro.analysis.invariants."""

import networkx as nx
import pytest

from repro.analysis.invariants import (
    check_degree_invariant,
    check_expansion_invariant,
    check_spectral_invariant,
    check_stretch_invariant,
)
from repro.core.ghost import GhostGraph
from repro.perf.engine import MetricsEngine


def identical_setup(n=16, degree=4, seed=1):
    graph = nx.random_regular_graph(degree, n, seed=seed)
    return graph, GhostGraph(graph)


def test_degree_invariant_holds_on_identical_graphs():
    graph, ghost = identical_setup()
    result = check_degree_invariant(graph, ghost, kappa=4)
    assert result.holds
    assert result.worst_ratio == pytest.approx(1.0)
    assert result.violations == ()


def test_degree_invariant_detects_violation():
    graph, ghost = identical_setup(n=12)
    healed = graph.copy()
    # Blow up node 0's degree far beyond kappa * d' + 2 kappa.
    next_id = 100
    for _ in range(40):
        healed.add_edge(0, next_id)
        next_id += 1
    result = check_degree_invariant(healed, ghost, kappa=2)
    assert not result.holds
    assert 0 in result.violations
    assert result.worst_node == 0


def test_stretch_invariant_identical_graphs():
    graph, ghost = identical_setup()
    result = check_stretch_invariant(graph, ghost, engine=MetricsEngine(stretch_sample_pairs=None))
    assert result.holds
    assert result.max_stretch == pytest.approx(1.0)


def test_stretch_invariant_violated_by_path_replacement():
    ghost_graph = nx.complete_graph(40)
    ghost = GhostGraph(ghost_graph)
    healed = nx.path_graph(40)  # distances blow up from 1 to up to 39 >> 4 log2(40)
    result = check_stretch_invariant(
        healed, ghost, allowed_constant=4.0, engine=MetricsEngine(stretch_sample_pairs=None)
    )
    assert not result.holds
    assert result.max_stretch > result.bound


def test_stretch_invariant_too_few_common_nodes():
    ghost = GhostGraph(nx.path_graph(3))
    healed = nx.Graph()
    healed.add_node(0)
    result = check_stretch_invariant(healed, ghost, engine=MetricsEngine())
    assert result.holds


def test_expansion_invariant_identical_graphs():
    graph, ghost = identical_setup(n=14)
    result = check_expansion_invariant(graph, ghost, engine=MetricsEngine(exact_limit=14))
    assert result.holds
    assert result.healed_expansion == pytest.approx(result.ghost_expansion)


def test_expansion_invariant_detects_tree_patch():
    star = nx.star_graph(15)
    ghost = GhostGraph(star)
    ghost.record_deletion(0)
    # A path over the leaves: expansion ~ 2/n < min(1, h(G')) with h(G') = 1.
    healed = nx.path_graph(range(1, 16))
    result = check_expansion_invariant(healed, ghost, engine=MetricsEngine(exact_limit=15))
    assert not result.holds


def test_spectral_invariant_identical_graphs():
    graph, ghost = identical_setup(n=14)
    result = check_spectral_invariant(graph, ghost, kappa=4, engine=MetricsEngine())
    assert result.holds
    assert result.healed_lambda > 0


def test_spectral_invariant_tiny_graphs_trivially_hold():
    ghost = GhostGraph(nx.path_graph(2))
    healed = nx.Graph()
    healed.add_node(0)
    assert check_spectral_invariant(healed, ghost, kappa=4, engine=MetricsEngine()).holds


def test_theorem2_verdict_all_hold():
    graph, ghost = identical_setup(n=14)
    engine = MetricsEngine(exact_limit=14, stretch_sample_pairs=None)
    verdict = engine.check_theorem2(graph, ghost, kappa=4)
    assert verdict.all_hold
    assert verdict.connected


def test_theorem2_verdict_fails_when_disconnected():
    graph, ghost = identical_setup(n=14)
    healed = graph.copy()
    healed.add_node(999)  # isolated node disconnects the healed graph
    engine = MetricsEngine(exact_limit=14, stretch_sample_pairs=None)
    verdict = engine.check_theorem2(healed, ghost, kappa=4)
    assert not verdict.connected
    assert not verdict.all_hold
