"""Tests for repro.spectral.mixing and repro.spectral.metrics."""

import networkx as nx
import numpy as np
import pytest

from repro.harness.workloads import two_cliques_workload
from repro.perf.engine import MetricsEngine
from repro.spectral.metrics import compare_metrics
from repro.spectral.mixing import (
    lazy_walk_matrix,
    mixing_time_bound_from_lambda,
    spectral_mixing_time,
)
from repro.util.validation import ValidationError


def test_lazy_walk_matrix_is_stochastic():
    graph = nx.random_regular_graph(4, 12, seed=1)
    walk = lazy_walk_matrix(graph)
    assert np.allclose(walk.sum(axis=1), 1.0)
    assert np.all(walk >= 0)


def test_lazy_walk_handles_isolated_node():
    graph = nx.Graph()
    graph.add_nodes_from([0, 1])
    graph.add_edge(0, 1)
    graph.add_node(2)
    walk = lazy_walk_matrix(graph)
    assert walk[2, 2] == pytest.approx(1.0)


def test_expander_mixes_faster_than_clique_pair():
    expander = nx.random_regular_graph(6, 16, seed=2)
    cliques = two_cliques_workload(16)
    assert spectral_mixing_time(expander) < spectral_mixing_time(cliques)


def test_disconnected_graph_never_mixes():
    graph = nx.Graph([(0, 1), (2, 3)])
    assert spectral_mixing_time(graph) == float("inf")


def test_mixing_epsilon_validation():
    graph = nx.cycle_graph(6)
    with pytest.raises(ValidationError):
        spectral_mixing_time(graph, epsilon=0)


def test_mixing_bound_from_lambda_monotone():
    slow = mixing_time_bound_from_lambda(0.01, 100)
    fast = mixing_time_bound_from_lambda(0.5, 100)
    assert fast < slow
    assert mixing_time_bound_from_lambda(0.0, 100) == float("inf")


def test_snapshot_metrics_fields():
    graph = nx.random_regular_graph(4, 14, seed=3)
    metrics = MetricsEngine().snapshot(graph)
    assert metrics.nodes == 14
    assert metrics.connected is True
    assert metrics.max_degree == 4
    assert metrics.edge_expansion > 0
    assert metrics.algebraic_connectivity > 0
    assert metrics.max_stretch is None


def test_snapshot_metrics_with_ghost_includes_stretch():
    graph = nx.random_regular_graph(4, 14, seed=3)
    metrics = MetricsEngine().snapshot(graph, ghost=graph)
    assert metrics.max_stretch == pytest.approx(1.0)


def test_snapshot_metrics_tiny_graph():
    graph = nx.Graph()
    graph.add_node(0)
    metrics = MetricsEngine().snapshot(graph)
    assert metrics.nodes == 1
    assert metrics.edge_expansion == 0.0


def test_compare_metrics_ratios():
    graph = nx.random_regular_graph(4, 14, seed=3)
    healed = MetricsEngine().snapshot(graph)
    ghost = MetricsEngine().snapshot(graph)
    ratios = compare_metrics(healed, ghost)
    assert ratios["degree_ratio"] == pytest.approx(1.0)
    assert ratios["expansion_ratio"] == pytest.approx(1.0)
    assert ratios["lambda_ratio"] == pytest.approx(1.0)


def test_compare_metrics_zero_denominator():
    graph = nx.random_regular_graph(4, 14, seed=3)
    healed = MetricsEngine().snapshot(graph)
    empty = MetricsEngine().snapshot(nx.Graph([(0, 1)]))
    ratios = compare_metrics(healed, MetricsEngine().snapshot(nx.path_graph(2)))
    assert ratios["degree_ratio"] > 0
    disconnected = nx.Graph([(0, 1), (2, 3)])
    ratios = compare_metrics(healed, MetricsEngine().snapshot(disconnected))
    assert ratios["expansion_ratio"] == float("inf")
    assert empty.nodes == 2
