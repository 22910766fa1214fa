"""Tests for repro.analysis.amortized and repro.analysis.trackers."""

import math

import networkx as nx
import pytest

from repro.analysis.amortized import (
    CostLedger,
    lemma5_lower_bound,
    theorem5_upper_bound,
)
from repro.analysis.trackers import DegreeRatioTracker, MetricTimeline
from repro.core.ghost import GhostGraph
from repro.perf.engine import MetricsEngine
from repro.util.validation import ValidationError


def test_lemma5_lower_bound_average_of_degrees():
    assert lemma5_lower_bound([4, 6, 2]) == pytest.approx(4.0)
    assert lemma5_lower_bound([]) == 0.0
    # Zero degrees still cost at least one message each.
    assert lemma5_lower_bound([0, 0]) == pytest.approx(1.0)


def test_theorem5_upper_bound_formula():
    degrees = [4, 4, 4]
    assert theorem5_upper_bound(degrees, kappa=4, n=64) == pytest.approx(4 * 6 * 4)
    with pytest.raises(ValidationError):
        theorem5_upper_bound(degrees, kappa=0, n=64)
    with pytest.raises(ValidationError):
        theorem5_upper_bound(degrees, kappa=4, n=1)


def test_cost_ledger_summary():
    ledger = CostLedger(kappa=4)
    ledger.record_deletion(1, black_degree=4, messages=30, rounds=3, network_size=50)
    ledger.record_deletion(2, black_degree=6, messages=50, rounds=5, network_size=49)
    summary = ledger.summary()
    assert summary.deletions == 2
    assert summary.total_messages == 80
    assert summary.amortized_messages == pytest.approx(40.0)
    assert summary.lower_bound == pytest.approx(5.0)
    assert summary.max_rounds == 5
    assert summary.mean_rounds == pytest.approx(4.0)
    assert summary.overhead_vs_lower_bound == pytest.approx(8.0)
    expected_upper = 4 * math.log2(50) * 5.0
    assert summary.upper_bound == pytest.approx(expected_upper)
    assert summary.within_upper_bound == (summary.amortized_messages <= expected_upper)


def test_cost_ledger_empty_summary():
    summary = CostLedger().summary()
    assert summary.deletions == 0
    assert summary.amortized_messages == 0.0


def test_cost_ledger_validation():
    ledger = CostLedger()
    with pytest.raises(ValidationError):
        ledger.record_deletion(1, black_degree=-1, messages=0, rounds=0, network_size=10)
    with pytest.raises(ValidationError):
        ledger.record_deletion(1, black_degree=1, messages=-1, rounds=0, network_size=10)


def test_degree_ratio_tracker_detects_bound():
    graph = nx.random_regular_graph(4, 12, seed=1)
    ghost = GhostGraph(graph)
    tracker = DegreeRatioTracker(kappa=4)
    worst = tracker.observe(graph, ghost)
    assert worst == pytest.approx(1.0)
    assert tracker.bound_respected
    # Now violate the bound artificially.
    healed = graph.copy()
    for extra in range(200, 240):
        healed.add_edge(0, extra)
    tracker.observe(healed, ghost)
    assert not tracker.bound_respected
    assert tracker.worst_node == 0


def test_metric_timeline_records_and_series():
    graph = nx.random_regular_graph(4, 12, seed=2)
    ghost = GhostGraph(graph)
    timeline = MetricTimeline(engine=MetricsEngine(exact_limit=12, stretch_sample_pairs=None))
    timeline.record(1, graph, ghost, worst_degree_ratio=1.0)
    smaller = graph.copy()
    smaller.remove_node(0)
    ghost.record_deletion(0)
    timeline.record(2, smaller, ghost, worst_degree_ratio=1.5)
    assert len(timeline.entries) == 2
    series = timeline.series("edge_expansion")
    assert len(series) == 2
    ghost_series = timeline.series("nodes", side="ghost")
    assert ghost_series[0] == 12 and ghost_series[1] == 11
    assert timeline.final().timestep == 2


def test_metric_timeline_empty_final():
    assert MetricTimeline(engine=MetricsEngine()).final() is None
