"""Tests for repro.core.healer (SelfHealer base) and repro.core.events."""

import networkx as nx
import pytest

from repro.baselines import NoHeal
from repro.core.colors import BLACK
from repro.core.events import RepairAction, RepairReport
from repro.util.validation import ValidationError


def make_healer(graph):
    healer = NoHeal(seed=0)
    healer.initialize(graph)
    return healer


def test_initialize_copies_graph_and_colors_black():
    graph = nx.cycle_graph(5)
    healer = make_healer(graph)
    assert healer.graph is not graph
    for _, _, data in healer.graph.edges(data=True):
        assert data["color"] is BLACK
        assert data["was_black"] is True


def test_initialize_rejects_self_loops():
    graph = nx.Graph([(0, 1)])
    graph.add_edge(1, 1)
    with pytest.raises(ValueError):
        make_healer(graph)


def test_insertion_adds_black_edges_and_logs():
    healer = make_healer(nx.path_graph(4))
    report = healer.handle_insertion(10, [0, 3])
    assert report.action is RepairAction.INSERTION
    assert (report.timestep, report.inserted_node, report.deleted_node) == (1, 10, None)
    assert healer.graph.has_edge(10, 0)
    assert healer.timestep == 1


def test_insertion_validation():
    healer = make_healer(nx.path_graph(3))
    with pytest.raises(ValidationError):
        healer.handle_insertion(0, [1])  # already present
    with pytest.raises(ValidationError):
        healer.handle_insertion(10, [99])  # unknown neighbour
    with pytest.raises(ValidationError):
        healer.handle_insertion(11, [11])  # self-adjacent


def test_deletion_removes_node_and_reports():
    healer = make_healer(nx.star_graph(4))
    report = healer.handle_deletion(0)
    assert report.deleted_node == 0
    assert (report.timestep, report.inserted_node) == (1, None)
    assert 0 not in healer.graph


def test_deletion_unknown_node_rejected():
    healer = make_healer(nx.path_graph(3))
    with pytest.raises(ValidationError):
        healer.handle_deletion(77)


def test_degree_and_nodes_accessors():
    healer = make_healer(nx.star_graph(3))
    assert healer.degree(0) == 3
    assert healer.degree(999) == 0
    assert healer.nodes() == {0, 1, 2, 3}


def test_duplicate_black_edge_marks_was_black():
    healer = make_healer(nx.path_graph(3))
    # Simulate a healing edge then an adversarial insertion over the same pair.
    healer._graph.add_edge(0, 2, color=BLACK, was_black=False, owners=set())
    healer.handle_insertion(5, [0])
    assert healer._add_black_edge(0, 2) is False
    assert healer.graph.edges[0, 2]["was_black"] is True


def test_repair_report_note_action_and_counts():
    report = RepairReport(timestep=3)
    report.note_action(RepairAction.CASE_1_NEW_PRIMARY)
    report.note_action(RepairAction.CASE_2_1_SECONDARY)
    assert report.action is RepairAction.CASE_1_NEW_PRIMARY
    assert len(report.actions) == 2
    report.edges_added.append((1, 2))
    report.edges_removed.append((3, 4))
    assert report.total_edge_changes == 2
    counts = report.merge_counts()
    assert counts["edges_added"] == 1
    assert counts["edges_removed"] == 1


def test_insertion_then_deletion_round_trip():
    healer = make_healer(nx.cycle_graph(4))
    healer.handle_insertion(9, [0, 2])
    healer.handle_deletion(9)
    assert 9 not in healer.graph
    assert healer.timestep == 2
