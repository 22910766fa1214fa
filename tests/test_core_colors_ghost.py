"""Tests for repro.core.colors and repro.core.ghost."""

import random

import networkx as nx
import pytest

from repro.core.colors import BLACK, ColorKind, EdgeColor, primary_color, secondary_color
from repro.core.ghost import GhostGraph
from repro.util.validation import ValidationError


def test_black_is_black():
    assert BLACK.is_black
    assert not BLACK.is_primary
    assert not BLACK.is_secondary
    assert str(BLACK) == "black"


def test_primary_and_secondary_colors():
    red = primary_color(7)
    orange = secondary_color(7)
    assert red.is_primary and not red.is_secondary
    assert orange.is_secondary and not orange.is_primary
    assert red != orange
    assert "red" in str(red) and "orange" in str(orange)


def test_colors_hashable_and_unique_per_tag():
    assert primary_color(1) == EdgeColor(ColorKind.PRIMARY, 1)
    assert primary_color(1) != primary_color(2)
    assert len({primary_color(i) for i in range(5)}) == 5


def test_ghost_records_initial_graph():
    graph = nx.cycle_graph(5)
    ghost = GhostGraph(graph)
    assert ghost.number_of_nodes() == 5
    assert ghost.degree(0) == 2


def test_ghost_insertion_grows_graph():
    ghost = GhostGraph(nx.path_graph(3))
    ghost.record_insertion(10, [0, 2])
    assert ghost.degree(10) == 2
    assert ghost.graph.has_edge(10, 0)


def test_ghost_insertion_validation():
    ghost = GhostGraph(nx.path_graph(3))
    with pytest.raises(ValidationError):
        ghost.record_insertion(0, [1])  # already exists
    with pytest.raises(ValidationError):
        ghost.record_insertion(10, [99])  # unknown neighbour


def test_ghost_deletion_does_not_remove_edges():
    graph = nx.star_graph(4)
    ghost = GhostGraph(graph)
    ghost.record_deletion(0)
    assert ghost.degree(0) == 4  # ghost keeps the deleted node's edges
    assert 0 in ghost.deleted_nodes()
    assert 0 not in ghost.alive_nodes()


def test_ghost_deletion_unknown_rejected():
    ghost = GhostGraph(nx.path_graph(3))
    with pytest.raises(ValidationError):
        ghost.record_deletion(42)


def test_alive_subgraph_excludes_deleted():
    graph = nx.cycle_graph(6)
    ghost = GhostGraph(graph)
    ghost.record_deletion(0)
    alive = ghost.alive_subgraph()
    assert 0 not in alive
    assert alive.number_of_nodes() == 5


def test_ghost_degree_of_unknown_node_is_zero():
    ghost = GhostGraph(nx.path_graph(3))
    assert ghost.degree(500) == 0


def test_ghost_copy_is_independent():
    ghost = GhostGraph(nx.path_graph(3))
    clone = ghost.copy()
    clone.record_deletion(0)
    assert 0 not in clone.alive_nodes()
    assert 0 in ghost.alive_nodes()


def _eager_ghost(initial: nx.Graph, insertions) -> nx.Graph:
    """``G'_t`` built in full from ``G_0`` and every insertion, in event order."""
    graph = nx.Graph()
    graph.add_nodes_from(initial.nodes())
    graph.add_edges_from(initial.edges())
    for node, neighbors in insertions:
        graph.add_node(node)
        for neighbor in neighbors:
            graph.add_edge(node, neighbor)
    return graph


def _layout(graph: nx.Graph):
    """Node order, edge order and every node's neighbour order."""
    return list(graph.nodes()), list(graph.edges()), [list(graph.adj[node]) for node in graph]


@pytest.mark.parametrize("first_read", ["start", "mid-run", "end"])
def test_lazy_ghost_graph_matches_an_eager_build(first_read):
    rng = random.Random(5)
    initial = nx.Graph()
    initial.add_nodes_from(rng.sample(range(40), 40))  # unsorted node order
    edges = list(nx.random_regular_graph(4, 40, seed=5).edges())
    rng.shuffle(edges)
    initial.add_edges_from(edges)
    before = _layout(initial)
    reads = {"start": (0, 15, 30), "mid-run": (15, 30), "end": (30,)}[first_read]

    ghost = GhostGraph(initial)
    nodes = list(initial.nodes())
    insertions = []
    for step in range(31):
        eager = _eager_ghost(initial, insertions)
        assert {node: ghost.degree(node) for node in eager} == dict(eager.degree())
        assert ghost.number_of_nodes() == eager.number_of_nodes()
        if step in reads:
            assert _layout(ghost.graph) == _layout(eager)
            assert ghost.alive_nodes() == set(eager) - ghost.deleted_nodes()
        if step == 30:
            break
        node = 100 + step
        anchors = [rng.choice(nodes) for _ in range(3)]  # repeats allowed
        ghost.record_insertion(node, anchors)
        insertions.append((node, anchors))
        nodes.append(node)
        if step % 4 == 0:
            ghost.record_deletion(rng.choice(nodes))
    assert _layout(initial) == before  # G_0 is read, never mutated


@pytest.mark.parametrize("built", [False, True], ids=["lazy", "built"])
def test_ghost_copy_keeps_insertions_independent(built):
    ghost = GhostGraph(nx.path_graph(4))
    ghost.record_insertion(10, [0, 3])
    if built:
        ghost.graph
    clone = ghost.copy()
    clone.record_insertion(11, [10])
    ghost.record_insertion(12, [1])
    assert (ghost.degree(10), clone.degree(10)) == (2, 3)
    for side, inserted in ((ghost, (12, [1])), (clone, (11, [10]))):
        eager = _eager_ghost(nx.path_graph(4), [(10, [0, 3]), inserted])
        assert set(side.graph.edges()) == set(eager.edges())
