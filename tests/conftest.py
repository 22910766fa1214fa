"""Shared fixtures for the test suite."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.ghost import GhostGraph
from repro.core.xheal import Xheal


@pytest.fixture
def small_regular_graph() -> nx.Graph:
    """A connected 4-regular graph on 16 nodes (exact spectral computations feasible)."""
    return nx.random_regular_graph(4, 16, seed=7)


@pytest.fixture
def star_graph() -> nx.Graph:
    """A star on 12 nodes with centre 0 — the paper's worst case for tree healers."""
    return nx.star_graph(11)


@pytest.fixture
def grid_graph() -> nx.Graph:
    """A 4x4 grid with integer labels."""
    return nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 4), ordering="sorted")


@pytest.fixture
def xheal_on_regular(small_regular_graph) -> tuple[Xheal, GhostGraph]:
    """A kappa=4 Xheal healer initialized on the small regular graph, plus its ghost."""
    healer = Xheal(kappa=4, seed=13)
    healer.initialize(small_regular_graph)
    return healer, GhostGraph(small_regular_graph)


def drive(healer, ghost, adversary, steps):
    """Drive ``healer`` and ``ghost`` with ``adversary`` for up to ``steps`` events.

    Returns the healer's :class:`~repro.core.events.RepairReport` of every event.
    """
    reports = []
    for timestep in range(steps):
        event = adversary.next_event(healer.graph, timestep)
        if event is None:
            break
        if event.is_deletion:
            ghost.record_deletion(event.node)
            reports.append(healer.handle_deletion(event.node))
        else:
            ghost.record_insertion(event.node, event.neighbors)
            reports.append(healer.handle_insertion(event.node, event.neighbors))
    return reports
