"""End-to-end invariant tests for Xheal: the Theorem 2 guarantees under adversaries."""

import networkx as nx
import pytest

from repro.adversary import (
    CascadeAdversary,
    DeletionOnlyAdversary,
    MaxDegreeAdversary,
    RandomAdversary,
    StarCenterAdversary,
)
from repro.core.ghost import GhostGraph
from repro.core.xheal import Xheal
from repro.perf.engine import MetricsEngine

from tests.conftest import drive


ADVERSARIES = [
    lambda: DeletionOnlyAdversary(seed=3),
    lambda: MaxDegreeAdversary(seed=4),
    lambda: RandomAdversary(seed=5, delete_probability=0.6),
    lambda: CascadeAdversary(seed=6),
    lambda: StarCenterAdversary(seed=7),
]


@pytest.mark.parametrize("adversary_factory", ADVERSARIES)
def test_theorem2_holds_on_regular_graph(adversary_factory):
    graph = nx.random_regular_graph(4, 24, seed=11)
    healer = Xheal(kappa=4, seed=1)
    healer.initialize(graph)
    ghost = GhostGraph(graph)
    adversary = adversary_factory()
    adversary.bind(graph)
    drive(healer, ghost, adversary, steps=25)
    healer.check_invariants()
    engine = MetricsEngine(exact_limit=14, stretch_sample_pairs=80)
    verdict = engine.check_theorem2(healer.graph, ghost, kappa=4)
    assert verdict.connected
    assert verdict.degree.holds, f"degree violation at {verdict.degree.worst_node}"
    assert verdict.stretch.holds
    assert verdict.expansion.holds
    assert verdict.spectral.holds


@pytest.mark.parametrize("kappa", [2, 4, 6])
def test_degree_bound_scales_with_kappa(kappa):
    graph = nx.random_regular_graph(4, 20, seed=2)
    healer = Xheal(kappa=kappa, seed=9)
    healer.initialize(graph)
    ghost = GhostGraph(graph)
    adversary = DeletionOnlyAdversary(seed=13)
    adversary.bind(graph)
    drive(healer, ghost, adversary, steps=12)
    for node in healer.graph.nodes():
        assert healer.graph.degree(node) <= kappa * ghost.degree(node) + 2 * kappa


def test_star_center_deletion_keeps_constant_expansion():
    # The paper's marquee example: a star healed by Xheal keeps expansion >= ~1,
    # because the leaves are reconnected by an expander, not a tree.
    graph = nx.star_graph(20)
    healer = Xheal(kappa=4, seed=3)
    healer.initialize(graph)
    ghost = GhostGraph(graph)
    ghost.record_deletion(0)
    healer.handle_deletion(0)
    engine = MetricsEngine(exact_limit=0, stretch_sample_pairs=100)
    verdict = engine.check_theorem2(healer.graph, ghost, kappa=4)
    assert verdict.connected
    assert verdict.expansion.healed_expansion >= 0.9


def test_connectivity_never_lost_under_long_churn():
    graph = nx.random_regular_graph(4, 30, seed=5)
    healer = Xheal(kappa=4, seed=6)
    healer.initialize(graph)
    ghost = GhostGraph(graph)
    adversary = RandomAdversary(seed=21, delete_probability=0.5)
    adversary.bind(graph)
    for timestep in range(60):
        event = adversary.next_event(healer.graph, timestep)
        if event is None:
            break
        if event.is_deletion:
            ghost.record_deletion(event.node)
            healer.handle_deletion(event.node)
        else:
            ghost.record_insertion(event.node, event.neighbors)
            healer.handle_insertion(event.node, event.neighbors)
        assert nx.is_connected(healer.graph)
    healer.check_invariants()


def test_graph_stays_simple():
    graph = nx.random_regular_graph(4, 20, seed=8)
    healer = Xheal(kappa=4, seed=2)
    healer.initialize(graph)
    ghost = GhostGraph(graph)
    adversary = CascadeAdversary(seed=3)
    adversary.bind(graph)
    drive(healer, ghost, adversary, steps=12)
    assert nx.number_of_selfloops(healer.graph) == 0


def test_edge_ownership_consistency_after_churn():
    graph = nx.random_regular_graph(4, 22, seed=9)
    healer = Xheal(kappa=4, seed=4)
    healer.initialize(graph)
    ghost = GhostGraph(graph)
    adversary = RandomAdversary(seed=17, delete_probability=0.7)
    adversary.bind(graph)
    drive(healer, ghost, adversary, steps=30)
    live_cloud_ids = {cloud.cloud_id for cloud in healer.registry.clouds()}
    for u, v, data in healer.graph.edges(data=True):
        for owner in data.get("owners", set()):
            assert owner in live_cloud_ids, f"edge ({u},{v}) owned by dissolved cloud {owner}"
        if not data.get("owners") and not data.get("was_black"):
            pytest.fail(f"orphan healing edge ({u},{v}) with no owner")


def test_bridge_duty_unique_per_node():
    graph = nx.random_regular_graph(4, 24, seed=10)
    healer = Xheal(kappa=4, seed=7)
    healer.initialize(graph)
    ghost = GhostGraph(graph)
    adversary = DeletionOnlyAdversary(seed=19)
    adversary.bind(graph)
    drive(healer, ghost, adversary, steps=18)
    from repro.core.clouds import CloudKind

    membership_count: dict[int, int] = {}
    for cloud in healer.registry.clouds(CloudKind.SECONDARY):
        for node in cloud.members:
            membership_count[node] = membership_count.get(node, 0) + 1
    assert all(count == 1 for count in membership_count.values())
