"""Tests for the Xheal ablation variants."""

import networkx as nx

from repro.adversary import DeletionOnlyAdversary
from repro.core.ablations import XhealAlwaysMerge, XhealCliqueClouds
from repro.core.clouds import CloudKind
from repro.core.ghost import GhostGraph
from repro.core.xheal import Xheal

from tests.conftest import drive


def run_under_deletions(healer, n=24, steps=14, seed=5):
    graph = nx.random_regular_graph(4, n, seed=seed)
    healer.initialize(graph)
    ghost = GhostGraph(graph)
    adversary = DeletionOnlyAdversary(seed=seed + 1)
    adversary.bind(graph)
    return healer, drive(healer, ghost, adversary, steps=steps)


def test_always_merge_never_creates_secondary_clouds():
    healer, _ = run_under_deletions(XhealAlwaysMerge(kappa=4, seed=1))
    assert healer.registry.clouds(CloudKind.SECONDARY) == []
    assert nx.is_connected(healer.graph)
    healer.check_invariants()


def test_always_merge_costs_more_messages_than_xheal():
    _, merged = run_under_deletions(XhealAlwaysMerge(kappa=4, seed=1), steps=16)
    _, normal = run_under_deletions(Xheal(kappa=4, seed=1), steps=16)
    # The same deletions, healed two ways: merging rebuilds whole clouds
    # where Xheal builds a small secondary cloud, so it costs strictly more
    # messages and strictly more edge churn.
    assert [r.deleted_node for r in merged] == [r.deleted_node for r in normal]
    assert sum(r.messages for r in merged) > sum(r.messages for r in normal)
    assert sum(r.total_edge_changes for r in merged) > sum(
        r.total_edge_changes for r in normal
    )


def test_clique_clouds_keep_connectivity_but_blow_up_degree():
    star = nx.star_graph(20)
    clique_variant = XhealCliqueClouds(kappa=4, seed=2)
    clique_variant.initialize(star)
    clique_variant.handle_deletion(0)
    expander_variant = Xheal(kappa=4, seed=2)
    expander_variant.initialize(star)
    expander_variant.handle_deletion(0)
    max_clique_degree = max(degree for _, degree in clique_variant.graph.degree())
    max_expander_degree = max(degree for _, degree in expander_variant.graph.degree())
    assert max_clique_degree == 19  # full clique over the 20 leaves
    assert max_expander_degree <= 4
    assert nx.is_connected(clique_variant.graph)


def test_ablations_preserve_connectivity_under_churn():
    for healer in (XhealAlwaysMerge(kappa=4, seed=3), XhealCliqueClouds(kappa=4, seed=3)):
        healed, _ = run_under_deletions(healer, steps=12, seed=9)
        assert nx.is_connected(healed.graph)
