"""Equivalence tests: the fast kernels must match the slow references.

Three families of guarantees:

* **Cuts** — the vectorized Gray-code kernels return the *same minimum value*
  as the brute-force references on every graph family up to 12 nodes, and the
  returned cut certifies that value under the reference cut evaluators.
* **Spectral** — the sparse / warm-started eigenvalue path agrees with the
  dense reference within 1e-9.
* **Stretch** — the sampled-source BFS implementation returns a summary
  *bit-identical* to the old all-pairs implementation under a fixed seed.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.perf.engine import MetricsEngine
from repro.spectral.cheeger import (
    cheeger_constant_of_cut,
    exact_cheeger_reference,
)
from repro.spectral.expansion import (
    edge_expansion_of_cut,
    exact_minimum_cut_reference,
    minimum_expansion_cut,
)
from repro.perf.kernels import exact_minimum_cheeger_cut
from repro.spectral.laplacian import (
    algebraic_connectivity,
    algebraic_connectivity_reference,
    normalized_lambda2_reference,
    normalized_laplacian_second_eigenvalue,
)
from repro.spectral.stretch import (
    stretch_against_ghost,
    stretch_against_ghost_reference,
)


def _graph_zoo(max_nodes: int = 12) -> list[tuple[str, nx.Graph]]:
    """Every structured + random family used for cut equivalence."""
    zoo: list[tuple[str, nx.Graph]] = []
    for n in range(2, max_nodes + 1):
        zoo.append((f"K{n}", nx.complete_graph(n)))
        zoo.append((f"P{n}", nx.path_graph(n)))
        zoo.append((f"star{n}", nx.star_graph(n - 1)))
        if n >= 3:
            zoo.append((f"C{n}", nx.cycle_graph(n)))
    for seed in range(4):
        for n in (5, 8, 12):
            zoo.append((f"gnp{n}s{seed}", nx.gnp_random_graph(n, 0.45, seed=seed)))
    zoo.append(("barbell", nx.barbell_graph(5, 1)))
    zoo.append(("grid3x4", nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 4))))
    zoo.append(("two-components", nx.Graph([(0, 1), (1, 2), (3, 4)])))
    isolated = nx.path_graph(5)
    isolated.add_node(99)
    zoo.append(("isolated-node", isolated))
    return zoo


@pytest.mark.parametrize("name,graph", _graph_zoo())
def test_fast_expansion_matches_reference(name, graph):
    reference = exact_minimum_cut_reference(graph)
    fast = minimum_expansion_cut(graph)
    assert fast.exact is True
    assert fast.value == reference.value, name
    # The fast cut is legal and certifies the claimed minimum.
    assert fast.cut
    assert len(fast.cut) <= graph.number_of_nodes() // 2
    assert edge_expansion_of_cut(graph, fast.cut) == fast.value


@pytest.mark.parametrize("name,graph", _graph_zoo())
def test_fast_cheeger_matches_reference(name, graph):
    reference = exact_cheeger_reference(graph)
    value, cut = exact_minimum_cheeger_cut(graph)
    assert value == reference.value, name
    assert cut
    assert len(cut) < graph.number_of_nodes()
    assert cheeger_constant_of_cut(graph, cut) == value


def test_exact_limit_beyond_kernel_cap_falls_back_to_reference(monkeypatch):
    # Asking for exactness past the vectorized kernel's node cap must run the
    # brute force, not raise.  (Cap shrunk so the test stays fast.)
    import repro.spectral.cheeger as cheeger_mod
    import repro.spectral.expansion as expansion_mod

    monkeypatch.setattr(expansion_mod, "MAX_EXACT_NODES", 8)
    monkeypatch.setattr(cheeger_mod, "MAX_EXACT_NODES", 8)
    graph = nx.random_regular_graph(4, 12, seed=5)
    from repro.spectral.cheeger import cheeger_constant
    from repro.spectral.expansion import edge_expansion

    assert edge_expansion(graph, exact_limit=12) == exact_minimum_cut_reference(graph).value
    assert cheeger_constant(graph, exact_limit=12) == exact_cheeger_reference(graph).value


def test_spectral_dense_paths_match_references():
    for seed in range(3):
        graph = nx.random_regular_graph(4, 40, seed=seed)
        assert algebraic_connectivity(graph) == pytest.approx(
            algebraic_connectivity_reference(graph), abs=1e-9
        )
        assert normalized_laplacian_second_eigenvalue(graph) == pytest.approx(
            normalized_lambda2_reference(graph), abs=1e-9
        )


@pytest.mark.slow
def test_spectral_sparse_path_matches_dense_reference():
    # n > the 400-node sparse threshold so the Lanczos path actually runs.
    graph = nx.random_regular_graph(6, 450, seed=7)
    assert algebraic_connectivity(graph) == pytest.approx(
        algebraic_connectivity_reference(graph), abs=1e-9
    )
    assert normalized_laplacian_second_eigenvalue(graph) == pytest.approx(
        normalized_lambda2_reference(graph), abs=1e-9
    )


@pytest.mark.slow
def test_spectral_warm_started_engine_matches_dense_reference():
    # Two successive versions of a >threshold graph: the second solve is
    # warm-started from the first solve's Fiedler vector and must still agree
    # with the dense reference to 1e-9.
    engine = MetricsEngine()
    graph = nx.random_regular_graph(6, 420, seed=3)
    assert engine.algebraic_connectivity(graph, version=1) == pytest.approx(
        algebraic_connectivity_reference(graph), abs=1e-9
    )
    graph.remove_node(0)
    graph.add_edges_from((1, node) for node in range(2, 8) if not graph.has_edge(1, node))
    assert nx.is_connected(graph)
    assert engine.algebraic_connectivity(graph, version=2) == pytest.approx(
        algebraic_connectivity_reference(graph), abs=1e-9
    )
    assert engine.normalized_lambda2(graph, version=2) == pytest.approx(
        normalized_lambda2_reference(graph), abs=1e-9
    )


def test_disconnected_spectral_paths_agree():
    graph = nx.Graph([(0, 1), (2, 3)])
    assert algebraic_connectivity(graph) == 0.0 == algebraic_connectivity_reference(graph)
    assert (
        normalized_laplacian_second_eigenvalue(graph)
        == 0.0
        == normalized_lambda2_reference(graph)
    )


@pytest.mark.parametrize("sample_pairs", [None, 3, 25, 10_000])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_stretch_identical_to_reference_under_fixed_seed(sample_pairs, seed):
    healed = nx.random_regular_graph(4, 48, seed=seed)
    ghost = nx.random_regular_graph(4, 48, seed=seed + 50)
    ghost.remove_nodes_from(range(4))  # common node set is a strict subset
    fast = stretch_against_ghost(healed, ghost, sample_pairs=sample_pairs, seed=seed)
    reference = stretch_against_ghost_reference(
        healed, ghost, sample_pairs=sample_pairs, seed=seed
    )
    assert fast == reference


def test_stretch_identical_on_disconnected_ghost():
    healed = nx.path_graph(20)
    ghost = nx.Graph()
    ghost.add_nodes_from(range(20))
    ghost.add_edges_from((i, i + 1) for i in range(9))
    for sample_pairs in (None, 7):
        fast = stretch_against_ghost(healed, ghost, sample_pairs=sample_pairs, seed=3)
        reference = stretch_against_ghost_reference(
            healed, ghost, sample_pairs=sample_pairs, seed=3
        )
        assert fast == reference


def test_stretch_reports_healing_failure_as_inf():
    # Connected in the ghost, disconnected in the healed graph -> inf stretch.
    ghost = nx.path_graph(6)
    healed = nx.Graph()
    healed.add_nodes_from(range(6))
    healed.add_edges_from([(0, 1), (2, 3), (4, 5)])
    fast = stretch_against_ghost(healed, ghost)
    reference = stretch_against_ghost_reference(healed, ghost)
    assert fast == reference
    assert fast.max_stretch == float("inf")


def test_snapshot_metrics_unchanged_by_fast_kernels():
    # End-to-end: a full snapshot built on the fast kernels matches one whose
    # expansion/conductance are recomputed by the brute-force references.
    graph = nx.random_regular_graph(4, 12, seed=11)
    snapshot = MetricsEngine().snapshot(graph)
    assert snapshot.edge_expansion == exact_minimum_cut_reference(graph).value
    assert snapshot.cheeger_constant == exact_cheeger_reference(graph).value
    assert snapshot.algebraic_connectivity == pytest.approx(
        algebraic_connectivity_reference(graph), abs=1e-9
    )
