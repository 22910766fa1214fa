"""Equivalence tests: the fast kernels must match the slow references.

Four families of guarantees:

* **Cuts** — the vectorized Gray-code kernels return the *same minimum value*
  as the brute-force references on every graph family up to 12 nodes, and the
  returned cut certifies that value under the reference cut evaluators.
* **Sweeps** — the prefix-cut kernel behind the sampled upper bounds returns
  the same floats and the same first-minimum cut as a per-cut loop that
  scores every Fiedler prefix, singleton and sampled cut with
  ``edge_expansion_of_cut`` / ``cheeger_constant_of_cut``.
* **Spectral** — the sparse / warm-started eigenvalue path agrees with the
  dense reference within 1e-9.
* **Stretch** — the sampled-source BFS implementation returns a summary
  *bit-identical* to the old all-pairs implementation under a fixed seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.perf.engine import MetricsEngine
from repro.spectral.cheeger import (
    cheeger_constant,
    cheeger_constant_of_cut,
    conductance_sweep,
    exact_cheeger_reference,
)
from repro.spectral.expansion import (
    crossing_edges_of_cut,
    edge_expansion,
    edge_expansion_of_cut,
    exact_minimum_cut_reference,
    fixed_cut_counts,
    minimum_expansion_cut,
)
from repro.perf.kernels import cut_arrays, exact_minimum_cheeger_cut
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
from repro.util.rng import SeededRng


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


# -- sweep references: one Python pass per candidate cut ---------------------------


def _reference_fiedler_order(graph, normalized):
    nodes = list(graph.nodes())
    try:
        # The library's fixed seed for tracemin's start block.
        fiedler = nx.fiedler_vector(graph, normalized=normalized, method="tracemin_lu", seed=0)
    except (nx.NetworkXError, np.linalg.LinAlgError):
        return nodes
    return [node for _, node in sorted(zip(fiedler, nodes), key=lambda pair: pair[0])]


def _reference_sampled_cuts(graph, samples, seed):
    rng = SeededRng(seed)
    nodes = list(graph.nodes())
    cuts = []
    for _ in range(samples):
        size = rng.randint(1, max(1, len(nodes) // 2))
        cuts.append(frozenset(rng.sample(nodes, size)))
    return cuts


def _first_minimum(graph, score, cuts):
    best_value, best_cut = float("inf"), frozenset()
    for cut in cuts:
        value = score(graph, cut)
        if value < best_value:
            best_value, best_cut = value, frozenset(cut)
    return best_value, best_cut


def _reference_expansion_cut(graph, samples=64, seed=0):
    """Every Fiedler prefix up to n/2, then singletons, then samples."""
    if not nx.is_connected(graph):
        return 0.0, frozenset(min(nx.connected_components(graph), key=len))
    order = _reference_fiedler_order(graph, normalized=False)
    cuts = [order[:size] for size in range(1, len(order) // 2 + 1)]
    cuts += [[node] for node in graph.nodes()] + _reference_sampled_cuts(graph, samples, seed)
    return _first_minimum(graph, edge_expansion_of_cut, cuts)


def _reference_conductance_sweep(graph):
    order = _reference_fiedler_order(graph, normalized=True)
    prefixes = [order[:size] for size in range(1, len(order))]
    return _first_minimum(graph, cheeger_constant_of_cut, prefixes)


def _reference_cheeger_constant(graph, samples=64, seed=0):
    best, _ = _reference_conductance_sweep(graph)
    cuts = _reference_sampled_cuts(graph, samples, seed) + [[node] for node in graph.nodes()]
    return min([best] + [cheeger_constant_of_cut(graph, cut) for cut in cuts])


def _sweep_zoo() -> list[tuple[str, nx.Graph]]:
    """The cut zoo plus larger random families, some disconnected."""
    zoo = list(_graph_zoo())
    for seed in range(3):
        zoo.append((f"regular4-60s{seed}", nx.random_regular_graph(4, 60, seed=seed)))
        zoo.append((f"ba-80s{seed}", nx.barabasi_albert_graph(80, 2, seed=seed)))
        zoo.append((f"gnp-70s{seed}", nx.gnp_random_graph(70, 0.06, seed=seed)))
    zoo.append(("grid6x7", nx.convert_node_labels_to_integers(nx.grid_2d_graph(6, 7))))
    zoo.append(("hypercube5", nx.convert_node_labels_to_integers(nx.hypercube_graph(5))))
    zoo.append(("barbell-big", nx.barbell_graph(20, 3)))
    zoo.append(("cycle-90", nx.cycle_graph(90)))
    zoo.append(("star-70", nx.star_graph(69)))
    zoo.append(("edgeless-9", nx.empty_graph(9)))
    isolated = nx.random_regular_graph(3, 40, seed=4)
    isolated.add_nodes_from(["lonely", "alone"])
    zoo.append(("regular-with-isolated", isolated))
    looped = nx.random_regular_graph(4, 50, seed=6)
    looped.add_edges_from([(0, 0), (7, 7)])
    zoo.append(("regular-with-self-loops", looped))
    zoo.append(("regular6-450", nx.random_regular_graph(6, 450, seed=2)))
    zoo.append(("ba-400", nx.barabasi_albert_graph(400, 3, seed=5)))
    zoo.append(("gnp-420", nx.gnp_random_graph(420, 0.015, seed=8)))
    return zoo


@pytest.mark.parametrize("name,graph", _sweep_zoo())
def test_prefix_sweeps_match_the_per_cut_reference(name, graph):
    _assert_sweeps_match_reference(graph)


def test_sweeps_break_fiedler_ties_by_node_order(monkeypatch):
    # A randomly started solver never returns exact ties, so force some.
    graph = nx.circulant_graph(12, [1, 2])
    tied = np.array([float(i % 3) for i in range(12)])
    monkeypatch.setattr(nx, "fiedler_vector", lambda *args, **kwargs: tied.copy())
    _assert_sweeps_match_reference(graph)


def test_fixed_cuts_count_like_the_per_cut_evaluator():
    graph = nx.random_regular_graph(4, 50, seed=6)
    graph.add_edges_from([(0, 0), (7, 7)])
    arrays = cut_arrays(graph)
    cuts, crossings, volumes = fixed_cut_counts(arrays, samples=16, seed=1)
    assert len(cuts) == 50 + 16
    for cut, crossing, volume in zip(cuts, crossings, volumes):
        members = {arrays[0][i] for i in cut}
        assert crossing == crossing_edges_of_cut(graph, members)
        assert volume == sum(degree for _, degree in graph.degree(members))


def _assert_sweeps_match_reference(graph):
    expansion = minimum_expansion_cut(graph, exact_limit=0)
    assert (expansion.value, expansion.cut) == _reference_expansion_cut(graph)
    if graph.number_of_edges() and nx.is_connected(graph):
        sweep = conductance_sweep(graph)
        assert (sweep.value, sweep.cut) == _reference_conductance_sweep(graph)
        assert cheeger_constant(graph, exact_limit=0) == _reference_cheeger_constant(graph)
        assert cheeger_constant(graph, exact_limit=0, samples=5, seed=3) == (
            _reference_cheeger_constant(graph, samples=5, seed=3)
        )
    variant = minimum_expansion_cut(graph, exact_limit=0, samples=0, seed=9)
    assert (variant.value, variant.cut) == _reference_expansion_cut(graph, samples=0, seed=9)


def test_sweep_bounds_do_not_depend_on_numpy_global_rng():
    # lambda_2 of a grid repeats, so a start block drawn from NumPy's global
    # state used to change the Fiedler vector, and the bounds, per process.
    grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(8, 8))
    state = np.random.get_state()
    try:
        readings = []
        for global_seed in (0, 4):
            np.random.seed(global_seed)
            readings.append((edge_expansion(grid), cheeger_constant(grid)))
    finally:
        np.random.set_state(state)
    assert readings[0] == readings[1]


def test_a_snapshot_free_run_never_imports_scipy():
    script = """
import sys
import repro
from repro.harness.experiment import run_experiment
from repro.scenarios import ScenarioSpec

spec = ScenarioSpec.from_dict({
    "name": "no-scipy", "healer": "xheal", "topology": "random-regular",
    "topology_kwargs": {"n": 32, "degree": 4}, "adversary": "random",
    "timesteps": 6, "snapshot_every": 0,
})
run_experiment(spec.compile())
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr


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
