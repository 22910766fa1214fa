"""Cheeger constant (conductance) ``phi(G)`` (Section 1.1, "Cheeger constant").

The paper defines::

    phi(G) = min_S  |E(S, S-bar)| / min(vol(S), vol(S-bar))

where ``vol(S)`` is the sum of degrees of vertices in ``S``.  For k-regular
graphs ``phi = h / k``; for irregular graphs the two can differ dramatically —
the paper's two-cliques example (expansion constant, conductance ``O(1/n)``)
is reproduced in ``benchmarks/bench_cheeger_example.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import networkx as nx
import numpy as np

from repro.perf.kernels import (
    MAX_EXACT_NODES,
    cut_arrays,
    exact_minimum_cheeger_cut,
    prefix_cut_counts,
)
from repro.spectral.expansion import (
    DEFAULT_EXACT_LIMIT,
    crossing_edges_of_cut,
    fiedler_order,
    fixed_cut_counts,
)
from repro.util.ids import NodeId
from repro.util.validation import require


@dataclass(frozen=True)
class CheegerResult:
    """Result of a conductance minimisation."""

    value: float
    cut: frozenset[NodeId]
    exact: bool


def _volume(graph: nx.Graph, members: set[NodeId]) -> int:
    return sum(degree for node, degree in graph.degree(members))


def cheeger_constant_of_cut(graph: nx.Graph, cut: Iterable[NodeId]) -> float:
    """Return the conductance of the explicit cut ``S = cut``.

    A set/frozenset ``cut`` is used as-is, and only edges incident to ``S``
    are scanned — O(vol(S)), not the O(m) full rescan of the original.
    """
    members = cut if isinstance(cut, (set, frozenset)) else set(cut)
    require(bool(members), "cut must be non-empty")
    require(len(members) < graph.number_of_nodes(), "cut must be a strict subset of V")
    crossing = crossing_edges_of_cut(graph, members)
    vol_s = _volume(graph, members)
    vol_rest = 2 * graph.number_of_edges() - vol_s
    denominator = min(vol_s, vol_rest)
    if denominator == 0:
        return 0.0
    return crossing / denominator


def exact_cheeger_reference(graph: nx.Graph) -> CheegerResult:
    """Brute-force conductance minimisation, kept as equivalence-test ground truth."""
    nodes = list(graph.nodes())
    n = len(nodes)
    best_value = float("inf")
    best_cut: frozenset[NodeId] = frozenset()
    # Conductance only needs subsets up to half the *volume*; enumerating all
    # subsets of size <= n-1 and letting the min(vol, vol-bar) handle symmetry
    # is simplest; restrict to size <= n/2 by symmetry of the definition.
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(nodes, size):
            value = cheeger_constant_of_cut(graph, subset)
            if value < best_value:
                best_value = value
                best_cut = frozenset(subset)
                if best_value == 0.0:
                    return CheegerResult(0.0, best_cut, exact=True)
    return CheegerResult(best_value, best_cut, exact=True)


def _sweep(graph: nx.Graph, arrays) -> CheegerResult:
    """The first best proper prefix of the normalized Fiedler order."""
    nodes, tails, heads, degrees = arrays
    order = fiedler_order(graph, normalized=True)
    crossings, volumes = prefix_cut_counts(order[:-1], tails, heads, degrees)
    values = crossings / np.minimum(volumes, degrees.sum() - volumes)
    pos = int(np.argmin(values))
    cut = frozenset(nodes[i] for i in order[: pos + 1])
    return CheegerResult(float(values[pos]), cut, exact=False)


def conductance_sweep(graph: nx.Graph) -> CheegerResult:
    """Return the best conductance cut found by the Fiedler sweep heuristic.

    This is the standard spectral-partitioning sweep: order the vertices by
    the Fiedler vector of the *normalized* Laplacian and take the best prefix.
    The returned value is an upper bound on ``phi(G)``; by Cheeger's
    inequality it is within a quadratic factor of optimal.
    """
    n = graph.number_of_nodes()
    require(n >= 2, "conductance needs at least 2 nodes")
    if graph.number_of_edges() == 0 or not nx.is_connected(graph):
        # Any single component (or isolated vertex) is a zero-conductance cut.
        smallest = min(nx.connected_components(graph), key=lambda c: _volume(graph, c))
        return CheegerResult(0.0, frozenset(smallest), exact=False)
    return _sweep(graph, cut_arrays(graph))


def cheeger_constant(
    graph: nx.Graph,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    samples: int = 64,
    seed: int = 0,
) -> float:
    """Return ``phi(G)`` — exact for small graphs, sweep+sampled bound otherwise."""
    n = graph.number_of_nodes()
    require(n >= 2, "conductance needs at least 2 nodes")
    if not nx.is_connected(graph):
        return 0.0
    if n <= exact_limit:
        if n <= MAX_EXACT_NODES:
            return exact_minimum_cheeger_cut(graph)[0]
        # Exactness beyond the vectorized kernel's cap: brute force, not error.
        return exact_cheeger_reference(graph).value
    arrays = cut_arrays(graph)
    # Singleton cuts are cheap and often tight on irregular graphs.
    _, crossings, volumes = fixed_cut_counts(arrays, samples, seed)
    fixed = crossings / np.minimum(volumes, arrays[3].sum() - volumes)
    return min(_sweep(graph, arrays).value, float(fixed.min()))


def cheeger_bounds_from_lambda(lambda_normalized: float) -> tuple[float, float]:
    """Return ``(lower, upper)`` bounds on ``phi`` from Theorem 1 of the paper.

    The paper states the Cheeger inequality as ``2 phi >= lambda > phi^2 / 2``,
    i.e. ``lambda / 2 <= phi <= sqrt(2 lambda)`` where ``lambda`` is the second
    smallest eigenvalue of the normalized Laplacian.
    """
    require(lambda_normalized >= 0, "lambda must be non-negative")
    lower = lambda_normalized / 2.0
    upper = float(np.sqrt(2.0 * lambda_normalized))
    return (lower, upper)
