"""Edge expansion ``h(G)`` (Section 1.1, "Edge Expansion").

The paper defines, for an undirected graph ``G = (V, E)`` and ``S`` a subset
of ``V`` with ``|S| <= |V| / 2``::

    h(G) = min_{|S| <= |V|/2}  |E(S, S-bar)| / |S|

Exact computation requires examining exponentially many cuts, so this module
offers three levels of fidelity:

* :func:`edge_expansion` — exact for graphs with at most ``exact_limit``
  nodes (default 22, ~2^21 cuts via the vectorized Gray-code kernel in
  :mod:`repro.perf.kernels`), otherwise falls back to the approximation below.
* :func:`edge_expansion_bounds` — certified lower/upper bounds from the
  spectral sweep cut plus sampled random cuts; always cheap.
* :func:`edge_expansion_of_cut` — the expansion of one explicit cut, used by
  the invariant checkers that track the *same* cut across healing steps.

The pre-vectorization brute force survives as
:func:`exact_minimum_cut_reference`; the equivalence tests pin the fast
kernel to it on every graph family up to 12 nodes.
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
    exact_minimum_expansion_cut,
    prefix_cut_counts,
)
from repro.util.ids import NodeId
from repro.util.rng import SeededRng
from repro.util.validation import require

#: Graphs up to this many nodes are solved by exact enumeration by default.
#: The vectorized Gray-code kernel makes 22 nodes (~2^21 cuts) cost roughly
#: what the old per-subset Python rescan paid for 18.
DEFAULT_EXACT_LIMIT = 22


@dataclass(frozen=True)
class ExpansionResult:
    """Result of a minimum-expansion-cut search."""

    value: float
    cut: frozenset[NodeId]
    exact: bool


def edge_expansion_of_cut(graph: nx.Graph, cut: Iterable[NodeId]) -> float:
    """Return ``|E(S, S-bar)| / |S|`` for the explicit cut ``S = cut``.

    A set/frozenset ``cut`` is used as-is (no copy), and only the edges
    incident to ``S`` are examined — O(vol(S)) instead of the O(m) full-graph
    rescan the invariant checkers' per-step loops used to pay.

    Raises
    ------
    ValueError
        If the cut is empty or contains every node of the graph.
    """
    members = cut if isinstance(cut, (set, frozenset)) else set(cut)
    require(bool(members), "cut must be non-empty")
    require(len(members) < graph.number_of_nodes(), "cut must be a strict subset of V")
    return crossing_edges_of_cut(graph, members) / len(members)


def crossing_edges_of_cut(graph: nx.Graph, members: set[NodeId] | frozenset[NodeId]) -> int:
    """Return ``|E(S, S-bar)|`` scanning only edges incident to ``S``.

    ``graph.edges(members)`` yields each incident edge once, member endpoint
    first, so internal edges are skipped by the membership test on the second
    endpoint alone.
    """
    return sum(1 for _, v in graph.edges(members) if v not in members)


def exact_minimum_cut_reference(graph: nx.Graph) -> ExpansionResult:
    """Brute-force minimum expansion cut over all subsets of size <= n/2.

    The pre-vectorization implementation, kept verbatim as the ground truth
    for the fast kernel's equivalence tests — O(2^n * m) Python-level work,
    do not use on graphs beyond ~16 nodes.
    """
    nodes = list(graph.nodes())
    n = len(nodes)
    best_value = float("inf")
    best_cut: frozenset[NodeId] = frozenset()
    # Enumerate subsets by size; |S| ranges over 1 .. floor(n/2).
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(nodes, size):
            members = set(subset)
            crossing = sum(
                1 for u, v in graph.edges() if (u in members) != (v in members)
            )
            value = crossing / size
            if value < best_value:
                best_value = value
                best_cut = frozenset(members)
                if best_value == 0.0:
                    return ExpansionResult(0.0, best_cut, exact=True)
    return ExpansionResult(best_value, best_cut, exact=True)


def fiedler_order(graph: nx.Graph, normalized: bool = False) -> np.ndarray:
    """Return node indices stably sorted by the Fiedler vector (node order if unsolvable)."""
    # tracemin's start block comes from a fixed seed, not NumPy's global state,
    # so the order is the same in every process even where lambda_2 repeats.
    try:
        fiedler = nx.fiedler_vector(graph, normalized=normalized, method="tracemin_lu", seed=0)
    except (nx.NetworkXError, np.linalg.LinAlgError):
        return np.arange(graph.number_of_nodes())
    return np.argsort(fiedler, kind="stable")


def fixed_cut_counts(arrays, samples: int, seed: int):
    """Return ``(cuts, crossings, volumes)`` of every singleton, then ``samples`` random cuts.

    A random cut has a uniform size up to ``n/2`` and uniform node indices.
    """
    nodes, tails, heads, degrees = arrays
    n = len(nodes)
    rng = SeededRng(seed)
    drawn = [rng.sample(range(n), rng.randint(1, max(1, n // 2))) for _ in range(samples)]
    counts = [prefix_cut_counts(cut, tails, heads, degrees) for cut in drawn]
    loops = np.bincount(tails[tails == heads], minlength=n)
    crossings = np.concatenate([degrees - 2 * loops, [c[-1] for c, _ in counts]])
    volumes = np.concatenate([degrees, [v[-1] for _, v in counts]])
    return [[i] for i in range(n)] + drawn, crossings, volumes


def minimum_expansion_cut(
    graph: nx.Graph,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    samples: int = 64,
    seed: int = 0,
) -> ExpansionResult:
    """Return the (approximate) minimum expansion cut of ``graph``.

    For graphs with at most ``exact_limit`` nodes the result is exact.  For
    larger graphs the returned value is an *upper bound* on ``h(G)`` obtained
    from the best of the Fiedler sweep cuts, singleton cuts and ``samples``
    random cuts, or 0 with the smallest component if disconnected (``exact``
    is ``False`` in that case).
    """
    n = graph.number_of_nodes()
    require(n >= 2, "edge expansion needs at least 2 nodes")
    if n <= exact_limit:
        if n <= MAX_EXACT_NODES:
            return ExpansionResult(*exact_minimum_expansion_cut(graph), exact=True)
        # Caller explicitly asked for exactness beyond the vectorized kernel's
        # cap: honour it with the (very slow) brute force rather than raising.
        return exact_minimum_cut_reference(graph)
    if not nx.is_connected(graph):
        smallest = min(nx.connected_components(graph), key=len)
        return ExpansionResult(0.0, frozenset(smallest), exact=False)
    arrays = cut_arrays(graph)
    order = fiedler_order(graph)[: n // 2]
    swept = prefix_cut_counts(order, *arrays[1:])[0] / np.arange(1, len(order) + 1)
    cuts, crossings, _ = fixed_cut_counts(arrays, samples, seed)
    values = np.concatenate([swept, crossings / [len(cut) for cut in cuts]])
    pos = int(np.argmin(values))  # ties go to the sweep, then singletons, then samples
    cut = order[: pos + 1] if pos < len(swept) else cuts[pos - len(swept)]
    return ExpansionResult(float(values[pos]), frozenset(arrays[0][i] for i in cut), exact=False)


def edge_expansion(
    graph: nx.Graph,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    samples: int = 64,
    seed: int = 0,
) -> float:
    """Return ``h(G)`` (exact for small graphs, best-found upper bound otherwise).

    A disconnected graph has expansion ``0``.  A single-node or empty graph
    raises :class:`repro.util.validation.ValidationError`.
    """
    if graph.number_of_nodes() >= 2 and not nx.is_connected(graph):
        return 0.0
    return minimum_expansion_cut(graph, exact_limit=exact_limit, samples=samples, seed=seed).value


def edge_expansion_bounds(graph: nx.Graph, samples: int = 64, seed: int = 0) -> tuple[float, float]:
    """Return certified ``(lower, upper)`` bounds on ``h(G)`` without enumeration.

    * The upper bound is the best cut found by the spectral sweep + sampling
      (identical to the large-graph path of :func:`edge_expansion`).
    * The lower bound comes from the Cheeger inequality applied to the
      normalized Laplacian: ``h(G) >= d_min * lambda_2(normalized) / 2``.
      (For the empty or disconnected graph both bounds are 0.)
    """
    n = graph.number_of_nodes()
    if n < 2 or not nx.is_connected(graph):
        return (0.0, 0.0)
    upper = minimum_expansion_cut(graph, exact_limit=0, samples=samples, seed=seed).value
    degrees = [degree for _, degree in graph.degree()]
    d_min = min(degrees)
    try:
        lambda_norm = sorted(nx.normalized_laplacian_spectrum(graph))[1].real
    except (np.linalg.LinAlgError, nx.NetworkXError):
        lambda_norm = 0.0
    # phi >= lambda_norm / 2 and h >= d_min * phi.
    lower = max(0.0, d_min * lambda_norm / 2.0)
    # Numerical noise can push the spectral lower bound a hair above the
    # combinatorial upper bound; clamp to keep the interval well-formed.
    lower = min(lower, upper)
    return (lower, upper)
