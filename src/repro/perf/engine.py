"""The metrics engine: version-keyed caching + warm-started spectral solves.

:class:`MetricsEngine` is the one way the library measures a Theorem-2
quantity: metric snapshots, timeline rows and invariant verdicts all go
through it.  An experiment step would otherwise recompute everything from
scratch even when the graph had not changed between the final snapshot, the
ghost snapshot and the Theorem-2 invariant checks, so the engine memoises
each kernel on a *version* the graph's owner maintains:

* the healed graph's :attr:`repro.core.healer.SelfHealer.graph_version`
  (bumped on insertion, deletion, and every healing edge claim/release),
* the ghost graph's :attr:`repro.core.ghost.GhostGraph.version`
  (bumped on every recorded event).

Equal versions guarantee an unchanged graph, so a cache hit returns the
previous value without touching the graph at all.  Calls with ``version=None``
bypass the cache (safe default for graphs with no version authority).

The engine also remembers the Fiedler vector of the last spectral solve per
``(label, kind)`` stream and feeds it to the sparse Lanczos solver as the
starting vector ``v0`` of the next solve: per-timestep deltas are tiny (one
deletion, O(1) rewired cloud edges), so the previous eigenvector is an
excellent initial guess.
"""

from __future__ import annotations

from typing import Callable

import networkx as nx
import numpy as np

from repro.core.ghost import GhostGraph
from repro.spectral.cheeger import cheeger_constant
from repro.spectral.expansion import DEFAULT_EXACT_LIMIT, edge_expansion
from repro.spectral.laplacian import (
    algebraic_connectivity,
    normalized_laplacian_second_eigenvalue,
)
from repro.spectral.metrics import GraphMetrics
from repro.spectral.stretch import StretchSummary, stretch_against_ghost
from repro.util.graphutils import max_degree, min_degree
from repro.util.ids import NodeId

_MISS = object()


class MetricsCache:
    """A ``key -> (version, value)`` store with hit/miss accounting.

    One slot per key: a new version overwrites the old entry, which is exactly
    the access pattern of an experiment loop (metrics of the *current* graph
    are asked for repeatedly; historic versions never come back).
    """

    def __init__(self) -> None:
        self._store: dict[object, tuple[object, object]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: object, version: object):
        """Return the cached value for ``key`` at ``version``, or the miss sentinel."""
        if version is None:
            self.misses += 1
            return _MISS
        entry = self._store.get(key)
        if entry is not None and entry[0] == version:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return _MISS

    def store(self, key: object, version: object, value: object) -> None:
        """Record ``value`` for ``key`` at ``version`` (no-op for unversioned calls)."""
        if version is not None:
            self._store[key] = (version, value)

    def stats(self) -> dict[str, int]:
        """Return hit/miss counters (handy for tests and reports)."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._store)}


class MetricsEngine:
    """Incremental, cached computation of every Theorem-2 metric.

    Parameters mirror the experiment configuration: ``exact_limit`` bounds the
    exact expansion/conductance enumeration, ``stretch_sample_pairs`` the
    stretch sampling, and ``seed`` the sampled estimators.  They are fixed at
    construction so that cached values are always comparable; callers that
    need different fidelity use a second engine, and a one-off measurement
    is a fresh engine called with no versions.

    ``label`` arguments name independent graph streams ("healed",
    "ghost_full", "ghost_alive", ...) so one engine can serve several graphs
    whose version counters are unrelated.
    """

    def __init__(
        self,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        stretch_sample_pairs: int | None = 200,
        seed: int = 0,
        sparse_threshold: int = 400,
    ) -> None:
        self.exact_limit = exact_limit
        self.stretch_sample_pairs = stretch_sample_pairs
        self.seed = seed
        self.sparse_threshold = sparse_threshold
        self.cache = MetricsCache()
        self._fiedler: dict[tuple[str, str], dict[NodeId, float]] = {}

    # -- scalar kernels -----------------------------------------------------------

    def connected(self, graph: nx.Graph, version: int | None = None, label: str = "healed") -> bool:
        """Cached ``nx.is_connected`` (single-node graphs count as connected)."""
        cached = self.cache.lookup(("connected", label), version)
        if cached is not _MISS:
            return cached
        value = graph.number_of_nodes() <= 1 or nx.is_connected(graph)
        self.cache.store(("connected", label), version, value)
        return value

    def edge_expansion(
        self, graph: nx.Graph, version: int | None = None, label: str = "healed"
    ) -> float:
        """Cached ``h(G)`` (exact up to ``exact_limit`` nodes, bound beyond)."""
        cached = self.cache.lookup(("expansion", label), version)
        if cached is not _MISS:
            return cached
        value = edge_expansion(graph, exact_limit=self.exact_limit, seed=self.seed)
        self.cache.store(("expansion", label), version, value)
        return value

    def cheeger_constant(
        self, graph: nx.Graph, version: int | None = None, label: str = "healed"
    ) -> float:
        """Cached ``phi(G)``."""
        cached = self.cache.lookup(("cheeger", label), version)
        if cached is not _MISS:
            return cached
        value = cheeger_constant(graph, exact_limit=self.exact_limit, seed=self.seed)
        self.cache.store(("cheeger", label), version, value)
        return value

    def algebraic_connectivity(
        self, graph: nx.Graph, version: int | None = None, label: str = "healed"
    ) -> float:
        """Cached ``lambda_2`` of the combinatorial Laplacian, warm-started."""
        return self._spectral(
            graph,
            version,
            label,
            kind="combinatorial",
            solver=algebraic_connectivity,
        )

    def normalized_lambda2(
        self, graph: nx.Graph, version: int | None = None, label: str = "healed"
    ) -> float:
        """Cached ``lambda_2`` of the normalized Laplacian, warm-started."""
        return self._spectral(
            graph,
            version,
            label,
            kind="normalized",
            solver=normalized_laplacian_second_eigenvalue,
        )

    def _spectral(
        self,
        graph: nx.Graph,
        version: int | None,
        label: str,
        kind: str,
        solver: Callable,
    ) -> float:
        cached = self.cache.lookup((kind, label), version)
        if cached is not _MISS:
            return cached
        n = graph.number_of_nodes()
        want_vector = n > self.sparse_threshold
        v0 = self._warm_start((label, kind), graph) if want_vector else None
        result = solver(
            graph,
            sparse_threshold=self.sparse_threshold,
            v0=v0,
            return_vector=want_vector,
        )
        if want_vector:
            value, vector = result
            if vector is not None:
                self._fiedler[(label, kind)] = dict(zip(graph.nodes(), vector.tolist()))
        else:
            value = result
        self.cache.store((kind, label), version, value)
        return value

    def _warm_start(self, key: tuple[str, str], graph: nx.Graph) -> np.ndarray | None:
        """Project the previous Fiedler vector onto the current node set.

        Surviving nodes keep their old component, new nodes get the mean; the
        result is centred (orthogonal-ish to the trivial eigenvector) and
        normalised.  Returns ``None`` when fewer than half the nodes overlap
        with the stored vector (a cold or stale state would not help ARPACK).
        """
        state = self._fiedler.get(key)
        if not state:
            return None
        nodes = list(graph.nodes())
        hits = [state.get(node) for node in nodes]
        known = [h for h in hits if h is not None]
        if len(known) < max(2, len(nodes) // 2):
            return None
        fill = sum(known) / len(known)
        vector = np.array([h if h is not None else fill for h in hits], dtype=float)
        vector -= vector.mean()
        norm = np.linalg.norm(vector)
        if norm < 1e-12:
            return None
        return vector / norm

    # -- stretch ------------------------------------------------------------------

    def stretch_summary(
        self,
        healed: nx.Graph,
        ghost_alive: nx.Graph | Callable[[], nx.Graph],
        healed_version: int | None = None,
        ghost_version: int | None = None,
        label: str = "healed",
    ) -> StretchSummary | None:
        """Cached stretch summary of ``healed`` against the alive ghost subgraph.

        ``ghost_alive`` may be a graph or a zero-argument factory (e.g.
        ``ghost.alive_subgraph``); the factory is only invoked on a cache
        miss, so repeated invariant checks of an unchanged pair never even
        materialize the subgraph.  ``label`` names the healed-graph stream,
        like every other kernel.  Returns ``None`` when fewer than two nodes
        are shared.
        """
        key = ("stretch", label)
        version = (
            None
            if healed_version is None or ghost_version is None
            else (healed_version, ghost_version)
        )
        cached = self.cache.lookup(key, version)
        if cached is not _MISS:
            return cached
        ghost_graph = ghost_alive() if callable(ghost_alive) else ghost_alive
        if len(set(healed.nodes()) & set(ghost_graph.nodes())) < 2:
            summary = None
        else:
            summary = stretch_against_ghost(
                healed,
                ghost_graph,
                sample_pairs=self.stretch_sample_pairs,
                seed=self.seed,
            )
        self.cache.store(key, version, summary)
        return summary

    # -- snapshots ----------------------------------------------------------------

    def snapshot(
        self,
        graph: nx.Graph,
        ghost: nx.Graph | None = None,
        version: int | None = None,
        ghost_version: int | None = None,
        label: str = "healed",
    ) -> GraphMetrics:
        """Compute (or fetch) a full :class:`GraphMetrics` snapshot of ``graph``.

        Every constituent kernel goes through the version cache, so a
        snapshot followed by an invariant check of the same graph version
        recomputes nothing.  When ``ghost`` is given and shares at least two
        nodes with ``graph``, stretch statistics against it are included.
        """
        key = ("snapshot", label, ghost is not None)
        # With a ghost, an unknown ghost_version must bypass the cache (None is
        # "no version authority", not a version), mirroring stretch_summary.
        if version is None or (ghost is not None and ghost_version is None):
            full_version = None
        else:
            full_version = (version, ghost_version if ghost is not None else None)
        cached = self.cache.lookup(key, full_version)
        if cached is not _MISS:
            return cached
        n = graph.number_of_nodes()
        if n < 2:
            metrics = GraphMetrics(
                nodes=n,
                edges=graph.number_of_edges(),
                connected=n == 1,
                max_degree=max_degree(graph),
                min_degree=min_degree(graph),
                edge_expansion=0.0,
                cheeger_constant=0.0,
                algebraic_connectivity=0.0,
                normalized_lambda2=0.0,
            )
            self.cache.store(key, full_version, metrics)
            return metrics
        max_s: float | None = None
        avg_s: float | None = None
        if ghost is not None:
            summary = self.stretch_summary(
                graph, ghost, healed_version=version, ghost_version=ghost_version, label=label
            )
            if summary is not None:
                max_s = summary.max_stretch
                avg_s = summary.average_stretch
        metrics = GraphMetrics(
            nodes=n,
            edges=graph.number_of_edges(),
            connected=self.connected(graph, version, label),
            max_degree=max_degree(graph),
            min_degree=min_degree(graph),
            edge_expansion=self.edge_expansion(graph, version, label),
            cheeger_constant=self.cheeger_constant(graph, version, label),
            algebraic_connectivity=self.algebraic_connectivity(graph, version, label),
            normalized_lambda2=self.normalized_lambda2(graph, version, label),
            max_stretch=max_s,
            average_stretch=avg_s,
        )
        self.cache.store(key, full_version, metrics)
        return metrics

    def check_theorem2(
        self,
        healed: nx.Graph,
        ghost: GhostGraph,
        kappa: int,
        healed_version: int | None = None,
        alpha: float = 1.0,
        stretch_constant: float = 4.0,
    ):
        """Evaluate all four Theorem 2 guarantees plus connectivity.

        The ghost versions are read off the :class:`GhostGraph` itself; with
        ``healed_version`` every expensive quantity (expansion, lambda,
        stretch, connectivity) is served from the version cache when a
        snapshot of the same graph version was already taken.
        """
        from repro.analysis.invariants import (
            Theorem2Verdict,
            check_degree_invariant,
            check_expansion_invariant,
            check_spectral_invariant,
            check_stretch_invariant,
        )

        connected = self.connected(healed, version=healed_version, label="healed")
        return Theorem2Verdict(
            degree=check_degree_invariant(healed, ghost, kappa),
            stretch=check_stretch_invariant(
                healed, ghost, stretch_constant, engine=self, healed_version=healed_version
            ),
            expansion=check_expansion_invariant(
                healed, ghost, alpha, engine=self, healed_version=healed_version
            ),
            spectral=check_spectral_invariant(
                healed, ghost, kappa, engine=self, healed_version=healed_version
            ),
            connected=connected,
        )

    # -- diagnostics --------------------------------------------------------------

    def cache_stats(self) -> dict[str, int]:
        """Return the cache's hit/miss counters."""
        return self.cache.stats()
