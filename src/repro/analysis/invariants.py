"""Theorem 2 invariant checkers.

Each checker compares the healed graph ``G_t`` with the ghost graph ``G'_t``
and returns a structured result with the measured quantity, the bound the
theorem promises, and a boolean verdict.  The experiment harness evaluates
them on a cadence; the property-based tests evaluate them after every single
adversarial event.

Every expensive checker measures through a
:class:`~repro.perf.engine.MetricsEngine`, whose fidelity configuration
(exact limit, stretch sample count, seed) it inherits.  Given the healed
graph's version, expansion / lambda / stretch values are served from the
engine's version-keyed cache, so an invariant check right after a metric
snapshot of the same graph version costs nothing; a fresh engine with no
versions passed measures from scratch.
:meth:`~repro.perf.engine.MetricsEngine.check_theorem2` bundles all four
checks into a :class:`Theorem2Verdict`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import networkx as nx

from repro.core.ghost import GhostGraph
from repro.spectral.laplacian import theorem2_lambda_lower_bound
from repro.util.ids import NodeId

if TYPE_CHECKING:  # avoids a runtime import cycle: the engine imports nothing from here at import time
    from repro.perf.engine import MetricsEngine


@dataclass(frozen=True)
class DegreeInvariantResult:
    """Theorem 2(1): ``degree(x, G_t) <= kappa * degree(x, G'_t) + 2*kappa`` for all x."""

    holds: bool
    kappa: int
    worst_node: NodeId | None
    worst_degree: int
    worst_ghost_degree: int
    worst_ratio: float
    violations: tuple[NodeId, ...]


@dataclass(frozen=True)
class StretchInvariantResult:
    """Theorem 2(2): distances grow by at most ``c * log2(n)`` for a constant c."""

    holds: bool
    max_stretch: float
    log_n: float
    allowed_constant: float
    bound: float


@dataclass(frozen=True)
class ExpansionInvariantResult:
    """Theorem 2(3): ``h(G_t) >= min(alpha, h(G'_t))`` for a constant alpha >= 1."""

    holds: bool
    healed_expansion: float
    ghost_expansion: float
    alpha: float
    bound: float


@dataclass(frozen=True)
class SpectralInvariantResult:
    """Theorem 2(4): the explicit lower bound on ``lambda(G_t)``."""

    holds: bool
    healed_lambda: float
    ghost_lambda: float
    bound: float


@dataclass(frozen=True)
class Theorem2Verdict:
    """All four Theorem 2 checks bundled."""

    degree: DegreeInvariantResult
    stretch: StretchInvariantResult
    expansion: ExpansionInvariantResult
    spectral: SpectralInvariantResult
    connected: bool

    @property
    def all_hold(self) -> bool:
        """Return whether every guarantee (plus connectivity) holds."""
        return (
            self.connected
            and self.degree.holds
            and self.stretch.holds
            and self.expansion.holds
            and self.spectral.holds
        )


def check_degree_invariant(
    healed: nx.Graph, ghost: GhostGraph, kappa: int
) -> DegreeInvariantResult:
    """Check ``degree(x, G_t) <= kappa * degree(x, G'_t) + 2*kappa`` for every live node.

    The additive ``2*kappa`` term is exactly Lemma 3's allowance for one
    bridge duty plus one share.
    """
    violations: list[NodeId] = []
    worst_node: NodeId | None = None
    worst_ratio = 0.0
    worst_degree = 0
    worst_ghost = 0
    for node in healed.nodes():
        healed_degree = healed.degree(node)
        ghost_degree = ghost.degree(node)
        bound = kappa * ghost_degree + 2 * kappa
        ratio = healed_degree / max(1, ghost_degree)
        if healed_degree > bound:
            violations.append(node)
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_node = node
            worst_degree = healed_degree
            worst_ghost = ghost_degree
    return DegreeInvariantResult(
        holds=not violations,
        kappa=kappa,
        worst_node=worst_node,
        worst_degree=worst_degree,
        worst_ghost_degree=worst_ghost,
        worst_ratio=worst_ratio,
        violations=tuple(violations),
    )


def check_stretch_invariant(
    healed: nx.Graph,
    ghost: GhostGraph,
    allowed_constant: float = 4.0,
    *,
    engine: "MetricsEngine",
    healed_version: int | None = None,
) -> StretchInvariantResult:
    """Check that the maximum stretch is at most ``allowed_constant * log2(n)``.

    Theorem 2(2) is asymptotic (``O(log n)``); ``allowed_constant`` makes the
    bound concrete.  ``n`` is the number of nodes of ``G'_t`` as in the paper.
    """
    n = max(2, ghost.number_of_nodes())
    log_n = math.log2(n)
    bound = allowed_constant * max(1.0, log_n)
    summary = None
    if len(set(healed.nodes()) & ghost.alive_nodes()) >= 2:
        summary = engine.stretch_summary(
            healed,
            ghost.alive_subgraph,
            healed_version=healed_version,
            ghost_version=ghost.version,
        )
    if summary is None:
        return StretchInvariantResult(True, 0.0, log_n, allowed_constant, bound)
    return StretchInvariantResult(
        holds=summary.max_stretch <= bound,
        max_stretch=summary.max_stretch,
        log_n=log_n,
        allowed_constant=allowed_constant,
        bound=bound,
    )


def check_expansion_invariant(
    healed: nx.Graph,
    ghost: GhostGraph,
    alpha: float = 1.0,
    *,
    engine: "MetricsEngine",
    healed_version: int | None = None,
) -> ExpansionInvariantResult:
    """Check ``h(G_t) >= min(alpha, h(G'_t))``.

    As in the paper, ``G'_t`` is the *full* insertions-only graph (deleted
    nodes included) — it is unchanged by deletions, so the guarantee says the
    healed graph's expansion never falls below what the network would have
    had with no deletions at all (capped at the constant ``alpha``).  A small
    numerical tolerance absorbs the approximation error of the large-graph
    expansion estimator.
    """
    ghost_full = ghost.graph
    if healed.number_of_nodes() < 2 or ghost_full.number_of_nodes() < 2:
        return ExpansionInvariantResult(True, 0.0, 0.0, alpha, 0.0)
    healed_h = engine.edge_expansion(healed, version=healed_version, label="healed")
    # Keyed on graph_version: deletions never change the full ghost graph.
    ghost_h = engine.edge_expansion(ghost_full, version=ghost.graph_version, label="ghost_full")
    bound = min(alpha, ghost_h)
    tolerance = 1e-9
    return ExpansionInvariantResult(
        holds=healed_h + tolerance >= bound,
        healed_expansion=healed_h,
        ghost_expansion=ghost_h,
        alpha=alpha,
        bound=bound,
    )


def check_spectral_invariant(
    healed: nx.Graph,
    ghost: GhostGraph,
    kappa: int,
    *,
    engine: "MetricsEngine",
    healed_version: int | None = None,
) -> SpectralInvariantResult:
    """Check the explicit Theorem 2(4) lower bound on ``lambda(G_t)``.

    As with the expansion check, the reference graph is the full ``G'_t``
    (deleted nodes included), matching the statement of Theorem 2.
    """
    ghost_full = ghost.graph
    if healed.number_of_nodes() < 2 or ghost_full.number_of_nodes() < 2:
        return SpectralInvariantResult(True, 0.0, 0.0, 0.0)
    healed_lambda = engine.algebraic_connectivity(healed, version=healed_version, label="healed")
    ghost_lambda = engine.algebraic_connectivity(
        ghost_full, version=ghost.graph_version, label="ghost_full"
    )
    degrees = [degree for _, degree in ghost_full.degree()]
    d_min = max(1, min(degrees)) if degrees else 1
    d_max = max(1, max(degrees)) if degrees else 1
    bound = theorem2_lambda_lower_bound(ghost_lambda, d_min, d_max, kappa)
    tolerance = 1e-9
    return SpectralInvariantResult(
        holds=healed_lambda + tolerance >= bound,
        healed_lambda=healed_lambda,
        ghost_lambda=ghost_lambda,
        bound=bound,
    )
