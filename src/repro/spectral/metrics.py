"""Combined metric snapshots used by the experiment harness.

A :class:`GraphMetrics` snapshot bundles every quantity Theorem 2 talks about
so the harness can record one row per timestep and the report printers can
emit the paper-style comparison tables.  Snapshots are taken by
:meth:`repro.perf.engine.MetricsEngine.snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class GraphMetrics:
    """All Theorem-2 quantities for one graph (optionally vs. a ghost graph)."""

    nodes: int
    edges: int
    connected: bool
    max_degree: int
    min_degree: int
    edge_expansion: float
    cheeger_constant: float
    algebraic_connectivity: float
    normalized_lambda2: float
    max_stretch: float | None = None
    average_stretch: float | None = None

    def as_dict(self) -> dict:
        """Return a plain-dict view (for recorders and report printers)."""
        return asdict(self)


def compare_metrics(healed: GraphMetrics, ghost: GraphMetrics) -> dict[str, float]:
    """Return the healed/ghost ratios Theorem 2 constrains.

    Keys:

    * ``degree_ratio`` — ``max_degree(G_t) / max_degree(G'_t)`` (Theorem 2.1
      bounds the *per-node* ratio; the max-degree ratio is a coarser but
      monotone proxy recorded alongside the per-node checks in
      :mod:`repro.analysis.invariants`).
    * ``expansion_ratio`` — ``h(G_t) / h(G'_t)``.
    * ``lambda_ratio`` — ``lambda(G_t) / lambda(G'_t)``.

    Ratios with a zero denominator are reported as ``inf``.
    """
    def ratio(numerator: float, denominator: float) -> float:
        if denominator == 0:
            return float("inf")
        return numerator / denominator

    return {
        "degree_ratio": ratio(healed.max_degree, ghost.max_degree),
        "expansion_ratio": ratio(healed.edge_expansion, ghost.edge_expansion),
        "lambda_ratio": ratio(healed.algebraic_connectivity, ghost.algebraic_connectivity),
    }
