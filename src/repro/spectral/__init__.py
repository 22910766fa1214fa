"""Spectral and expansion metrics (Section 1.1 of the paper).

This subpackage implements every graph quantity the paper's theorems bound:

* **edge expansion** ``h(G) = min_{|S| <= n/2} |E(S, S-bar)| / |S|``
* **Cheeger constant / conductance**
  ``phi(G) = min_S |E(S, S-bar)| / min(vol(S), vol(S-bar))``
* **algebraic connectivity** ``lambda_2`` — second-smallest eigenvalue of the
  Laplacian, related to the Cheeger constant through the Cheeger inequality
  ``2 phi >= lambda_2 > phi^2 / 2`` (Theorem 1 of the paper)
* **stretch** — the pairwise-distance ratio between the healed graph ``G_t``
  and the insertions-only ghost graph ``G'_t``
* **mixing time** estimates from the spectral gap of the lazy random walk.

Exact cut quantities are exponential to compute; the implementations provide
exact brute-force evaluation for small graphs and certified bounds /
sampled approximations for larger ones, as documented per function.
"""

from repro.spectral.expansion import (
    crossing_edges_of_cut,
    edge_expansion,
    edge_expansion_bounds,
    edge_expansion_of_cut,
    exact_minimum_cut_reference,
    minimum_expansion_cut,
)
from repro.spectral.cheeger import (
    cheeger_bounds_from_lambda,
    cheeger_constant,
    cheeger_constant_of_cut,
    conductance_sweep,
    exact_cheeger_reference,
)
from repro.spectral.laplacian import (
    algebraic_connectivity,
    algebraic_connectivity_reference,
    laplacian_matrix,
    laplacian_spectrum,
    normalized_lambda2_reference,
    normalized_laplacian_second_eigenvalue,
    spectral_gap,
    theorem2_lambda_lower_bound,
)
from repro.spectral.stretch import (
    average_stretch,
    max_stretch,
    pairwise_stretch,
    pairwise_stretch_reference,
    stretch_against_ghost,
    stretch_against_ghost_reference,
)
from repro.spectral.mixing import (
    lazy_walk_matrix,
    mixing_time_bound_from_lambda,
    spectral_mixing_time,
)
from repro.spectral.metrics import GraphMetrics, compare_metrics

__all__ = [
    "crossing_edges_of_cut",
    "edge_expansion",
    "edge_expansion_bounds",
    "edge_expansion_of_cut",
    "exact_minimum_cut_reference",
    "minimum_expansion_cut",
    "cheeger_bounds_from_lambda",
    "cheeger_constant",
    "cheeger_constant_of_cut",
    "conductance_sweep",
    "exact_cheeger_reference",
    "algebraic_connectivity",
    "algebraic_connectivity_reference",
    "laplacian_matrix",
    "laplacian_spectrum",
    "normalized_lambda2_reference",
    "normalized_laplacian_second_eigenvalue",
    "spectral_gap",
    "theorem2_lambda_lower_bound",
    "average_stretch",
    "max_stretch",
    "pairwise_stretch",
    "pairwise_stretch_reference",
    "stretch_against_ghost",
    "stretch_against_ghost_reference",
    "lazy_walk_matrix",
    "mixing_time_bound_from_lambda",
    "spectral_mixing_time",
    "GraphMetrics",
    "compare_metrics",
]
