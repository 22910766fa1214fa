"""Laplacian spectrum and the algebraic connectivity ``lambda_2`` (Section 4.2).

The paper's Theorem 2(4) lower-bounds the second-smallest eigenvalue of the
(combinatorial) Laplacian of the healed graph ``G_t`` in terms of the ghost
graph ``G'_t``::

    lambda(G_t) >= min( Omega( lambda(G'_t)^2 d_min(G'_t) / (kappa^2 d_max(G'_t)^2) ),
                        Omega( 1 / (kappa d_max(G'_t))^2 ) )

:func:`theorem2_lambda_lower_bound` evaluates the explicit constants used in
the proof (via Cheeger's inequality and the degree inequality h/d_max <= phi
<= h/d_min) so the benchmark can compare measured ``lambda(G_t)`` against the
concrete bound rather than an opaque Omega().
"""

from __future__ import annotations

import warnings

import networkx as nx
import numpy as np

from repro.util.validation import require


def laplacian_matrix(graph: nx.Graph) -> np.ndarray:
    """Return the dense combinatorial Laplacian ``L = D - A`` of ``graph``."""
    require(graph.number_of_nodes() >= 1, "graph must be non-empty")
    return nx.laplacian_matrix(graph).toarray().astype(float)


def laplacian_spectrum(graph: nx.Graph) -> np.ndarray:
    """Return the sorted eigenvalues of the combinatorial Laplacian."""
    matrix = laplacian_matrix(graph)
    eigenvalues = np.linalg.eigvalsh(matrix)
    return np.sort(eigenvalues)


def _second_smallest_pair(
    matrix,
    n: int,
    v0: np.ndarray | None,
    want_vector: bool,
    nullspace: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """Return ``(lambda_2, fiedler_vector?)`` of a sparse PSD Laplacian.

    Solver cascade, fastest first:

    1. **LOBPCG** with the known null vector deflated via the ``Y`` constraint
       (``1`` for the combinatorial Laplacian, ``D^{1/2} 1`` for the
       normalized one) and the block warm-started from ``v0`` (the previous
       snapshot's Fiedler vector) when available.  The result is accepted
       only if its residual ``||L x - lambda x||`` verifies it.
    2. **ARPACK shift-invert** at ``sigma = -0.01``.  The shift sits slightly
       *below* zero because a Laplacian is singular (lambda_1 is exactly 0):
       factorizing at ``sigma=0`` hands ARPACK a numerically garbage operator
       — warm starts made that visible.  ``L + 0.01 I`` is positive definite
       and the eigenvalues nearest the shift are still {0, lambda_2}.
    3. **Dense** ``eigh`` as the last resort.
    """
    import scipy.sparse.linalg  # here, not at module level: ``import repro`` skips SciPy
    if nullspace is not None:
        operator = scipy.sparse.csr_matrix(matrix)
        if v0 is not None:
            start = v0.reshape(-1, 1).astype(float)
        else:
            # Deterministic start: any fixed vector not parallel to the null
            # space works; LOBPCG orthogonalises against Y internally.
            start = np.cos(np.arange(n, dtype=float)).reshape(-1, 1)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                values, vectors = scipy.sparse.linalg.lobpcg(
                    operator,
                    start,
                    Y=nullspace.reshape(-1, 1).astype(float),
                    largest=False,
                    tol=1e-9,
                    maxiter=200,
                )
            value = float(values[0])
            vector = vectors[:, 0]
            residual = float(np.linalg.norm(operator @ vector - value * vector))
            if np.isfinite(value) and residual <= 1e-6 * max(1.0, abs(value)):
                return max(value, 0.0), (vector if want_vector else None)
        except (ValueError, np.linalg.LinAlgError):
            pass
    sigma = -1e-2
    try:
        if want_vector:
            eigenvalues, eigenvectors = scipy.sparse.linalg.eigsh(
                matrix, k=2, sigma=sigma, which="LM", v0=v0
            )
            order = np.argsort(eigenvalues)
            return float(max(eigenvalues[order[1]], 0.0)), eigenvectors[:, order[1]]
        eigenvalues = scipy.sparse.linalg.eigsh(
            matrix, k=2, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False
        )
        return float(max(np.sort(eigenvalues)[-1], 0.0)), None
    except (scipy.sparse.linalg.ArpackNoConvergence, RuntimeError, ValueError):
        dense = matrix.toarray() if scipy.sparse.issparse(matrix) else np.asarray(matrix)
        if want_vector:
            eigenvalues, eigenvectors = np.linalg.eigh(dense)
            return float(max(eigenvalues[1], 0.0)), eigenvectors[:, 1]
        spectrum = np.sort(np.linalg.eigvalsh(dense))
        return float(max(spectrum[1], 0.0)), None


def algebraic_connectivity(
    graph: nx.Graph,
    sparse_threshold: int = 400,
    v0: np.ndarray | None = None,
    return_vector: bool = False,
) -> float | tuple[float, np.ndarray | None]:
    """Return ``lambda_2`` of the combinatorial Laplacian of ``graph``.

    For graphs larger than ``sparse_threshold`` nodes a sparse Lanczos solver
    is used (warm-started from ``v0`` when given, e.g. the previous
    snapshot's Fiedler vector); smaller graphs go through a dense
    eigendecomposition which is both faster for small n and numerically
    exact.  With ``return_vector=True`` the result is ``(lambda_2, vector)``
    where ``vector`` is the Fiedler vector in ``list(graph.nodes())`` order
    (``None`` for disconnected graphs).

    A disconnected graph has ``lambda_2 == 0`` (returned exactly as ``0.0``).
    """
    n = graph.number_of_nodes()
    require(n >= 2, "algebraic connectivity needs at least 2 nodes")
    if not nx.is_connected(graph):
        return (0.0, None) if return_vector else 0.0
    if n <= sparse_threshold:
        if return_vector:
            eigenvalues, eigenvectors = np.linalg.eigh(laplacian_matrix(graph))
            return float(max(eigenvalues[1], 0.0)), eigenvectors[:, 1]
        spectrum = laplacian_spectrum(graph)
        return float(max(spectrum[1], 0.0))
    laplacian = nx.laplacian_matrix(graph).astype(float)
    value, vector = _second_smallest_pair(
        laplacian, n, v0, return_vector, nullspace=np.ones(n)
    )
    return (value, vector) if return_vector else value


def algebraic_connectivity_reference(graph: nx.Graph) -> float:
    """Dense ``lambda_2`` of the combinatorial Laplacian (always O(n^3)).

    Ground truth for the sparse/warm-started path's equivalence tests.
    """
    n = graph.number_of_nodes()
    require(n >= 2, "algebraic connectivity needs at least 2 nodes")
    if not nx.is_connected(graph):
        return 0.0
    spectrum = laplacian_spectrum(graph)
    return float(max(spectrum[1], 0.0))


def normalized_laplacian_second_eigenvalue(
    graph: nx.Graph,
    sparse_threshold: int = 400,
    v0: np.ndarray | None = None,
    return_vector: bool = False,
) -> float | tuple[float, np.ndarray | None]:
    """Return ``lambda_2`` of the *normalized* Laplacian of ``graph``.

    This is the eigenvalue appearing in the Cheeger inequality for
    conductance (Theorem 1 of the paper).  Graphs beyond ``sparse_threshold``
    nodes use the sparse Lanczos path (previously this was always a dense
    full-spectrum solve, O(n^3) even at n=1024); ``v0``/``return_vector``
    behave as in :func:`algebraic_connectivity`.
    """
    n = graph.number_of_nodes()
    require(n >= 2, "normalized spectrum needs at least 2 nodes")
    if not nx.is_connected(graph):
        return (0.0, None) if return_vector else 0.0
    if n <= sparse_threshold:
        if return_vector:
            dense = nx.normalized_laplacian_matrix(graph).toarray().astype(float)
            eigenvalues, eigenvectors = np.linalg.eigh(dense)
            return float(max(eigenvalues[1], 0.0)), eigenvectors[:, 1]
        spectrum = np.sort(nx.normalized_laplacian_spectrum(graph).real)
        return float(max(spectrum[1], 0.0))
    import scipy.sparse
    normalized = scipy.sparse.csr_matrix(nx.normalized_laplacian_matrix(graph).astype(float))
    # The normalized Laplacian's null vector is D^{1/2} 1, not 1.
    null_vector = np.sqrt([max(degree, 1) for _, degree in graph.degree()])
    value, vector = _second_smallest_pair(
        normalized, n, v0, return_vector, nullspace=null_vector
    )
    return (value, vector) if return_vector else value


def normalized_lambda2_reference(graph: nx.Graph) -> float:
    """Dense normalized-Laplacian ``lambda_2`` (ground truth for equivalence tests)."""
    n = graph.number_of_nodes()
    require(n >= 2, "normalized spectrum needs at least 2 nodes")
    if not nx.is_connected(graph):
        return 0.0
    spectrum = np.sort(nx.normalized_laplacian_spectrum(graph).real)
    return float(max(spectrum[1], 0.0))


def spectral_gap(graph: nx.Graph) -> float:
    """Return the spectral gap ``1 - mu_2`` of the lazy random-walk matrix.

    ``mu_2`` is the second-largest eigenvalue of ``(I + D^{-1} A) / 2``.  The
    gap is half the normalized-Laplacian ``lambda_2``, so we compute it that
    way for numerical robustness.
    """
    return normalized_laplacian_second_eigenvalue(graph) / 2.0


def theorem2_lambda_lower_bound(
    lambda_ghost: float,
    d_min_ghost: int,
    d_max_ghost: int,
    kappa: int,
) -> float:
    """Evaluate the explicit Theorem 2(4) lower bound on ``lambda(G_t)``.

    Following the proof in Section 4.2 with its explicit constants:

    * Case 1 (``h(G_t) >= h(G'_t)``):
      ``lambda(G_t) >= lambda(G'_t)^2 d_min(G'_t) / (8 kappa^2 d_max(G'_t)^2)``
      — the ``1/8`` and the degree bound ``d_max(G_t) <= kappa d_max(G'_t) + 2 kappa``
      are rolled into the formula.
    * Case 2 (``h(G_t) >= 1``):
      ``lambda(G_t) >= 1 / (2 (kappa d_max(G'_t) + 2 kappa)^2)``.

    The theorem guarantees ``lambda(G_t)`` is at least the *minimum* of the two
    cases, so this function returns that minimum.
    """
    require(kappa >= 1, "kappa must be at least 1")
    require(d_max_ghost >= 1, "d_max_ghost must be at least 1")
    require(d_min_ghost >= 0, "d_min_ghost must be non-negative")
    require(lambda_ghost >= 0, "lambda_ghost must be non-negative")
    d_max_healed = kappa * d_max_ghost + 2 * kappa
    case1 = (lambda_ghost**2) * d_min_ghost / (8.0 * (d_max_healed**2))
    case2 = 1.0 / (2.0 * (d_max_healed**2))
    return min(case1, case2)
