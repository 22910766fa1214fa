"""Fast metrics engine: vectorized cut kernels plus a versioned metric cache.

This package is the performance layer of the reproduction.  The rest of the
library defines *what* each Theorem-2 quantity means (in :mod:`repro.spectral`
and :mod:`repro.analysis`); this package provides *fast ways to compute them*:

* :mod:`repro.perf.kernels` — exact minimum-expansion and minimum-conductance
  cuts via a bit-packed Gray-code enumeration whose per-cut crossing count is
  an O(1)-amortised vectorized update rather than an O(m) edge rescan, and
  the O(n + m) prefix-cut kernel that scores a whole Fiedler sweep at once.
* :mod:`repro.perf.engine` — :class:`~repro.perf.engine.MetricsEngine`, which
  memoises every metric on the owning graph's monotonic version counter
  (``SelfHealer.graph_version`` / ``GhostGraph.version``) and warm-starts the
  sparse eigensolvers from the previous snapshot's Fiedler vector.

The slow, obviously-correct formulations stay available as ``*_reference``
functions in their original modules; the equivalence tests in
``tests/test_perf_equivalence.py`` pin the fast kernels to them.
"""

from repro.perf.kernels import (
    exact_minimum_cheeger_cut,
    exact_minimum_expansion_cut,
)

__all__ = [
    "MetricsCache",
    "MetricsEngine",
    "exact_minimum_cheeger_cut",
    "exact_minimum_expansion_cut",
]


def __getattr__(name: str):
    # The engine sits above repro.spectral while the kernels sit below it
    # (spectral's exact paths call into them), so the engine is loaded lazily
    # to keep `import repro.spectral` acyclic.
    if name in ("MetricsCache", "MetricsEngine"):
        from repro.perf import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
