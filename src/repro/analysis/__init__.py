"""Analysis layer: invariant checkers and complexity accounting.

* :mod:`repro.analysis.invariants` — checks the four guarantees of Theorem 2
  (degree, stretch, expansion, algebraic connectivity) of a healed graph
  against its ghost graph, producing structured verdicts the tests and
  benchmarks assert on.
* :mod:`repro.analysis.amortized` — Lemma 5's lower bound ``A(p)`` and the
  amortised message/round accounting of Theorem 5.
* :mod:`repro.analysis.trackers` — per-timestep trackers that accumulate the
  Theorem 2 quantities cheaply during a long run (degree ratios every step,
  spectral quantities on a configurable cadence).
* :mod:`repro.analysis.report` — memory-bounded aggregation of streamed
  sweep directories into per-axis markdown/CSV reports (``repro report``).
"""

from repro.analysis.invariants import (
    DegreeInvariantResult,
    ExpansionInvariantResult,
    SpectralInvariantResult,
    StretchInvariantResult,
    Theorem2Verdict,
    check_degree_invariant,
    check_expansion_invariant,
    check_spectral_invariant,
    check_stretch_invariant,
)
from repro.analysis.amortized import (
    AmortizedCostSummary,
    CostLedger,
    lemma5_lower_bound,
    theorem5_upper_bound,
)
from repro.analysis.trackers import DegreeRatioTracker, MetricTimeline, TimelineEntry

__all__ = [
    "DegreeInvariantResult",
    "ExpansionInvariantResult",
    "SpectralInvariantResult",
    "StretchInvariantResult",
    "Theorem2Verdict",
    "check_degree_invariant",
    "check_expansion_invariant",
    "check_spectral_invariant",
    "check_stretch_invariant",
    "AmortizedCostSummary",
    "CostLedger",
    "lemma5_lower_bound",
    "theorem5_upper_bound",
    "DegreeRatioTracker",
    "MetricTimeline",
    "TimelineEntry",
    # lazily loaded (see __getattr__) — the report module pulls in the
    # scenarios layer, which plain invariant checking should not:
    "SweepReport",
    "generate_report",
    "scan_artifact_paths",
]

_LAZY = {
    "SweepReport": "repro.analysis.report",
    "generate_report": "repro.analysis.report",
    "scan_artifact_paths": "repro.analysis.report",
}


def __getattr__(name: str):
    """Load the sweep-report module on demand (keeps import edges acyclic)."""
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
