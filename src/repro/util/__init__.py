"""Shared utilities for the Xheal reproduction.

This subpackage deliberately keeps zero dependencies on the rest of the
library so that every other subpackage can import it freely.
"""

from repro.util.ids import IdAllocator, NodeId
from repro.util.rng import SeededRng, derive_seed
from repro.util.graphutils import (
    connected_components_count,
    copy_graph,
    ensure_simple,
    induced_degree,
    is_simple,
    neighbors_of,
    safe_remove_node,
)
from repro.util.validation import (
    ValidationError,
    require,
    require_non_negative,
    require_positive,
    require_probability,
)

__all__ = [
    "IdAllocator",
    "NodeId",
    "SeededRng",
    "derive_seed",
    "connected_components_count",
    "copy_graph",
    "ensure_simple",
    "induced_degree",
    "is_simple",
    "neighbors_of",
    "safe_remove_node",
    "ValidationError",
    "require",
    "require_non_negative",
    "require_positive",
    "require_probability",
]
