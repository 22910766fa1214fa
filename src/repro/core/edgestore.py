"""Struct-of-arrays storage for the healed graph (the data-oriented core).

The per-step cost of a simulation point used to be dominated by NetworkX's
per-edge attribute dictionaries: every claim/release of a cloud edge paid
several hash lookups and dict allocations, and every degree probe built a
``DegreeView``.  :class:`EdgeStore` replaces that with flat numpy columns —
endpoints, packed colour codes, ``was_black`` flags and owner ids live in
parallel arrays indexed by *edge slot*, while a plain dict-of-dicts adjacency
maps ``u -> {v: slot}``.

Two properties are load-bearing:

* **Iteration-order fidelity.**  The adjacency dict mirrors NetworkX's own
  insertion/removal semantics, so node iteration order — which feeds the
  Laplacian's row order and every order-sensitive tie-break in the metric
  kernels — is identical to what a live ``nx.Graph`` would have produced.
  :meth:`to_networkx` therefore materializes a graph whose metrics match the
  pre-rewrite implementation byte for byte (pinned by
  ``tests/test_harness_reference.py``).
* **Ordered node views without a per-event sort.**  Node slots are
  append-only (never reused), so :meth:`slot_of` orders any set of nodes the
  way :meth:`nodes` iterates them;
  :class:`~repro.analysis.trackers.DegreeRatioTracker` re-scores an event's
  touched nodes in that order to keep a full scan's tie-break.
  :attr:`sorted_nodes` keeps every live id in ascending order, so the
  adversaries draw from it instead of sorting every node each step.

The store intentionally speaks a small ``nx.Graph``-compatible dialect
(``nodes() / neighbors() / degree() / edges(nbunch) / number_of_nodes()`` and
``in`` / ``len``): adversaries, the baselines and the distributed protocol
all drive it directly without materializing.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Iterator

import networkx as nx
import numpy as np

from repro.core.colors import BLACK, ColorKind, EdgeColor
from repro.util.graphutils import ensure_simple
from repro.util.ids import NodeId

#: Packed colour-kind codes (column ``_ekind``).
KIND_BLACK = 0
KIND_PRIMARY = 1
KIND_SECONDARY = 2

_KIND_TO_CODE = {
    ColorKind.BLACK: KIND_BLACK,
    ColorKind.PRIMARY: KIND_PRIMARY,
    ColorKind.SECONDARY: KIND_SECONDARY,
}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}

#: ``_eowner0`` value meaning "no owner".
_NO_OWNER = -1

#: Shared EdgeColor instances so materialized graphs reuse (not reallocate)
#: colour objects; ``(KIND_BLACK, 0)`` maps to the module-level ``BLACK``
#: singleton, which tests compare with ``is``.
_COLOR_CACHE: dict[tuple[int, int], EdgeColor] = {(KIND_BLACK, 0): BLACK}


def _color_object(kind_code: int, tag: int) -> EdgeColor:
    color = _COLOR_CACHE.get((kind_code, tag))
    if color is None:
        color = EdgeColor(_CODE_TO_KIND[kind_code], tag)
        _COLOR_CACHE[(kind_code, tag)] = color
    return color


class EdgeStore:
    """A simple undirected graph with packed per-edge attribute columns."""

    __slots__ = (
        "_adj",
        "_node_slot",
        "_node_meta",
        "_node_high",
        "_sorted",
        "_eu",
        "_ev",
        "_ekind",
        "_etag",
        "_ewas_black",
        "_eowner0",
        "_extra_owners",
        "_free_edge_slots",
        "_edge_high",
        "_edge_count",
    )

    def __init__(self) -> None:
        self._adj: dict[NodeId, dict[NodeId, int]] = {}
        # -- nodes (slots are append-only; see module docstring) -------------
        self._node_slot: dict[NodeId, int] = {}
        self._node_meta: dict[NodeId, dict] = {}
        self._node_high = 0
        self._sorted: list[NodeId] = []
        # -- edge columns (slots are recycled through a free list) -----------
        self._eu = np.zeros(32, dtype=np.int64)
        self._ev = np.zeros(32, dtype=np.int64)
        self._ekind = np.zeros(32, dtype=np.int8)
        self._etag = np.zeros(32, dtype=np.int64)
        self._ewas_black = np.zeros(32, dtype=bool)
        self._eowner0 = np.full(32, _NO_OWNER, dtype=np.int64)
        self._extra_owners: dict[int, set[int]] = {}
        self._free_edge_slots: list[int] = []
        self._edge_high = 0
        self._edge_count = 0

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: NodeId) -> None:
        """Add ``node`` (a no-op when it already exists, like nx)."""
        if node in self._adj:
            return
        self._adj[node] = {}
        self._node_slot[node] = self._node_high
        self._node_high += 1
        ids = self._sorted
        if not ids or node > ids[-1]:
            ids.append(node)  # an IdAllocator id is always the largest yet
        else:
            insort(ids, node)

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and every incident edge."""
        neighbors = self._adj.pop(node)
        del self._node_slot[node]
        self._node_meta.pop(node, None)
        for other, slot in neighbors.items():
            del self._adj[other][node]
            self._drop_edge_slot(slot)
        del self._sorted[bisect_left(self._sorted, node)]

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adj)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate nodes in insertion order (matches ``nx.Graph.nodes()``)."""
        return iter(self._adj)

    @property
    def sorted_nodes(self) -> list[NodeId]:
        """Every node in ascending id order: the store's own index, do not mutate.

        Equal to ``sorted(self.nodes())`` at all times, kept up to date by
        :meth:`add_node` and :meth:`remove_node` instead of sorted per read.
        """
        return self._sorted

    def has_node(self, node: NodeId) -> bool:
        return node in self._adj

    def number_of_nodes(self) -> int:
        return len(self._adj)

    # ----------------------------------------------------------- node metadata

    _EMPTY_META: dict = {}

    def set_node_data(self, node: NodeId, data: dict) -> None:
        """Attach an attribute dict to ``node`` (e.g. its failure domain).

        Metadata is pure annotation: it never influences adjacency, degree or
        the packed edge columns, and an empty ``data`` clears the entry so
        unannotated stores keep the zero-cost fast path in
        :meth:`to_networkx`.
        """
        if node not in self._adj:
            raise KeyError(node)
        if data:
            self._node_meta[node] = dict(data)
        else:
            self._node_meta.pop(node, None)

    def node_data(self, node: NodeId) -> dict:
        """Return ``node``'s attribute dict ({} when unannotated; don't mutate)."""
        if node not in self._adj:
            raise KeyError(node)
        return self._node_meta.get(node, self._EMPTY_META)

    def number_of_edges(self) -> int:
        return self._edge_count

    def is_connected(self) -> bool:
        """Return whether the graph is connected (a search over the adjacency).

        Agrees with ``nx.is_connected`` on :meth:`to_networkx`, except that
        the empty store counts as connected where NetworkX raises.
        """
        adj = self._adj
        if not adj:
            return True
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            fresh = adj[stack.pop()].keys() - seen
            seen |= fresh
            stack.extend(fresh)
        return len(seen) == len(adj)

    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node`` (KeyError when absent, like nx)."""
        return len(self._adj[node])

    def neighbors(self, node: NodeId) -> Iterator[NodeId]:
        return iter(self._adj[node])

    def edges(self, nbunch: Iterable[NodeId] | None = None) -> list[tuple[NodeId, NodeId]]:
        """Return edges (each once); with ``nbunch``, edges incident to it."""
        result: list[tuple[NodeId, NodeId]] = []
        if nbunch is None:
            visited: set[NodeId] = set()
            for u, nbrs in self._adj.items():
                for v in nbrs:
                    if v not in visited:
                        result.append((u, v))
                visited.add(u)
            return result
        seen_slots: set[int] = set()
        for u in nbunch:
            nbrs = self._adj.get(u)
            if nbrs is None:
                continue
            for v, slot in nbrs.items():
                if slot not in seen_slots:
                    seen_slots.add(slot)
                    result.append((u, v))
        return result

    # ------------------------------------------------------------------ edges

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def edge_slot(self, u: NodeId, v: NodeId) -> int | None:
        """Return the edge's slot index, or ``None`` when absent (O(1))."""
        nbrs = self._adj.get(u)
        if nbrs is None:
            return None
        return nbrs.get(v)

    def add_edge(
        self,
        u: NodeId,
        v: NodeId,
        color: EdgeColor = BLACK,
        was_black: bool = False,
        owners: Iterable[int] = (),
    ) -> int:
        """Add edge ``(u, v)`` with attributes; returns its slot.

        Endpoints are added implicitly when missing (nx semantics).  Adding
        an existing edge overwrites its attributes, also like nx.
        """
        if u not in self._adj:
            self.add_node(u)
        if v not in self._adj:
            self.add_node(v)
        slot = self._adj[u].get(v)
        if slot is None:
            if self._free_edge_slots:
                slot = self._free_edge_slots.pop()
            else:
                slot = self._edge_high
                if slot >= len(self._eu):
                    self._grow_edges()
                self._edge_high += 1
            self._adj[u][v] = slot
            self._adj[v][u] = slot
            self._eu[slot] = u
            self._ev[slot] = v
            self._edge_count += 1
        self._ekind[slot] = _KIND_TO_CODE[color.kind]
        self._etag[slot] = color.tag
        self._ewas_black[slot] = was_black
        owner_list = list(owners)
        self._eowner0[slot] = owner_list[0] if owner_list else _NO_OWNER
        if len(owner_list) > 1:
            self._extra_owners[slot] = set(owner_list[1:])
        else:
            self._extra_owners.pop(slot, None)
        return slot

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        slot = self._adj[u].pop(v)
        del self._adj[v][u]
        self._drop_edge_slot(slot)

    def _drop_edge_slot(self, slot: int) -> None:
        self._eowner0[slot] = _NO_OWNER
        self._extra_owners.pop(slot, None)
        self._free_edge_slots.append(slot)
        self._edge_count -= 1

    def _grow_edges(self) -> None:
        capacity = max(64, len(self._eu) * 2)
        for name in ("_eu", "_ev", "_ekind", "_etag"):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)
        old_black = self._ewas_black
        new_black = np.zeros(capacity, dtype=bool)
        new_black[: len(old_black)] = old_black
        self._ewas_black = new_black
        old_owner = self._eowner0
        new_owner = np.full(capacity, _NO_OWNER, dtype=np.int64)
        new_owner[: len(old_owner)] = old_owner
        self._eowner0 = new_owner

    # ------------------------------------------------------- edge attributes

    def color(self, u: NodeId, v: NodeId) -> EdgeColor:
        slot = self._adj[u][v]
        return _color_object(int(self._ekind[slot]), int(self._etag[slot]))

    def color_of_slot(self, slot: int) -> EdgeColor:
        return _color_object(int(self._ekind[slot]), int(self._etag[slot]))

    def slot_color_is_black(self, slot: int) -> bool:
        return self._ekind[slot] == KIND_BLACK

    def slot_color_equals(self, slot: int, color: EdgeColor) -> bool:
        return (
            self._ekind[slot] == _KIND_TO_CODE[color.kind]
            and self._etag[slot] == color.tag
        )

    def set_slot_color(self, slot: int, color: EdgeColor) -> None:
        self._ekind[slot] = _KIND_TO_CODE[color.kind]
        self._etag[slot] = color.tag

    def slot_was_black(self, slot: int) -> bool:
        return bool(self._ewas_black[slot])

    def set_slot_was_black(self, slot: int, value: bool) -> None:
        self._ewas_black[slot] = value

    def was_black(self, u: NodeId, v: NodeId) -> bool:
        return bool(self._ewas_black[self._adj[u][v]])

    def owners_of_slot(self, slot: int) -> set[int]:
        """Return the owning cloud ids of an edge slot (a fresh set)."""
        first = int(self._eowner0[slot])
        if first == _NO_OWNER:
            return set()
        owners = {first}
        extra = self._extra_owners.get(slot)
        if extra:
            owners |= extra
        return owners

    def add_slot_owner(self, slot: int, cloud_id: int) -> None:
        first = int(self._eowner0[slot])
        if first == _NO_OWNER:
            self._eowner0[slot] = cloud_id
        elif first != cloud_id:
            extra = self._extra_owners.setdefault(slot, set())
            extra.add(cloud_id)

    def discard_slot_owner(self, slot: int, cloud_id: int) -> int:
        """Remove ``cloud_id`` from the slot's owners; return how many remain."""
        first = int(self._eowner0[slot])
        extra = self._extra_owners.get(slot)
        if first == cloud_id:
            if extra:
                self._eowner0[slot] = extra.pop()
                if not extra:
                    del self._extra_owners[slot]
            else:
                self._eowner0[slot] = _NO_OWNER
        elif extra is not None:
            extra.discard(cloud_id)
            if not extra:
                del self._extra_owners[slot]
        if self._eowner0[slot] == _NO_OWNER:
            return 0
        return 1 + len(self._extra_owners.get(slot, ()))

    # ------------------------------------------------------------ node slots

    def slot_of(self, node: NodeId) -> int:
        """Return ``node``'s slot; slots ascend in :meth:`nodes` order."""
        return self._node_slot[node]

    # --------------------------------------------------------- materializer

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "EdgeStore":
        """Load an initial topology ``G_0``: every edge black and ``was_black``.

        The loading counterpart of :meth:`to_networkx`.  One pass fills the
        columns, and the store is slot for slot the one that :meth:`add_node`
        for every node (with its data) followed by :meth:`add_edge` for every
        edge of ``graph.edges()`` would build: the same node order, neighbour
        order and edge slots.  Raises :class:`ValueError` on self-loops.
        """
        ensure_simple(graph)
        store = cls()
        adj = store._adj
        for node, data in graph.nodes(data=True):
            adj[node] = {}
            if data:
                store._node_meta[node] = dict(data)
        ends: list[NodeId] = []
        for u, v in graph.edges():
            nbrs = adj[u]
            if v not in nbrs:  # multigraphs repeat an edge that is already black
                nbrs[v] = adj[v][u] = len(ends) // 2
                ends += (u, v)
        n, m = len(adj), len(ends) // 2
        while m > len(store._eu):
            store._grow_edges()
        store._node_slot = dict(zip(adj, range(n)))
        store._node_high = n
        store._sorted = sorted(adj)
        store._eu[:m] = ends[0::2]
        store._ev[:m] = ends[1::2]
        store._ewas_black[:m] = True
        store._edge_count = store._edge_high = m
        return store

    def to_networkx(self) -> nx.Graph:
        """Materialize a snapshot ``nx.Graph`` with full edge attribute dicts.

        Node order is the store's (= the order a live nx graph would have);
        edge attributes use the shared :data:`~repro.core.colors.BLACK`
        singleton and plain Python bools, exactly as the pre-rewrite healer
        stored them.  The result is a snapshot: mutating it does not touch
        the store.
        """
        graph = nx.Graph()
        if self._node_meta:
            meta = self._node_meta
            graph.add_nodes_from(
                (node, meta[node]) if node in meta else node for node in self._adj
            )
        else:
            graph.add_nodes_from(self._adj)
        ekind = self._ekind
        etag = self._etag
        ewas_black = self._ewas_black
        add_edge = graph.add_edge
        visited: set[NodeId] = set()
        for u, nbrs in self._adj.items():
            for v, slot in nbrs.items():
                if v in visited:
                    continue
                add_edge(
                    u,
                    v,
                    color=_color_object(int(ekind[slot]), int(etag[slot])),
                    was_black=bool(ewas_black[slot]),
                    owners=self.owners_of_slot(slot),
                )
            visited.add(u)
        return graph
