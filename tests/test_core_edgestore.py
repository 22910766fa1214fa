"""Property tests pinning :class:`EdgeStore` to a plain ``nx.Graph`` shadow.

The struct-of-arrays store must be observationally identical to the
dict-of-dicts ``nx.Graph`` it replaced: same node iteration order, same edge
set, same per-edge colour/was_black/owners attributes, same degrees — under
arbitrary interleavings of node/edge insertion, removal and attribute edits.
A second layer checks the :class:`SelfHealer`-level contract: version bumps
on mutation and materialization caching.  A third pins the bulk loader
:meth:`EdgeStore.from_networkx` to the per-edge path it replaces, and
:meth:`EdgeStore.is_connected` to ``nx.is_connected``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.no_heal import NoHeal
from repro.core.colors import BLACK, primary_color, secondary_color
from repro.core.edgestore import EdgeStore

SETTINGS = settings(max_examples=60, deadline=None)

# One op is (code, a, b, k): code selects the mutation, a/b pick nodes from a
# small universe (collisions are the point), k varies colours and owner ids.
_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=80,
)


def _pick_color(k: int):
    return (BLACK, primary_color(k), secondary_color(k))[k % 3]


def _apply(store: EdgeStore, shadow: nx.Graph, op) -> None:
    code, a, b, k = op
    if code == 0:
        if a not in shadow:
            store.add_node(a)
            shadow.add_node(a)
    elif code == 1:
        if a != b:
            color = _pick_color(k)
            was_black = bool(k % 2)
            owners = {k} if k % 2 else set()
            store.add_edge(a, b, color=color, was_black=was_black, owners=owners)
            shadow.add_edge(a, b, color=color, was_black=was_black, owners=set(owners))
    elif code == 2:
        if shadow.has_edge(a, b):
            store.remove_edge(a, b)
            shadow.remove_edge(a, b)
    elif code == 3:
        if a in shadow:
            store.remove_node(a)
            shadow.remove_node(a)
    elif code == 4:
        if shadow.has_edge(a, b):
            color = _pick_color(k + 1)
            store.set_slot_color(store.edge_slot(a, b), color)
            shadow.edges[a, b]["color"] = color
    elif code == 5:
        if shadow.has_edge(a, b):
            store.add_slot_owner(store.edge_slot(a, b), k)
            shadow.edges[a, b]["owners"].add(k)
    elif code == 6:
        if shadow.has_edge(a, b):
            store.discard_slot_owner(store.edge_slot(a, b), k)
            shadow.edges[a, b]["owners"].discard(k)


def _assert_equivalent(store: EdgeStore, shadow: nx.Graph) -> None:
    assert list(store.nodes()) == list(shadow.nodes())
    assert len(store) == shadow.number_of_nodes()
    assert store.number_of_nodes() == shadow.number_of_nodes()
    assert store.number_of_edges() == shadow.number_of_edges()
    assert {frozenset(edge) for edge in store.edges()} == {
        frozenset(edge) for edge in shadow.edges()
    }
    for node in shadow.nodes():
        assert node in store
        assert store.has_node(node)
        assert store.degree(node) == shadow.degree(node)
        assert set(store.neighbors(node)) == set(shadow.neighbors(node))
    for u, v, data in shadow.edges(data=True):
        assert store.has_edge(u, v) and store.has_edge(v, u)
        slot = store.edge_slot(u, v)
        assert slot == store.edge_slot(v, u)
        assert store.color(u, v) == data["color"]
        assert store.was_black(u, v) is data["was_black"]
        assert store.owners_of_slot(slot) == data["owners"]


@SETTINGS
@given(_OPS)
def test_store_matches_nx_shadow_under_arbitrary_churn(ops):
    store = EdgeStore()
    shadow = nx.Graph()
    for op in ops:
        _apply(store, shadow, op)
    _assert_equivalent(store, shadow)
    # The materializer must reproduce the shadow exactly, attrs included.
    materialized = store.to_networkx()
    assert list(materialized.nodes()) == list(shadow.nodes())
    assert set(map(frozenset, materialized.edges())) == set(map(frozenset, shadow.edges()))
    for u, v, data in shadow.edges(data=True):
        assert materialized.edges[u, v]["color"] == data["color"]
        assert materialized.edges[u, v]["was_black"] is data["was_black"]
        assert materialized.edges[u, v]["owners"] == data["owners"]


@SETTINGS
@given(_OPS)
def test_store_equivalence_holds_at_every_intermediate_state(ops):
    store = EdgeStore()
    shadow = nx.Graph()
    for op in ops[:30]:
        _apply(store, shadow, op)
        _assert_equivalent(store, shadow)


def test_edge_slots_are_recycled_but_node_slots_are_not():
    store = EdgeStore()
    store.add_edge(1, 2)
    first_slot = store.edge_slot(1, 2)
    store.remove_edge(1, 2)
    assert store.edge_slot(1, 2) is None
    assert store.add_edge(3, 4) == first_slot  # edge slot reused from free list
    # Node slots are append-only: reinsertion lands on a fresh slot, so slot
    # order always equals insertion order (the tracker's argmax relies on it).
    slot_of_1 = store.slot_of(1)
    store.remove_node(1)
    store.add_node(1)
    assert store.slot_of(1) > slot_of_1


def test_remove_node_cleans_neighbor_adjacency_and_degrees():
    store = EdgeStore()
    for u, v in [(1, 2), (1, 3), (2, 3)]:
        store.add_edge(u, v)
    store.remove_node(1)
    assert 1 not in store
    assert store.number_of_edges() == 1
    assert store.degree(2) == 1 and store.degree(3) == 1
    assert set(store.neighbors(2)) == {3}
    assert store.edges() == [(2, 3)]


@SETTINGS
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=9)),
        min_size=1,
        max_size=25,
    )
)
def test_healer_graph_version_bumps_and_materialization_cache(events):
    """Every applied adversarial event bumps graph_version; reads are cached."""
    healer = NoHeal(seed=0)
    healer.initialize(nx.path_graph(10))
    for is_deletion, node in events:
        before = healer.graph_version
        if is_deletion:
            if not healer.has_node(node):
                continue
            healer.handle_deletion(node)
        else:
            if healer.has_node(node + 100) or len(healer.nodes()) == 0:
                continue
            anchor = next(iter(healer.graph_store.nodes()))
            healer.handle_insertion(node + 100, [anchor])
        assert healer.graph_version > before
        snapshot = healer.graph
        assert healer.graph is snapshot  # cached until the next mutation
        assert list(snapshot.nodes()) == list(healer.graph_store.nodes())
        assert snapshot.number_of_edges() == healer.graph_store.number_of_edges()


# -- bulk load and connectivity ------------------------------------------------


@st.composite
def _initial_graphs(draw):
    """Graphs with unsorted, non-contiguous ids, isolated nodes and node data.

    Ids are drawn from 0..40 so the ``_OPS`` stream (nodes 0..7) hits loaded
    nodes as well as fresh ones.
    """
    nodes = draw(st.lists(st.integers(min_value=0, max_value=40), unique=True, max_size=14))
    graph = nx.Graph()
    for node in nodes:
        data = draw(st.dictionaries(st.sampled_from(["domain", "zone"]), st.integers(0, 3)))
        graph.add_node(node, **data)
    if len(nodes) >= 2:
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        graph.add_edges_from((u, v) for u, v in draw(st.lists(pairs, max_size=30)) if u != v)
    return graph


def _store_edge_by_edge(graph: nx.Graph) -> EdgeStore:
    """The per-edge load that ``SelfHealer.initialize`` used before the bulk path."""
    store = EdgeStore()
    for node, data in graph.nodes(data=True):
        store.add_node(node)
        if data:
            store.set_node_data(node, data)
    for u, v in graph.edges():
        store.add_edge(u, v, color=BLACK, was_black=True)
    return store


def _graph_layout(graph: nx.Graph):
    """Node order with data, adjacency order with edge attributes."""
    return (
        list(graph.nodes(data=True)),
        [(u, list(graph.adj[u].items())) for u in graph],
    )


def _assert_same_store(bulk: EdgeStore, reference: EdgeStore) -> None:
    assert list(bulk.nodes()) == list(reference.nodes())
    assert bulk.number_of_edges() == reference.number_of_edges()
    for node in reference.nodes():
        assert bulk.slot_of(node) == reference.slot_of(node)
        assert bulk.node_data(node) == reference.node_data(node)
        # Neighbour order and the slot of every edge.
        assert [(v, bulk.edge_slot(node, v)) for v in bulk.neighbors(node)] == [
            (v, reference.edge_slot(node, v)) for v in reference.neighbors(node)
        ]
    for got, want in zip(bulk.node_columns(), reference.node_columns()):
        assert np.array_equal(got, want)
    for u, v in reference.edges():
        slot = reference.edge_slot(u, v)
        assert bulk.color_of_slot(slot) == reference.color_of_slot(slot)
        assert bulk.slot_was_black(slot) == reference.slot_was_black(slot)
        assert bulk.owners_of_slot(slot) == reference.owners_of_slot(slot)
    assert _graph_layout(bulk.to_networkx()) == _graph_layout(reference.to_networkx())


def _nx_connected(graph: nx.Graph) -> bool:
    # NetworkX raises on the null graph; the store calls it connected.
    return graph.number_of_nodes() == 0 or nx.is_connected(graph)


@SETTINGS
@given(_initial_graphs(), _OPS)
def test_from_networkx_matches_the_edge_by_edge_store_through_churn(graph, ops):
    bulk = EdgeStore.from_networkx(graph)
    reference = _store_edge_by_edge(graph)
    _assert_same_store(bulk, reference)
    assert bulk.is_connected() == _nx_connected(graph)
    bulk_shadow, reference_shadow = bulk.to_networkx(), reference.to_networkx()
    for op in ops:
        _apply(bulk, bulk_shadow, op)
        _apply(reference, reference_shadow, op)
        _assert_same_store(bulk, reference)
        _assert_equivalent(bulk, bulk_shadow)
        assert bulk.is_connected() == _nx_connected(bulk_shadow)


def test_is_connected_on_tiny_stores():
    store = EdgeStore()
    assert store.is_connected()  # nx.is_connected raises on the null graph
    store.add_node(5)
    assert store.is_connected() == nx.is_connected(store.to_networkx())
    store.add_node(9)
    assert not store.is_connected()
    store.add_edge(9, 5)
    assert store.is_connected()


def test_from_networkx_keeps_the_self_loop_check():
    graph = nx.Graph([(0, 1), (1, 2)])
    graph.add_edge(2, 2)
    with pytest.raises(ValueError, match="self-loop"):
        EdgeStore.from_networkx(graph)
    with pytest.raises(ValueError, match="self-loop"):
        NoHeal(seed=0).initialize(graph)
