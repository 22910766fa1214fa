"""Vectorized cut kernels: exact Gray-code enumeration and prefix sweeps.

The brute-force kernels in :mod:`repro.spectral.expansion` and
:mod:`repro.spectral.cheeger` rescan every edge for every enumerated subset —
O(2^n * m) Python-level work.  The kernels here enumerate the same cuts in
**Gray-code order**, where consecutive subsets differ by exactly one vertex
``v``, so the crossing count evolves by

    delta = +/- (deg(v) - 2 * |N(v) & S|)

an O(deg) update instead of an O(m) rescan.  Membership is bit-packed into a
single ``uint64`` per subset (one bit per non-anchor vertex) and the whole
recurrence — toggled bit, neighbourhood intersection popcount, prefix sum of
deltas, subset sizes and volumes — is evaluated for a block of 2^20 subsets
at a time with NumPy (``np.bitwise_count`` provides the vectorized popcount),
leaving no per-subset Python work at all.

Coverage argument: fix an anchor vertex ``a`` (the first node).  Every subset
``T`` of ``V - {a}`` is enumerated once.  A cut ``S`` with ``|S| <= n/2``
either avoids ``a`` (then ``S = T`` is enumerated directly) or contains ``a``
(then its complement ``V - S`` avoids ``a`` and is enumerated, and
``E(S, S-bar) = E(V-S, S)``), so scoring both ``T`` and ``V - T`` against the
size constraint examines every legal cut exactly through one pass over
``2^(n-1)`` subsets — half the naive count.

Conductance is symmetric under complementation, so for the Cheeger kernel a
single side per enumerated subset suffices.

**Prefix sweeps.**  :func:`prefix_cut_counts` scores every prefix
``order[:k]`` of a node order at once, in O(n + m): an edge whose endpoints
rank ``a <= b`` crosses exactly the prefixes with ``a < k <= b``, so a
difference array over edge ranks cumsums to the crossing counts, and a
degree cumsum gives the volumes.  The expansion and conductance upper
bounds score their Fiedler sweeps and sampled cuts through it.
"""

from __future__ import annotations

import numpy as np
import networkx as nx

from repro.util.ids import NodeId
from repro.util.validation import require

#: Hard safety cap: 2^(MAX_EXACT_NODES-1) subsets are enumerated, so anything
#: beyond ~26 nodes is no longer "interactive" even fully vectorized.
MAX_EXACT_NODES = 26

#: Subsets are processed in blocks of this many to bound peak memory
#: (a block allocates a handful of int64/uint64 arrays of this length).
_BLOCK = 1 << 20

if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:  # NumPy < 2.0: SWAR popcount over uint64 lanes

    def _popcount(values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.uint64).copy()
        v -= (v >> np.uint64(1)) & np.uint64(0x5555555555555555)
        v = (v & np.uint64(0x3333333333333333)) + (
            (v >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (v * np.uint64(0x0101010101010101)) >> np.uint64(56)


def cut_arrays(graph: nx.Graph) -> tuple[list[NodeId], np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(nodes, tails, heads, degrees)``: edge ``j`` joins node indices
    ``tails[j]`` and ``heads[j]``; a self-loop counts twice in ``degrees``."""
    nodes = list(graph)
    index = {node: i for i, node in enumerate(nodes)}
    # fromiter, not a list of index tuples: no per-edge Python objects.
    flat = (index[node] for edge in graph.edges() for node in edge)
    ends = np.fromiter(flat, np.intp, 2 * graph.number_of_edges()).reshape(-1, 2)
    return nodes, ends[:, 0], ends[:, 1], np.bincount(ends.ravel(), minlength=len(nodes))


def _bit_pack(graph: nx.Graph) -> tuple[list[NodeId], np.ndarray, np.ndarray]:
    """Return ``(nodes, degrees, adjacency_masks)`` for the Gray-code scan.

    ``adjacency_masks[b]`` holds, for the vertex at bit position ``b`` (node
    index ``b + 1``; the anchor node index 0 has no bit), the bitmask of its
    neighbours among the non-anchor vertices.  Edges incident to the anchor
    contribute to ``degrees`` only — the anchor is never inside an enumerated
    subset, so those edges always cross.
    """
    nodes, tails, heads, degrees = cut_arrays(graph)
    masks = np.zeros(max(1, len(nodes) - 1), dtype=np.uint64)
    for iu, iv in zip(tails.tolist(), heads.tolist()):
        if iu > 0 and iv > 0:
            masks[iu - 1] |= np.uint64(1) << np.uint64(iv - 1)
            masks[iv - 1] |= np.uint64(1) << np.uint64(iu - 1)
    return nodes, degrees, masks


def _gray_blocks(n: int, degrees: np.ndarray, masks: np.ndarray):
    """Yield ``(gray, sizes, crossings, volumes)`` arrays per subset block.

    ``gray[i]`` is the bit-packed membership of the i-th enumerated subset
    (Gray-code order over the ``n - 1`` non-anchor vertices, empty subset
    excluded), ``crossings[i] = |E(S_i, V - S_i)|`` and
    ``volumes[i] = sum(deg(v) for v in S_i)``.
    """
    one = np.uint64(1)
    tail_degrees = degrees[1:]  # degree of the vertex at each bit position
    total = 1 << (n - 1)
    crossing_carry = 0
    volume_carry = 0
    for start in range(1, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        idx = np.arange(start, stop, dtype=np.uint64)
        gray = idx ^ (idx >> one)
        prev_gray = (idx - one) ^ ((idx - one) >> one)
        # Bit toggled between consecutive Gray codes = trailing-zero count of idx.
        toggled = _popcount((idx & (~idx + one)) - one).astype(np.intp)
        added = ((gray >> toggled.astype(np.uint64)) & one).astype(np.int64)
        sign = 2 * added - 1
        inside = _popcount(masks[toggled] & prev_gray).astype(np.int64)
        deltas = sign * (tail_degrees[toggled] - 2 * inside)
        crossings = crossing_carry + np.cumsum(deltas)
        volumes = volume_carry + np.cumsum(sign * tail_degrees[toggled])
        crossing_carry = int(crossings[-1])
        volume_carry = int(volumes[-1])
        sizes = _popcount(gray).astype(np.int64)
        yield gray, sizes, crossings, volumes


def _subset_from_gray(gray: int, nodes: list[NodeId]) -> frozenset[NodeId]:
    """Decode a bit-packed subset back into node identities."""
    members = set()
    bit = 0
    while gray:
        if gray & 1:
            members.add(nodes[bit + 1])
        gray >>= 1
        bit += 1
    return frozenset(members)


def exact_minimum_expansion_cut(graph: nx.Graph) -> tuple[float, frozenset[NodeId]]:
    """Return ``(h(G), S)`` with ``S`` a minimising cut, ``|S| <= n/2``, exactly.

    Vectorized Gray-code enumeration of all ``2^(n-1)`` anchor-free subsets;
    both the subset and its complement are scored against the ``|S| <= n/2``
    constraint, which covers every legal cut (see module docstring).
    """
    n = graph.number_of_nodes()
    require(n >= 2, "edge expansion needs at least 2 nodes")
    require(n <= MAX_EXACT_NODES, f"exact kernel capped at {MAX_EXACT_NODES} nodes, got {n}")
    nodes, degrees, masks = _bit_pack(graph)
    half = n // 2
    best_value = float("inf")
    best_gray = 0
    best_complement = False
    for gray, sizes, crossings, _volumes in _gray_blocks(n, degrees, masks):
        crossings_f = crossings.astype(np.float64)
        direct = np.where(
            sizes <= half, crossings_f / sizes, np.inf
        )
        complement = np.where(
            n - sizes <= half, crossings_f / (n - sizes), np.inf
        )
        pos = int(np.argmin(direct))
        if direct[pos] < best_value:
            best_value = float(direct[pos])
            best_gray = int(gray[pos])
            best_complement = False
        pos = int(np.argmin(complement))
        if complement[pos] < best_value:
            best_value = float(complement[pos])
            best_gray = int(gray[pos])
            best_complement = True
        if best_value == 0.0:
            break
    members = _subset_from_gray(best_gray, nodes)
    if best_complement:
        members = frozenset(nodes) - members
    return best_value, members


def exact_minimum_cheeger_cut(graph: nx.Graph) -> tuple[float, frozenset[NodeId]]:
    """Return ``(phi(G), S)`` with ``S`` a minimising conductance cut, exactly.

    Conductance ``|E(S, S-bar)| / min(vol(S), vol(S-bar))`` is invariant under
    complementation, so each enumerated anchor-free subset already represents
    its complement too; the returned cut is normalised to the smaller-volume
    side (falling back to the smaller-size side on volume ties) to match the
    reference enumeration's ``|S| <= n/2`` convention.

    Cuts with ``min(vol, vol-bar) == 0`` score ``0.0``, mirroring
    :func:`repro.spectral.cheeger.cheeger_constant_of_cut`.
    """
    n = graph.number_of_nodes()
    require(n >= 2, "conductance needs at least 2 nodes")
    require(n <= MAX_EXACT_NODES, f"exact kernel capped at {MAX_EXACT_NODES} nodes, got {n}")
    nodes, degrees, masks = _bit_pack(graph)
    double_edges = int(degrees.sum())
    best_value = float("inf")
    best_gray = 0
    for gray, sizes, crossings, volumes in _gray_blocks(n, degrees, masks):
        denominators = np.minimum(volumes, double_edges - volumes)
        values = np.where(
            denominators > 0, crossings / np.maximum(denominators, 1), 0.0
        )
        pos = int(np.argmin(values))
        if values[pos] < best_value:
            best_value = float(values[pos])
            best_gray = int(gray[pos])
        if best_value == 0.0:
            break
    members = _subset_from_gray(best_gray, nodes)
    volume = sum(degree for _, degree in graph.degree(members))
    complement_volume = double_edges - volume
    if complement_volume < volume or (
        complement_volume == volume and n - len(members) < len(members)
    ):
        members = frozenset(nodes) - members
    return best_value, members


def prefix_cut_counts(order, tails, heads, degrees) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(crossings, volumes)`` of ``order[:k]`` at index ``k - 1``, in O(n + m).

    Nodes missing from ``order`` rank last: a partial order's last entry is its member cut.
    """
    size = len(order)
    rank = np.full(len(degrees), size)
    rank[order] = np.arange(size)
    first = np.minimum(rank[tails], rank[heads])
    last = np.maximum(rank[tails], rank[heads])
    steps = np.bincount(first + 1, minlength=size + 2) - np.bincount(last + 1, minlength=size + 2)
    return np.cumsum(steps)[1 : size + 1], np.cumsum(degrees[order])
