"""Host-speed calibration: a fixed kernel timed between the workload's calls.

On a shared 2-vCPU cloud VM, other tenants' load slows every process by up
to 2x for minutes at a time, with no steal time or CPU quota visible inside
the guest and CPU time tracking wall time.  A window of one run cannot
average that out.  So every timed workload call is preceded by a
few runs of a fixed kernel that uses no ``repro`` code but the same kinds of
work the program does — interpreted loops over dicts and tuples, NumPy
scalar writes, sorting and a NetworkX graph walk — and end-to-end times are
reported scaled to the kernel's :data:`REFERENCE_S`: ``t * REFERENCE_S /
kernel_s``.  A change to ``repro`` moves the workload's time but never the
kernel's, so the scaled metrics still move with the program alone.
"""

from __future__ import annotations

import random
from time import perf_counter

import networkx as nx
import numpy as np

#: Kernel time the scaled metrics refer to (a round figure for its fastest
#: reading inside a busy benchmark process: 6-7 ms on a 2.1 GHz x86-64 vCPU).
REFERENCE_S = 0.010


def kernel() -> int:
    """Fixed mixed work of a few milliseconds; returns a checksum."""
    rng = random.Random(7)
    graph = nx.random_regular_graph(6, 400, seed=3)
    pairs: dict = {}
    for node in graph.nodes():
        for neighbor in graph.neighbors(node):
            key = (node, neighbor) if node < neighbor else (neighbor, node)
            pairs[key] = pairs.get(key, 0) + 1
    slots = np.zeros(2048)
    for index in range(8000):
        slots[index & 2047] += 1.0
    order = sorted(rng.random() for _ in range(15000))
    reached = nx.single_source_shortest_path_length(graph, 0)
    return len(pairs) + len(order) + len(reached)


class HostSpeed:
    """Kernel timings taken during one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, repeats: int = 3) -> None:
        for _ in range(repeats):
            start = perf_counter()
            kernel()
            self.samples.append(perf_counter() - start)

    @property
    def kernel_s(self) -> float:
        """The kernel's fastest reading in this run."""
        return min(self.samples)

    def scale(self, seconds: float) -> float:
        """Return ``seconds`` scaled to the reference host speed."""
        return seconds * REFERENCE_S / self.kernel_s
