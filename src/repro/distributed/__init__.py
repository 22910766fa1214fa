"""Distributed implementation of Xheal in the synchronous LOCAL model (Section 5).

The paper's model (Figure 1) is the synchronous LOCAL message-passing model:
processors communicate with their immediate neighbours in rounds, messages
are never lost, message size is unbounded, and local computation is free.
This subpackage simulates that model in-process:

* :mod:`repro.distributed.messages` — message types exchanged by processors.
* :mod:`repro.distributed.node` — per-processor local state: neighbour lists,
  neighbour-of-neighbour (NoN) addresses, and per-cloud knowledge (leader,
  vice-leader, free-node lists at the leader).
* :mod:`repro.distributed.network` — the synchronous round engine with
  message and round accounting per repair.
* :mod:`repro.distributed.protocol` — :class:`DistributedXheal`, which follows
  the centralized :class:`repro.core.Xheal`'s case analysis with
  incrementally kept H-graph clouds (so its healed graphs differ from the
  centralized ones) while realising every repair through explicit protocol
  phases — leader election tournaments, cloud broadcasts, free-node queries,
  H-graph insert/delete updates, and BFS-based cloud merges — whose messages
  and rounds are measured, not estimated.

Benchmark E6 uses the measured counts to verify Theorem 5's ``O(log n)``
rounds per deletion and ``O(kappa log n · A(p))`` amortised messages.
"""

from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import RepairStats, SynchronousNetwork
from repro.distributed.node import CloudView, Processor
from repro.distributed.protocol import DistributedXheal

__all__ = [
    "Message",
    "MessageKind",
    "RepairStats",
    "SynchronousNetwork",
    "CloudView",
    "Processor",
    "DistributedXheal",
]
