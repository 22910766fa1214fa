"""The synchronous round engine.

Messages queued by processors during a round are delivered at the round
boundary; the engine counts rounds and messages globally and per repair
(:class:`RepairStats`), which is exactly the paper's recovery-time and
communication-complexity metrics (Figure 1, success metrics 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.messages import Message
from repro.distributed.node import Processor
from repro.util.ids import NodeId
from repro.util.validation import require


@dataclass
class RepairStats:
    """Per-repair accounting: how many rounds and messages one deletion cost."""

    timestep: int
    deleted_node: NodeId
    rounds: int = 0
    messages: int = 0


class SynchronousNetwork:
    """Holds all processors and advances synchronous communication rounds."""

    def __init__(self) -> None:
        self.processors: dict[NodeId, Processor] = {}
        self.total_rounds = 0
        self.total_messages = 0
        self._current_stats: RepairStats | None = None

    # -- membership -----------------------------------------------------------

    def add_processor(self, node_id: NodeId) -> Processor:
        """Create (or return) the processor for ``node_id``."""
        if node_id not in self.processors:
            self.processors[node_id] = Processor(node_id=node_id)
        return self.processors[node_id]

    def remove_processor(self, node_id: NodeId) -> None:
        """Remove a processor (the adversary deleted the node)."""
        self.processors.pop(node_id, None)

    def processor(self, node_id: NodeId) -> Processor:
        """Return the processor for ``node_id`` (raising if unknown)."""
        require(node_id in self.processors, f"unknown processor {node_id}")
        return self.processors[node_id]

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.processors

    def __len__(self) -> int:
        return len(self.processors)

    # -- repair-scoped accounting ------------------------------------------------

    def begin_repair(self, timestep: int, deleted_node: NodeId) -> RepairStats:
        """Start accounting a new repair; returns the stats object being filled."""
        self._current_stats = RepairStats(timestep=timestep, deleted_node=deleted_node)
        return self._current_stats

    def end_repair(self) -> RepairStats:
        """Finish accounting the current repair and return its stats."""
        require(self._current_stats is not None, "end_repair() without begin_repair()")
        stats, self._current_stats = self._current_stats, None
        return stats

    # -- message passing ------------------------------------------------------------

    def post(self, message: Message) -> None:
        """Queue ``message`` from its sender (it is delivered at the next round boundary)."""
        sender = self.processor(message.sender)
        sender.send(message)

    def run_round(self) -> int:
        """Deliver all queued messages simultaneously; returns how many were delivered.

        A round is counted even if no messages were queued only when the
        caller asks for it explicitly via :meth:`charge_rounds` — silent
        rounds would otherwise inflate the recovery-time metric.
        """
        deliveries: list[Message] = []
        for processor in self.processors.values():
            if processor.outbox:
                deliveries.extend(processor.outbox)
                processor.outbox = []
        delivered = 0
        for message in deliveries:
            if message.receiver in self.processors:
                self.processors[message.receiver].receive(message)
            delivered += 1
        self.total_messages += delivered
        self.total_rounds += 1
        if self._current_stats is not None:
            self._current_stats.messages += delivered
            self._current_stats.rounds += 1
        return delivered

    def charge_rounds(self, count: int) -> None:
        """Account ``count`` communication-free rounds (e.g. synchronisation waits)."""
        require(count >= 0, "count must be non-negative")
        self.total_rounds += count
        if self._current_stats is not None:
            self._current_stats.rounds += count

    def flush(self, max_rounds: int = 1000) -> int:
        """Run rounds until no messages remain in flight; returns rounds used."""
        used = 0
        while any(processor.outbox for processor in self.processors.values()):
            require(used < max_rounds, "message flood: flush exceeded max_rounds")
            self.run_round()
            used += 1
        return used
