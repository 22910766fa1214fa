"""DistributedXheal: the protocol-level implementation with measured costs.

The healer follows the same case analysis as :class:`repro.core.Xheal`
(Cases 1, 2.1 and 2.2, with the same free-node and merge rules; the LOCAL
model lets an elected leader compute a cloud's expander locally).  Its cloud
expanders, however, are Law-Siu H-graphs kept *incrementally* (see below),
while the centralized healer re-randomises a cloud on every change, so the
two healers build different healed graphs from the same trace: a cloud edge
may claim an original black edge in one and not in the other, and later
repairs then see different black neighbours.  Both must meet Theorem 2.
What this class adds is the *realisation* of every repair through explicit
protocol phases executed on a :class:`~repro.distributed.network.SynchronousNetwork`:

* deletion notices to the ex-neighbours of the deleted node,
* leader-election tournaments inside newly formed clouds,
* per-edge cloud-assignment messages from the leader,
* vice-leader state replication,
* free-node queries/replies to cloud leaders,
* incremental H-graph maintenance (cycle splice / reconnect messages) when a
  cloud is repaired rather than rebuilt,
* BFS collection + broadcast when clouds must be merged.

The measured per-deletion round and message counts (Figure 1's success
metrics 4 and 5) feed benchmark E6, which compares them against Lemma 5's
lower bound and Theorem 5's ``O(kappa log n · A(p))`` upper bound.

Unlike the centralized healer, cloud expanders here are maintained
*incrementally* as Law-Siu H-graphs (the paper's construction), so repairing
a cloud after a member deletion costs O(kappa) messages rather than a
rebuild.
"""

from __future__ import annotations

from repro.core.clouds import Cloud
from repro.core.colors import EdgeColor
from repro.core.events import RepairReport
from repro.core.xheal import Xheal, XhealConfig
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import SynchronousNetwork
from repro.expanders.construction import build_clique_edges, hamilton_cycle_count
from repro.scenarios.registry import register_healer
from repro.expanders.hgraph import HGraph
from repro.util.ids import NodeId


@register_healer("distributed-xheal")
class DistributedXheal(Xheal):
    """Xheal with an explicit LOCAL-model protocol simulation and real cost accounting."""

    name = "xheal-distributed"

    def __init__(self, config: XhealConfig | None = None, kappa: int | None = None, seed: int = 0):
        super().__init__(config=config, kappa=kappa, seed=seed)
        self.network = SynchronousNetwork()
        #: Per-cloud incremental H-graph (only for clouds large enough to use one).
        self._cloud_hgraphs: dict[int, HGraph] = {}
        #: Per-cloud (leader, vice_leader) as known by the protocol layer.
        self._cloud_leaders: dict[int, tuple[NodeId, NodeId | None]] = {}

    # ------------------------------------------------------------------ lifecycle

    def _after_initialize(self) -> None:
        super()._after_initialize()
        self.network = SynchronousNetwork()
        self._cloud_hgraphs = {}
        self._cloud_leaders = {}
        for node in self._graph.nodes():
            self.network.add_processor(node)
        self._sync_processor_topology()

    def _after_insertion(self, node: NodeId, neighbors: list[NodeId], report: RepairReport) -> None:
        # Insertion requires no healing work; the new processor just appears
        # with its adversary-chosen edges and the neighbourhood tables refresh
        # (the O(1)-round NoN pre-processing of the model).
        self.network.add_processor(node)
        self._sync_processor_topology()

    def handle_deletion(self, node: NodeId) -> RepairReport:
        timestep = self._timestep + 1
        neighbors = sorted(self._graph.neighbors(node)) if node in self._graph else []
        self.network.begin_repair(timestep, node)
        self.network.remove_processor(node)
        # The model informs every ex-neighbour of the deletion (Figure 1):
        # one notification message reaches each surviving ex-neighbour.
        survivors = [neighbor for neighbor in neighbors if neighbor in self.network]
        if survivors:
            origin = survivors[0]
            for neighbor in survivors:
                if neighbor != origin:
                    self.network.post(
                        Message(origin, neighbor, MessageKind.DELETION_NOTICE, {"deleted": node})
                    )
            self.network.run_round()

        report = super().handle_deletion(node)

        self._sync_processor_topology()
        finished = self.network.end_repair()
        # Replace the analytical estimates with the measured protocol costs.
        report.messages = finished.messages
        report.rounds = finished.rounds
        return report

    # ------------------------------------------------------------------ protocol phases

    def _phase_leader_election(self, members: list[NodeId]) -> NodeId | None:
        """Elect a leader among ``members`` with a pairwise tournament (O(log m) rounds)."""
        survivors = sorted(node for node in members if node in self.network)
        if not survivors:
            return None
        if len(survivors) == 1:
            return survivors[0]
        while len(survivors) > 1:
            next_round: list[NodeId] = []
            for i in range(0, len(survivors) - 1, 2):
                first, second = survivors[i], survivors[i + 1]
                self.network.post(Message(first, second, MessageKind.ELECTION_CHALLENGE))
                self.network.post(Message(second, first, MessageKind.ELECTION_ACK))
                winner = first if self._rng.coin() else second
                next_round.append(winner)
            if len(survivors) % 2 == 1:
                next_round.append(survivors[-1])
            self.network.run_round()
            survivors = next_round
        return survivors[0]

    def _phase_install_cloud(self, cloud: Cloud, leader: NodeId | None) -> None:
        """Leader announces itself, informs every edge endpoint, and syncs a vice-leader."""
        members = sorted(node for node in cloud.members if node in self.network)
        if leader is None or leader not in self.network or not members:
            return
        for member in members:
            if member != leader:
                self.network.post(
                    Message(leader, member, MessageKind.LEADER_ANNOUNCE, {"cloud": cloud.cloud_id})
                )
        self.network.run_round()
        # One assignment message per edge endpoint: O(kappa * |members|) total.
        posted = False
        for u, v in sorted(cloud.edges):
            for endpoint, other in ((u, v), (v, u)):
                if endpoint in self.network and endpoint != leader:
                    self.network.post(
                        Message(
                            leader, endpoint, MessageKind.CLOUD_ASSIGNMENT,
                            {"cloud": cloud.cloud_id, "peer": other},
                        )
                    )
                    posted = True
        vice = next((member for member in members if member != leader), None)
        if vice is not None:
            self.network.post(
                Message(leader, vice, MessageKind.VICE_LEADER_SYNC, {"cloud": cloud.cloud_id})
            )
            posted = True
        if posted:
            self.network.run_round()
        self._cloud_leaders[cloud.cloud_id] = (leader, vice)
        self._update_cloud_views(cloud, leader, vice)

    def _phase_incremental_repair(self, cloud: Cloud, changed_edges: int) -> None:
        """Account the O(kappa) cycle-reconnect messages of an in-place cloud repair."""
        leader, vice = self._cloud_leaders.get(cloud.cloud_id, (None, None))
        members = sorted(node for node in cloud.members if node in self.network)
        if not members:
            return
        if leader is None or leader not in self.network:
            # The leader itself was deleted: the vice-leader promotes a new
            # random leader and informs the cloud (O(|C|) messages, O(1) rounds).
            new_leader = self._rng.choice(members)
            announcer = vice if vice is not None and vice in self.network else new_leader
            for member in members:
                if member != announcer:
                    self.network.post(
                        Message(announcer, member, MessageKind.LEADER_ANNOUNCE, {"cloud": cloud.cloud_id})
                    )
            self.network.run_round()
            vice = next((member for member in members if member != new_leader), None)
            leader = new_leader
            self._cloud_leaders[cloud.cloud_id] = (leader, vice)
        posted = False
        pairs = min(changed_edges, 2 * hamilton_cycle_count(self.kappa) * 2)
        for index in range(max(1, pairs)):
            sender = members[index % len(members)]
            receiver = members[(index + 1) % len(members)]
            if sender != receiver:
                self.network.post(
                    Message(sender, receiver, MessageKind.CYCLE_RECONNECT, {"cloud": cloud.cloud_id})
                )
                posted = True
        # The affected members report their new free/non-free status to the leader.
        if leader in self.network:
            reporter = members[0]
            if reporter != leader:
                self.network.post(
                    Message(reporter, leader, MessageKind.FREE_STATUS_UPDATE, {"cloud": cloud.cloud_id})
                )
                posted = True
        if posted:
            self.network.run_round()
        self._update_cloud_views(cloud, leader, vice)

    def _phase_free_node_queries(self, cloud_ids: list[int]) -> None:
        """One query + one reply per involved cloud leader (O(j) messages, O(1) rounds)."""
        posted = False
        for cloud_id in cloud_ids:
            leader, _ = self._cloud_leaders.get(cloud_id, (None, None))
            if leader is None or leader not in self.network:
                continue
            requester = None
            if cloud_id in self.registry:
                members = sorted(
                    node for node in self.registry.get(cloud_id).members if node in self.network
                )
                requester = members[0] if members else None
            if requester is None or requester == leader:
                continue
            self.network.post(
                Message(requester, leader, MessageKind.FREE_NODE_QUERY, {"cloud": cloud_id})
            )
            self.network.post(
                Message(leader, requester, MessageKind.FREE_NODE_REPLY, {"cloud": cloud_id})
            )
            posted = True
        if posted:
            self.network.run_round()

    def _phase_merge(self, merged: Cloud, source_sizes: list[int]) -> None:
        """BFS collection + broadcast for a cloud merge (O(log n) rounds, O(kappa·M·log n) msgs)."""
        members = sorted(node for node in merged.members if node in self.network)
        if not members:
            return
        leader = self._phase_leader_election(members)
        if leader is None:
            return
        # BFS over the healed graph restricted to the merged members: token
        # flooding out, address reports converging back.
        member_set = set(members)
        depth = 0
        frontier = {leader}
        visited = {leader}
        while frontier:
            next_frontier: set[NodeId] = set()
            posted = False
            for node in frontier:
                if node not in self._graph:
                    continue
                for neighbor in self._graph.neighbors(node):
                    if neighbor in member_set and neighbor not in visited and neighbor in self.network:
                        self.network.post(
                            Message(node, neighbor, MessageKind.BFS_TOKEN, {"cloud": merged.cloud_id})
                        )
                        self.network.post(
                            Message(neighbor, node, MessageKind.BFS_REPORT, {"cloud": merged.cloud_id})
                        )
                        next_frontier.add(neighbor)
                        posted = True
            visited |= next_frontier
            if posted:
                self.network.run_round()
                depth += 1
            frontier = next_frontier
        self._phase_install_cloud(merged, leader)

    # ------------------------------------------------------------------ decision hooks

    def _desired_cloud_edges(self, cloud: Cloud) -> set[tuple[NodeId, NodeId]]:
        """Incrementally maintained H-graph edges (clique below the kappa threshold)."""
        members = sorted(node for node in cloud.members if node in self._graph)
        if len(members) <= self.kappa + 1 or len(members) < 4:
            self._cloud_hgraphs.pop(cloud.cloud_id, None)
            return build_clique_edges(members)
        hgraph = self._cloud_hgraphs.get(cloud.cloud_id)
        d = hamilton_cycle_count(self.kappa)
        if hgraph is None or hgraph.d != d or len(hgraph) < 3:
            hgraph = HGraph(members, d=d, rng=self._rng.child("hgraph", cloud.cloud_id))
            self._cloud_hgraphs[cloud.cloud_id] = hgraph
            return hgraph.simple_edges()
        current = set(members)
        existing = hgraph.nodes()
        for node in sorted(existing - current):
            if len(hgraph) > 3:
                hgraph.delete(node)
            else:
                hgraph = HGraph(members, d=d, rng=self._rng.child("hgraph", cloud.cloud_id, "rebuild"))
                self._cloud_hgraphs[cloud.cloud_id] = hgraph
                return hgraph.simple_edges()
        for node in sorted(current - hgraph.nodes()):
            hgraph.insert(node)
        return hgraph.simple_edges()

    def _rebuild_cloud_edges(self, cloud: Cloud, report: RepairReport) -> None:
        known_cloud = cloud.cloud_id in self._cloud_leaders
        edges_before = len(cloud.edges)
        super()._rebuild_cloud_edges(cloud, report)
        changed = abs(len(cloud.edges) - edges_before) + 1
        if not known_cloud:
            leader = self._phase_leader_election(sorted(cloud.members))
            self._phase_install_cloud(cloud, leader)
        else:
            self._phase_incremental_repair(cloud, changed_edges=changed)

    def _assign_free_nodes(self, cloud_ids: list[int], report: RepairReport):
        self._phase_free_node_queries(cloud_ids)
        return super()._assign_free_nodes(cloud_ids, report)

    def _merge_primary_clouds(self, cloud_ids: list[int], report: RepairReport) -> Cloud:
        source_sizes = [
            self.registry.get(cloud_id).size() for cloud_id in cloud_ids if cloud_id in self.registry
        ]
        for cloud_id in cloud_ids:
            self._cloud_hgraphs.pop(cloud_id, None)
            self._cloud_leaders.pop(cloud_id, None)
        merged = super()._merge_primary_clouds(cloud_ids, report)
        self._phase_merge(merged, source_sizes)
        return merged

    def _dissolve_cloud(self, cloud: Cloud, report: RepairReport) -> None:
        self._cloud_hgraphs.pop(cloud.cloud_id, None)
        self._cloud_leaders.pop(cloud.cloud_id, None)
        super()._dissolve_cloud(cloud, report)

    # ------------------------------------------------------------------ local-state sync

    def _sync_processor_topology(self) -> None:
        """Refresh neighbour and NoN tables from the healed graph.

        The information content of these tables is exactly what the counted
        protocol messages carried (cloud assignments name the new neighbours);
        the refresh itself is bookkeeping, not extra communication.
        """
        for node in self._graph.nodes():
            if node not in self.network:
                self.network.add_processor(node)
            processor = self.network.processor(node)
            processor.neighbors = set(self._graph.neighbors(node))
        for node in self._graph.nodes():
            processor = self.network.processor(node)
            processor.non_table = {
                neighbor: set(self._graph.neighbors(neighbor))
                for neighbor in processor.neighbors
            }

    def _update_cloud_views(self, cloud: Cloud, leader: NodeId | None, vice: NodeId | None) -> None:
        """Install the cloud's leader/membership knowledge into the processors' views."""
        kind = "primary" if cloud.is_primary else "secondary"
        for member in cloud.members:
            if member not in self.network:
                continue
            view = self.network.processor(member).cloud_view(cloud.cloud_id, kind)
            view.leader = leader
            view.vice_leader = vice
            view.is_leader = member == leader
            view.cloud_edges = {
                other for u, v in cloud.edges for other in (u, v) if member in (u, v) and other != member
            }
            if view.is_leader:
                view.members = set(cloud.members)
                view.free_members = {
                    node for node in cloud.members if self.registry.is_free(node)
                }
