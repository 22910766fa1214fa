"""The Xheal self-healing algorithm (Algorithms 3.1-3.6 of the paper).

The healer reacts to every adversarial deletion according to the colour of
the edges that were lost:

* **Case 1** — all deleted edges were black: build a new *primary cloud* (a
  kappa-regular expander, or a clique when the neighbourhood is small) among
  the deleted node's neighbours.
* **Case 2.1** — the deleted colored edges were all primary: repair each
  affected primary cloud, then connect them (together with any black
  neighbours, treated as singleton primary clouds) through a new *secondary
  cloud* built on one free node per cloud; if there are not enough free
  nodes, merge all the affected primary clouds into a single primary cloud
  (the expensive, amortised operation).
* **Case 2.2** — some deleted edges were secondary (the deleted node was a
  bridge node): repair the primary clouds, repair the secondary cloud by
  promoting a new free node to bridge duty (or merge all of that secondary
  cloud's primary clouds if no free node exists anywhere among them), and
  connect the deleted node's remaining primary clouds and black neighbours
  with a new secondary cloud.

Implementation notes (documented deviations / clarifications):

* Cloud expanders are *re-randomised* whenever a cloud changes membership
  (rather than incrementally updated): both produce kappa-regular random
  expanders with the same guarantees; the incremental H-graph maintenance the
  paper uses for message efficiency lives in :mod:`repro.distributed`, which
  measures real message counts.
* Edges are never duplicated: if a cloud mandates an edge that already exists
  it is only (re)coloured, exactly as Section 3 prescribes.  Edges whose pair
  was originally black revert to black (rather than disappearing) when the
  owning cloud retires them, so the healed graph never loses a surviving
  ``G'_t`` edge.
* In Case 2.2 the paper builds the new secondary cloud over the primary
  clouds *not* connected by the damaged secondary cloud F.  To guarantee
  connectivity (claim 1 of the paper) the implementation also includes one
  "anchor" cloud from F's side (the deleted bridge's associated primary cloud,
  or the cloud produced by merging F's clouds), since the deleted node was
  the only guaranteed link between the two groups.
* When primary clouds are merged because free nodes ran out, bridge nodes of
  *other* (surviving) secondary clouds inside the merged clouds keep their
  secondary membership; the association is redirected to the merged cloud.
  This keeps every node's bridge duty unique and the degree accounting of
  Lemma 3 intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.clouds import Cloud, CloudKind, CloudRegistry
from repro.core.colors import BLACK, EdgeColor
from repro.core.events import RepairAction, RepairReport
from repro.core.healer import SelfHealer
from repro.scenarios.registry import register_healer
from repro.expanders.construction import expander_or_clique
from repro.util.ids import NodeId
from repro.util.validation import require


@dataclass(frozen=True)
class XhealConfig:
    """Tunable parameters of the Xheal healer.

    Attributes
    ----------
    kappa:
        Degree of the expander clouds (the paper's kappa).  Must be at least
        2; the default 4 gives 2 Hamilton cycles per cloud.
    seed:
        Base seed for the healer's private randomness (the adversary in the
        model is oblivious to it).
    """

    kappa: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.kappa >= 2, f"kappa must be at least 2, got {self.kappa}")


@register_healer("xheal")
class Xheal(SelfHealer):
    """The paper's self-healing algorithm."""

    name = "xheal"

    def __init__(self, config: XhealConfig | None = None, kappa: int | None = None, seed: int = 0):
        if config is None:
            config = XhealConfig(kappa=kappa if kappa is not None else 4, seed=seed)
        super().__init__(seed=config.seed)
        self.config = config
        self.kappa = config.kappa
        self.registry = CloudRegistry()

    def _after_initialize(self) -> None:
        self.registry = CloudRegistry()

    # ------------------------------------------------------------------ deletion

    def _heal_after_deletion(
        self,
        deleted: NodeId,
        neighbors: list[NodeId],
        incident_colors: dict[NodeId, EdgeColor],
        report: RepairReport,
    ) -> None:
        primary_ids = self.registry.primary_clouds_of(deleted)
        secondary_id = self.registry.secondary_cloud_of(deleted)

        bridged_primary: int | None = None
        secondary_connected: list[int] = []
        if secondary_id is not None:
            secondary = self.registry.get(secondary_id)
            secondary_connected = sorted(secondary.bridge_of.keys())
            for primary_id, bridge in secondary.bridge_of.items():
                if bridge == deleted:
                    bridged_primary = primary_id
                    break

        self.registry.remove_node_everywhere(deleted)
        black_neighbors = [nb for nb in neighbors if incident_colors[nb].is_black]

        if not neighbors:
            report.note_action(RepairAction.NONE)
            return

        if not primary_ids and secondary_id is None:
            self._case1(black_neighbors, report)
        elif secondary_id is None:
            self._case21(primary_ids, black_neighbors, report)
        else:
            self._case22(
                primary_ids,
                secondary_id,
                bridged_primary,
                secondary_connected,
                black_neighbors,
                report,
            )

    # ------------------------------------------------------------------ case 1

    def _case1(self, black_neighbors: list[NodeId], report: RepairReport) -> None:
        """All deleted edges were black: one new primary cloud among the neighbours."""
        report.note_action(RepairAction.CASE_1_NEW_PRIMARY)
        if len(black_neighbors) <= 1:
            # A degree-1 node is just dropped (Lemma 1, case 2(b)): nothing to repair.
            self._account_repair(report, nodes_touched=len(black_neighbors), merged=False)
            return
        cloud = self.registry.new_primary_cloud(black_neighbors)
        report.clouds_created.append(cloud.cloud_id)
        self._rebuild_cloud_edges(cloud, report)
        self._account_repair(report, nodes_touched=len(black_neighbors), merged=False)

    # ------------------------------------------------------------------ case 2.1

    def _case21(
        self, primary_ids: list[int], black_neighbors: list[NodeId], report: RepairReport
    ) -> None:
        """Deleted colored edges were all primary: fix clouds, then build a secondary."""
        report.note_action(RepairAction.CASE_2_1_SECONDARY)
        self._fix_primary(primary_ids, report)
        touched = self._make_secondary(primary_ids, black_neighbors, report)
        self._account_repair(
            report,
            nodes_touched=touched,
            merged=report.action is RepairAction.CASE_2_1_MERGE,
        )

    # ------------------------------------------------------------------ case 2.2

    def _case22(
        self,
        primary_ids: list[int],
        secondary_id: int,
        bridged_primary: int | None,
        secondary_connected: list[int],
        black_neighbors: list[NodeId],
        report: RepairReport,
    ) -> None:
        """The deleted node was a bridge node of a secondary cloud."""
        report.note_action(RepairAction.CASE_2_2_FIX_SECONDARY)
        self._fix_primary(primary_ids, report)

        anchor = self._fix_secondary(secondary_id, bridged_primary, report)

        # The deleted node's primary clouds NOT already connected through F.
        connected = set(secondary_connected)
        remaining = [cid for cid in primary_ids if cid not in connected and cid in self.registry]
        if remaining or black_neighbors:
            participants = list(remaining)
            if anchor is not None and anchor in self.registry:
                # Connectivity anchor: ties the F-side of the repair to the
                # new secondary cloud (see module docstring).
                participants.append(anchor)
            touched = self._make_secondary(participants, black_neighbors, report)
        else:
            touched = 0
        merged = report.action in (RepairAction.CASE_2_1_MERGE, RepairAction.CASE_2_2_MERGE)
        self._account_repair(report, nodes_touched=max(touched, len(primary_ids)), merged=merged)

    # ------------------------------------------------------------------ FixPrimary

    def _fix_primary(self, cloud_ids: list[int], report: RepairReport) -> None:
        """Algorithm 3.3: rebuild each affected primary cloud over its remaining members."""
        for cloud_id in cloud_ids:
            if cloud_id not in self.registry:
                continue
            cloud = self.registry.get(cloud_id)
            if cloud.size() == 0:
                self._dissolve_cloud(cloud, report)
                continue
            self._rebuild_cloud_edges(cloud, report)
            report.clouds_repaired.append(cloud_id)

    # ------------------------------------------------------------------ MakeSecondary

    def _make_secondary(
        self, cloud_ids: list[int], black_neighbors: list[NodeId], report: RepairReport
    ) -> int:
        """Algorithm 3.4: connect the given clouds (plus black-neighbour singletons).

        Returns the number of nodes touched (for the message-cost estimate).
        """
        participating: list[int] = []
        for cloud_id in cloud_ids:
            if cloud_id in self.registry and self.registry.get(cloud_id).size() > 0:
                if cloud_id not in participating:
                    participating.append(cloud_id)
        for neighbor in black_neighbors:
            if neighbor not in self._graph:
                continue
            singleton = self.registry.new_primary_cloud([neighbor])
            report.clouds_created.append(singleton.cloud_id)
            participating.append(singleton.cloud_id)

        if len(participating) <= 1:
            return sum(self.registry.get(cid).size() for cid in participating)

        assignment = self._assign_free_nodes(participating, report)
        if assignment is None:
            # Not enough free nodes: merge everything into one primary cloud.
            report.action = RepairAction.CASE_2_1_MERGE
            report.actions.append(RepairAction.CASE_2_1_MERGE)
            merged = self._merge_primary_clouds(participating, report)
            return merged.size()

        secondary = self.registry.new_secondary_cloud(assignment)
        report.clouds_created.append(secondary.cloud_id)
        self._rebuild_cloud_edges(secondary, report)
        return len(assignment)

    def _assign_free_nodes(
        self, cloud_ids: list[int], report: RepairReport
    ) -> dict[int, NodeId] | None:
        """Choose one distinct free node per cloud, sharing across clouds if needed.

        Returns ``None`` when the participating clouds hold fewer free nodes
        than clouds (the signal to merge), mirroring Algorithm 3.4/3.6.
        """
        assignment: dict[int, NodeId] = {}
        used: set[NodeId] = set()
        needy: list[int] = []
        for cloud_id in cloud_ids:
            choice = None
            for node in self.registry.free_members(cloud_id):
                if node not in used:
                    choice = node
                    break
            if choice is None:
                needy.append(cloud_id)
            else:
                assignment[cloud_id] = choice
                used.add(choice)

        if needy:
            pool: list[NodeId] = []
            for cloud_id in cloud_ids:
                for node in self.registry.free_members(cloud_id):
                    if node not in used and node not in pool:
                        pool.append(node)
            for cloud_id in needy:
                if not pool:
                    return None
                shared = pool.pop(0)
                used.add(shared)
                # Sharing: the free node joins the needy cloud, which is then
                # rebuilt to include it (its degree grows by kappa, Lemma 3).
                self.registry.add_member(cloud_id, shared)
                self._rebuild_cloud_edges(self.registry.get(cloud_id), report)
                report.free_nodes_shared.append(shared)
                assignment[cloud_id] = shared
        return assignment

    # ------------------------------------------------------------------ FixSecondary

    def _fix_secondary(
        self, secondary_id: int, bridged_primary: int | None, report: RepairReport
    ) -> int | None:
        """Algorithm 3.5: repair secondary cloud F after its bridge node was deleted.

        Returns the id of the "anchor" primary cloud that remains connected to
        F's side of the network (used by Case 2.2 for the connectivity anchor),
        or ``None`` when F dissolved with no surviving primary clouds.
        """
        if secondary_id not in self.registry:
            if bridged_primary is not None and bridged_primary in self.registry:
                return bridged_primary
            return None
        secondary = self.registry.get(secondary_id)

        candidate_clouds: list[int] = []
        if bridged_primary is not None and bridged_primary in self.registry:
            candidate_clouds.append(bridged_primary)
        for primary_id in sorted(secondary.bridge_of.keys()):
            if primary_id in self.registry and primary_id not in candidate_clouds:
                candidate_clouds.append(primary_id)

        replacement: NodeId | None = None
        source_cloud: int | None = None
        for cloud_id in candidate_clouds:
            for node in self.registry.free_members(cloud_id):
                if node not in secondary.members:
                    replacement = node
                    source_cloud = cloud_id
                    break
            if replacement is not None:
                break

        if replacement is None:
            # No free node anywhere among F's clouds: dissolve F and merge its
            # primary clouds into one (Case 2.1's costly amortised operation).
            report.action = RepairAction.CASE_2_2_MERGE
            report.actions.append(RepairAction.CASE_2_2_MERGE)
            self._retire_cloud_edges(secondary, report)
            self.registry.dissolve(secondary_id)
            report.clouds_merged.append(secondary_id)
            merge_ids = [cid for cid in candidate_clouds if cid in self.registry]
            if len(merge_ids) >= 2:
                merged = self._merge_primary_clouds(merge_ids, report)
                return merged.cloud_id
            if len(merge_ids) == 1:
                self._rebuild_cloud_edges(self.registry.get(merge_ids[0]), report)
                return merge_ids[0]
            return None

        if bridged_primary is not None and bridged_primary in self.registry:
            association = bridged_primary
        else:
            association = source_cloud
        if source_cloud != association and association is not None:
            # The free node came from a sibling cloud: share it into the
            # association cloud, whose expander is rebuilt around it.
            self.registry.add_member(association, replacement)
            self._rebuild_cloud_edges(self.registry.get(association), report)
            report.free_nodes_shared.append(replacement)
        self.registry.set_bridge(secondary_id, association if association is not None else source_cloud, replacement)
        self._rebuild_cloud_edges(secondary, report)
        report.clouds_repaired.append(secondary_id)
        return association if association is not None else source_cloud

    # ------------------------------------------------------------------ merging

    def _merge_primary_clouds(self, cloud_ids: list[int], report: RepairReport) -> Cloud:
        """Combine several primary clouds into a single new primary cloud.

        All old cloud edges are retired, a fresh kappa-regular expander is
        built over the union of members, and secondary-cloud associations are
        redirected to the merged cloud.
        """
        members: set[NodeId] = set()
        live_ids = [cid for cid in cloud_ids if cid in self.registry]
        for cloud_id in live_ids:
            members |= self.registry.get(cloud_id).members
        for cloud_id in live_ids:
            cloud = self.registry.get(cloud_id)
            self._retire_cloud_edges(cloud, report)
            self.registry.dissolve(cloud_id)
            report.clouds_merged.append(cloud_id)
        merged = self.registry.new_primary_cloud(members)
        report.clouds_created.append(merged.cloud_id)
        self.registry.redirect_bridges(live_ids, merged.cloud_id)
        self._rebuild_cloud_edges(merged, report)
        return merged

    # ------------------------------------------------------------------ edge management

    def _desired_cloud_edges(self, cloud: Cloud) -> set[tuple[NodeId, NodeId]]:
        """Return the edge set MakeCloud (Algorithm 3.2) mandates for ``cloud`` now."""
        members = sorted(node for node in cloud.members if node in self._graph)
        rng = self._rng.child("cloud", cloud.cloud_id, self._timestep, len(members))
        return expander_or_clique(members, self.kappa, rng)

    def _rebuild_cloud_edges(self, cloud: Cloud, report: RepairReport) -> None:
        """Recompute a cloud's expander and apply the edge diff to the live graph."""
        new_edges = {self._normalize(u, v) for u, v in self._desired_cloud_edges(cloud)}
        old_edges = {
            self._normalize(u, v)
            for u, v in cloud.edges
            if self._graph.has_edge(u, v)
        }
        for u, v in old_edges - new_edges:
            self._release_edge(cloud, u, v, report)
        for u, v in new_edges - old_edges:
            self._claim_edge(cloud, u, v, report)
        cloud.edges = new_edges

    def _retire_cloud_edges(self, cloud: Cloud, report: RepairReport) -> None:
        """Release every edge owned by ``cloud`` (used before dissolving it)."""
        for u, v in list(cloud.edges):
            if self._graph.has_edge(u, v):
                self._release_edge(cloud, u, v, report)
        cloud.edges = set()

    def _dissolve_cloud(self, cloud: Cloud, report: RepairReport) -> None:
        """Retire a cloud's edges and remove it from the registry."""
        self._retire_cloud_edges(cloud, report)
        if cloud.cloud_id in self.registry:
            self.registry.dissolve(cloud.cloud_id)

    def _claim_edge(self, cloud: Cloud, u: NodeId, v: NodeId, report: RepairReport) -> None:
        """Have ``cloud`` own edge ``(u, v)``, creating or recolouring it as needed."""
        store = self._graph
        slot = store.edge_slot(u, v)
        if slot is None:
            self._bump_graph_version()
            store.add_edge(u, v, color=cloud.color, was_black=False, owners=(cloud.cloud_id,))
            report.edges_added.append((u, v))
            return
        store.add_slot_owner(slot, cloud.cloud_id)
        if store.slot_color_is_black(slot):
            # Re-colour rather than duplicate (Section 3: no multi-edges).
            store.set_slot_color(slot, cloud.color)
            report.edges_recolored.append((u, v))

    def _release_edge(self, cloud: Cloud, u: NodeId, v: NodeId, report: RepairReport) -> None:
        """Have ``cloud`` stop owning edge ``(u, v)``; drop or revert it if unowned."""
        store = self._graph
        slot = store.edge_slot(u, v)
        if slot is None:
            return
        if store.discard_slot_owner(slot, cloud.cloud_id):
            if store.slot_color_equals(slot, cloud.color):
                # Another cloud still needs the edge; re-display its colour.
                for other in sorted(store.owners_of_slot(slot)):
                    if other in self.registry:
                        store.set_slot_color(slot, self.registry.get(other).color)
                        break
            return
        if store.slot_was_black(slot):
            if not store.slot_color_is_black(slot):
                store.set_slot_color(slot, BLACK)
                report.edges_recolored.append((u, v))
        else:
            self._bump_graph_version()
            store.remove_edge(u, v)
            report.edges_removed.append((u, v))

    @staticmethod
    def _normalize(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
        return (u, v) if u <= v else (v, u)

    # ------------------------------------------------------------------ cost model

    def _account_repair(self, report: RepairReport, nodes_touched: int, merged: bool) -> None:
        """Accumulate the paper's Theorem-5 cost estimates onto ``report``.

        The distributed implementation (:mod:`repro.distributed`) measures
        real message counts; the centralized healer records the analytical
        estimate so that amortised-cost benchmarks can run cheaply at scale.
        """
        n = max(2, self._graph.number_of_nodes())
        touched = max(1, nodes_touched)
        log_touched = max(1, math.ceil(math.log2(max(2, touched))))
        log_n = max(1, math.ceil(math.log2(n)))
        if merged:
            report.rounds = max(report.rounds, log_n)
            report.messages += self.kappa * touched * log_n
        else:
            report.rounds = max(report.rounds, log_touched + 1)
            report.messages += self.kappa * touched + touched * log_touched

    # ------------------------------------------------------------------ diagnostics

    def cloud_summary(self) -> dict[str, int]:
        """Return counts of live clouds by kind (handy for tests and examples)."""
        primaries = self.registry.clouds(CloudKind.PRIMARY)
        secondaries = self.registry.clouds(CloudKind.SECONDARY)
        return {
            "primary_clouds": len(primaries),
            "secondary_clouds": len(secondaries),
            "bridge_nodes": sum(cloud.size() for cloud in secondaries),
        }

    def check_invariants(self) -> None:
        """Verify the healer's structural invariants (used heavily by tests).

        * cloud registry indices are consistent,
        * every cloud member is a live node,
        * every cloud edge exists in the live graph,
        * every node's degree inside a single cloud is at most kappa
          (+1 slack for odd kappa's rounded Hamilton-cycle count).
        """
        self.registry.check_invariants()
        effective_kappa = self.kappa + (self.kappa % 2)
        for cloud in self.registry.clouds():
            for node in cloud.members:
                require(node in self._graph, f"cloud {cloud.cloud_id} member {node} not in graph")
            for u, v in cloud.edges:
                require(
                    self._graph.has_edge(u, v),
                    f"cloud {cloud.cloud_id} edge ({u}, {v}) missing from graph",
                )
            if not cloud.edges:
                continue
            # Internal degrees in one vectorized pass (the old per-node scan
            # over the full edge set was quadratic in the cloud size).
            endpoints = np.fromiter(
                (node for edge in cloud.edges for node in edge),
                dtype=np.int64,
                count=2 * len(cloud.edges),
            )
            node_ids, internal = np.unique(endpoints, return_counts=True)
            worst = int(internal.argmax())
            require(
                int(internal[worst]) <= effective_kappa,
                f"node {int(node_ids[worst])} has degree {int(internal[worst])} "
                f"inside cloud {cloud.cloud_id} (kappa={self.kappa})",
            )
