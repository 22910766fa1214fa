"""Ablation variants of Xheal for the design-choice benchmarks.

Two of Xheal's design choices are worth quantifying:

* **secondary clouds + free nodes vs. always merging** — the free-node /
  secondary-cloud machinery exists purely to amortise the expensive
  cloud-merge operation.  :class:`XhealAlwaysMerge` disables it (every
  Case 2.x repair merges the affected primary clouds), so the message-cost
  benchmark can show the gap the amortisation buys.
* **expander clouds vs. clique clouds** — :class:`XhealCliqueClouds` replaces
  every expander cloud by a clique over the same nodes.  Cliques have perfect
  expansion but blow up node degrees (violating Theorem 2(1)), which the
  degree-bound benchmark demonstrates.
"""

from __future__ import annotations

from repro.core.clouds import Cloud
from repro.core.events import RepairReport
from repro.core.xheal import Xheal
from repro.scenarios.registry import register_healer
from repro.expanders.construction import build_clique_edges
from repro.util.ids import NodeId


@register_healer("xheal-always-merge")
class XhealAlwaysMerge(Xheal):
    """Xheal without secondary clouds: every multi-cloud repair merges the clouds.

    Functionally this healer still satisfies the expansion, stretch and degree
    guarantees (merging is the conservative fallback of the real algorithm);
    what it loses is the amortised message bound — every Case 2.x deletion now
    pays the full merge cost.
    """

    name = "xheal-always-merge"

    def _assign_free_nodes(
        self, cloud_ids: list[int], report: RepairReport
    ) -> dict[int, NodeId] | None:
        # Returning None is the "not enough free nodes" signal, which forces
        # _make_secondary into its merge branch unconditionally.
        return None


@register_healer("xheal-clique-clouds")
class XhealCliqueClouds(Xheal):
    """Xheal with clique clouds instead of kappa-regular expander clouds.

    A clique over the deleted node's neighbours gives expansion and stretch at
    least as good as the expander, but the degree of every member grows with
    the cloud size rather than being capped at kappa, so Theorem 2(1) fails.
    Used by the degree-bound ablation benchmark.
    """

    name = "xheal-clique-clouds"

    def _desired_cloud_edges(self, cloud: Cloud) -> set[tuple[NodeId, NodeId]]:
        members = sorted(node for node in cloud.members if node in self._graph)
        return build_clique_edges(members)
