"""F1-F6: textual traces of the paper's illustrative figures.

The paper's six figures are diagrams, not measurements.  This script
regenerates each of them as a structural trace of the actual data structures
the library builds, so a reader can line the output up against the paper:

* Figure 1 — the model loop (adversarial event, then healing) as the repair
  report of each step, followed by the cloud registry it leaves behind.
* Figure 2 — a node belonging to several primary clouds.
* Figure 3 — Case 2.2: a deleted bridge node, its secondary cloud F and the
  affected primary clouds.
* Figure 4 — Case 1: the deleted node's ball replaced by a kappa-regular
  expander over its neighbours.
* Figure 5 — G_t vs G'_t after an insertion (colored clouds vs black edges).
* Figure 6 — Case 2: black neighbours and cloud neighbours reconnected by a
  new colored cloud.

Run with::

    python examples/figure_traces.py
"""

from __future__ import annotations

import networkx as nx

from repro.core.clouds import CloudKind
from repro.core.colors import BLACK
from repro.core.events import RepairReport
from repro.core.xheal import Xheal
from repro.harness.workloads import star_workload


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def show_report(report: RepairReport) -> None:
    """Print one step's adversarial event and what the healer did about it."""
    if report.inserted_node is not None:
        event = f"insert {report.inserted_node}"
    else:
        event = f"delete {report.deleted_node}"
    print(f"  t={report.timestep:<2} {event:<10} action={report.action.value:<21} "
          f"clouds created={report.clouds_created} repaired={report.clouds_repaired} "
          f"merged={report.clouds_merged}; edges +{len(report.edges_added)} "
          f"-{len(report.edges_removed)} recoloured {len(report.edges_recolored)}")


def show_registry(healer: Xheal) -> None:
    """Print every live cloud: kind, members, edge count and bridge nodes."""
    for cloud in healer.registry.clouds():
        bridges = f" bridges={dict(sorted(cloud.bridge_of.items()))}" if cloud.is_secondary else ""
        print(f"    cloud {cloud.cloud_id} ({cloud.kind.value}) members={sorted(cloud.members)} "
              f"edges={len(cloud.edges)}{bridges}")


def figure_1_and_4() -> Xheal:
    banner("Figure 1 / Figure 4 — model loop and Case 1 repair (star centre deleted)")
    healer = Xheal(kappa=4, seed=2)
    healer.initialize(star_workload(10))
    show_report(healer.handle_insertion(100, [1, 2]))
    show_report(healer.handle_deletion(0))
    print("  cloud registry:")
    show_registry(healer)
    cloud = healer.registry.clouds(CloudKind.PRIMARY)[0]
    print(f"  -> ball of node 0 replaced by expander cloud {cloud.cloud_id} "
          f"over {sorted(cloud.members)} with {len(cloud.edges)} colored edges")
    return healer


def figure_2_and_3() -> None:
    banner("Figure 2 / Figure 3 — multi-cloud membership and Case 2.2")
    # Two overlapping stars: their centres' deletions create two primary
    # clouds sharing nodes; further deletions create a secondary cloud and a
    # bridge node whose deletion exercises Case 2.2.
    graph = nx.Graph()
    graph.add_edges_from((0, leaf) for leaf in range(2, 10))
    graph.add_edges_from((1, leaf) for leaf in range(6, 14))
    healer = Xheal(kappa=4, seed=4)
    healer.initialize(graph)
    show_report(healer.handle_deletion(0))
    show_report(healer.handle_deletion(1))
    print("  cloud registry:")
    show_registry(healer)
    shared = [
        node for node in healer.graph.nodes()
        if len(healer.registry.primary_clouds_of(node)) >= 2
    ]
    print(f"  nodes in two primary clouds (Figure 2's x): {sorted(shared)}")
    for node in sorted(healer.graph.nodes()):
        clouds = healer.registry.primary_clouds_of(node)
        secondary = healer.registry.secondary_cloud_of(node)
        role = "bridge" if secondary is not None else ("free" if clouds else "plain")
        print(f"    node {node:<3} primary clouds={clouds} secondary={secondary} ({role})")
    secondaries = healer.registry.clouds(CloudKind.SECONDARY)
    if secondaries:
        target = sorted(secondaries[0].members)[0]
        print(f"  deleting bridge node {target} (Figure 3's x, part of secondary cloud "
              f"{secondaries[0].cloud_id} = F)...")
        show_report(healer.handle_deletion(target))
    print(f"  network still connected: {nx.is_connected(healer.graph)}")


def figure_5_and_6(healer: Xheal) -> None:
    banner("Figure 5 / Figure 6 — G_t vs G'_t colours after insertions and repairs")
    show_report(healer.handle_insertion(200, [1, 3]))
    black = sum(1 for _, _, data in healer.graph.edges(data=True) if data["color"] is BLACK)
    colored = healer.graph.number_of_edges() - black
    print(f"  G_t now has {black} black edges (original + adversary) and "
          f"{colored} colored edges (healing clouds).")
    print("  G'_t would contain only the black-origin edges, including those of deleted nodes.")
    member = sorted(healer.registry.clouds(CloudKind.PRIMARY)[0].members)[1]
    print(f"  deleting cloud member {member} (Figure 6)...")
    show_report(healer.handle_deletion(member))
    by_kind = healer.cloud_summary()
    print(f"  cloud inventory: {by_kind}")


def main() -> None:
    healer = figure_1_and_4()
    figure_2_and_3()
    figure_5_and_6(healer)
    print()
    print("Traces above correspond one-to-one with the paper's Figures 1-6.")


if __name__ == "__main__":
    main()
