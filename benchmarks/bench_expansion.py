"""E3 — Theorem 2(3): edge expansion h(G_t) >= min(alpha, h(G'_t)).

Paper claim: at any point, the healed graph's expansion is either at least a
constant alpha, or at least the expansion of the insertions-only graph.

Measured here: h(G_t) vs h(G'_t) after adversarial deletion sequences on an
expander (where h(G'_t) is a constant and the healed graph must stay a
constant-expansion graph) and on a star (where a single deletion would
destroy a tree-based healer).
"""

from __future__ import annotations

from repro.adversary import DeletionOnlyAdversary, MaxDegreeAdversary
from repro.analysis.invariants import check_expansion_invariant
from repro.core.ghost import GhostGraph
from repro.core.xheal import Xheal
from repro.harness.reporting import print_table
from repro.harness.workloads import random_regular_workload, star_workload
from repro.perf.engine import MetricsEngine


def _run(graph, adversary, steps, kappa=6, seed=11):
    healer = Xheal(kappa=kappa, seed=seed)
    healer.initialize(graph)
    ghost = GhostGraph(graph)
    adversary.bind(graph)
    for timestep in range(steps):
        event = adversary.next_event(healer.graph, timestep)
        if event is None:
            break
        if event.is_deletion:
            ghost.record_deletion(event.node)
            healer.handle_deletion(event.node)
        else:
            ghost.record_insertion(event.node, event.neighbors)
            healer.handle_insertion(event.node, event.neighbors)
    return healer, ghost


def expansion_rows():
    rows = []
    cases = [
        ("random-regular d=4 n=50", random_regular_workload(50, 4, seed=1), DeletionOnlyAdversary(seed=2), 20),
        ("random-regular d=6 n=48", random_regular_workload(48, 6, seed=3), MaxDegreeAdversary(seed=4), 20),
        ("star n=40", star_workload(40), MaxDegreeAdversary(seed=5), 10),
    ]
    for name, graph, adversary, steps in cases:
        healer, ghost = _run(graph, adversary, steps)
        result = check_expansion_invariant(
            healer.graph, ghost, alpha=1.0, engine=MetricsEngine(exact_limit=0)
        )
        rows.append(
            {
                "workload": name,
                "adversary": adversary.name,
                "deletions": steps,
                "h(Gt)": round(result.healed_expansion, 3),
                "h(G't)": round(result.ghost_expansion, 3),
                "bound=min(1,h(G't))": round(result.bound, 3),
                "holds": result.holds,
            }
        )
    return rows


def test_expansion_bound(run_once):
    rows = run_once(expansion_rows)
    print()
    print_table(rows, title="E3  Theorem 2(3): h(Gt) >= min(alpha, h(G't))")
    assert all(row["holds"] for row in rows)
    # On the expander workloads the healed expansion stays a constant (>= ~1).
    assert rows[0]["h(Gt)"] >= 0.9
