"""E4 — Theorem 2(4): the lower bound on lambda(G_t) (algebraic connectivity).

Paper claim: ``lambda(G_t) >= min(Omega(lambda(G'_t)^2 d_min / (kappa^2 d_max^2)),
Omega(1 / (kappa d_max)^2))``.

Measured here: lambda(G_t), lambda(G'_t), and the explicit bound with the
proof's constants, on a bounded-degree expander under random and hub-targeted
deletions.
"""

from __future__ import annotations

from repro.adversary import DeletionOnlyAdversary, MaxDegreeAdversary
from repro.analysis.invariants import check_spectral_invariant
from repro.core.ghost import GhostGraph
from repro.core.xheal import Xheal
from repro.harness.reporting import print_table
from repro.harness.workloads import random_regular_workload
from repro.perf.engine import MetricsEngine


def _run(graph, adversary, steps, kappa):
    healer = Xheal(kappa=kappa, seed=21)
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


def spectral_rows():
    rows = []
    for kappa, degree, adversary_factory in (
        (4, 4, lambda: DeletionOnlyAdversary(seed=2)),
        (4, 6, lambda: MaxDegreeAdversary(seed=3)),
        (8, 6, lambda: DeletionOnlyAdversary(seed=4)),
    ):
        graph = random_regular_workload(48, degree, seed=5)
        healer, ghost = _run(graph, adversary_factory(), steps=18, kappa=kappa)
        result = check_spectral_invariant(
            healer.graph, ghost, kappa=kappa, engine=MetricsEngine()
        )
        rows.append(
            {
                "workload": f"random-regular d={degree}",
                "kappa": kappa,
                "lambda(Gt)": round(result.healed_lambda, 4),
                "lambda(G't)": round(result.ghost_lambda, 4),
                "theorem2_bound": f"{result.bound:.2e}",
                "holds": result.holds,
            }
        )
    return rows


def test_spectral_gap_bound(run_once):
    rows = run_once(spectral_rows)
    print()
    print_table(rows, title="E4  Theorem 2(4): lambda(Gt) lower bound")
    assert all(row["holds"] for row in rows)
    # On expanders the healed lambda stays well above the (loose) bound.
    assert all(row["lambda(Gt)"] > 0 for row in rows)
