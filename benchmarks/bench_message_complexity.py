"""E6 — Theorem 5 / Lemma 5: recovery rounds and amortised message complexity.

Paper claims:
* every repair completes in O(log n) rounds,
* the amortised message complexity over p deletions is O(kappa log n * A(p)),
  where A(p) = (1/p) sum Theta(deg(v_i)) is the Lemma 5 lower bound.

Measured here with the distributed protocol simulation (real message counts),
sweeping the network size: amortised messages per deletion, the A(p) lower
bound, the kappa log n A(p) upper-bound shape, and the worst-case rounds
versus log2(n).
"""

from __future__ import annotations

import math

from repro.adversary import DeletionOnlyAdversary
from repro.analysis.amortized import CostLedger
from repro.core.ghost import GhostGraph
from repro.distributed import DistributedXheal
from repro.harness.reporting import print_table
from repro.harness.workloads import random_regular_workload

KAPPA = 4


def _run_size(n, steps):
    graph = random_regular_workload(n, 4, seed=1)
    healer = DistributedXheal(kappa=KAPPA, seed=2)
    healer.initialize(graph)
    ghost = GhostGraph(graph)
    adversary = DeletionOnlyAdversary(seed=3)
    adversary.bind(graph)
    ledger = CostLedger(kappa=KAPPA)
    for timestep in range(steps):
        event = adversary.next_event(healer.graph, timestep)
        if event is None:
            break
        black_degree = ghost.degree(event.node)
        ghost.record_deletion(event.node)
        report = healer.handle_deletion(event.node)
        ledger.record_deletion(
            event.node, black_degree, report.messages, report.rounds, healer.graph.number_of_nodes()
        )
    summary = ledger.summary()
    return {
        "n": n,
        "deletions": summary.deletions,
        "A(p) lower bound": round(summary.lower_bound, 1),
        "measured amortized msgs": round(summary.amortized_messages, 1),
        "kappa*log2(n)*A(p)": round(KAPPA * math.log2(n) * summary.lower_bound, 1),
        "overhead vs A(p)": round(summary.overhead_vs_lower_bound, 1),
        "max rounds": summary.max_rounds,
        "log2(n)": round(math.log2(n), 1),
    }


def message_complexity_rows():
    return [_run_size(n, steps) for n, steps in ((40, 12), (80, 16), (160, 20))]


def test_message_and_round_complexity(run_once):
    rows = run_once(message_complexity_rows)
    print()
    print_table(rows, title="E6  Theorem 5: rounds and amortized messages vs n")
    for row in rows:
        # Amortised messages stay within a small constant of the kappa log n A(p) shape.
        assert row["measured amortized msgs"] <= 5 * row["kappa*log2(n)*A(p)"]
        # Recovery rounds stay logarithmic, nowhere near linear in n.
        assert row["max rounds"] <= 8 * row["log2(n)"]
        assert row["max rounds"] < row["n"] / 2
    # The per-deletion overhead over the trivial lower bound does not explode with n.
    overheads = [row["overhead vs A(p)"] for row in rows]
    assert max(overheads) <= 12 * max(1.0, math.log2(rows[-1]["n"]))
