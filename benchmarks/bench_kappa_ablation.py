"""Ablation — the effect of kappa (expander-cloud degree) on the guarantees.

Kappa is the main implementation-dependent parameter: the paper allows it to
be a constant or Theta(log n).  Larger kappa gives denser clouds
(better expansion per cloud, higher w.h.p. confidence for the H-graph) at the
cost of a proportionally larger degree increase and message volume.

Measured here: final expansion, degree ratio and healing edge volume of Xheal
with kappa in {2, 4, 8} (and the always-merge ablation at kappa=4) on the same
workload and adversary.  The grid is expressed as a list of
:class:`ScenarioSpec` points executed by :func:`run_scenarios` — the same
records ``python -m repro sweep`` prints.
"""

from __future__ import annotations

from repro.harness.reporting import print_table
from repro.scenarios import ScenarioSpec, run_scenarios

BASE = ScenarioSpec(
    name="kappa-ablation",
    healer="xheal",
    healer_kwargs={"kappa": 4, "seed": 1},
    adversary="deletion-only",
    adversary_kwargs={"seed": 2},
    topology="random-regular",
    topology_kwargs={"n": 50, "degree": 4, "seed": 3},
    timesteps=20,
    kappa=4,
    exact_expansion_limit=0,
    stretch_sample_pairs=100,
)


def ablation_specs() -> list[tuple[str, object, ScenarioSpec]]:
    """Return (sweep label, parameter, spec): the kappa grid plus the merge ablation."""
    points: list[tuple[str, object, ScenarioSpec]] = []
    for kappa in (2, 4, 8):
        points.append(
            (
                "kappa",
                kappa,
                BASE.with_overrides(
                    name=f"kappa-ablation[kappa={kappa}]",
                    healer_kwargs={"kappa": kappa, "seed": 1},
                    kappa=kappa,
                ),
            )
        )
    points.append(
        (
            "ablation",
            "always-merge",
            BASE.with_overrides(name="kappa-ablation[always-merge]", healer="xheal-always-merge"),
        )
    )
    return points


def kappa_ablation_rows():
    points = ablation_specs()
    records = run_scenarios([spec for _, _, spec in points])
    rows = []
    for (sweep, parameter, _), record in zip(points, records):
        row = {"sweep": sweep, "parameter": parameter}
        row.update(record.summary)
        rows.append(row)
    return rows


def test_kappa_ablation(run_once):
    rows = run_once(kappa_ablation_rows)
    print()
    columns = [
        "sweep", "parameter", "healer", "connected", "h(Gt)", "lambda(Gt)",
        "max_stretch", "max_degree_ratio", "amortized_msgs", "theorem2_holds",
    ]
    print_table(rows, columns=columns, title="Ablation: kappa and always-merge")
    by_param = {row["parameter"]: row for row in rows}
    # All variants keep connectivity and the Theorem 2 guarantees for their own kappa.
    assert all(row["connected"] for row in rows)
    assert all(row["theorem2_holds"] for row in rows)
    # Larger kappa may raise the degree ratio ceiling but never above kappa + slack.
    for kappa in (2, 4, 8):
        assert by_param[kappa]["max_degree_ratio"] <= kappa + 2 * kappa
    # Always-merge pays more healing work (message estimate) than standard Xheal.
    assert by_param["always-merge"]["amortized_msgs"] >= by_param[4]["amortized_msgs"]
