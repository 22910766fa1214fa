"""Declarative scenario API: registries, serializable specs, sweeps and runs.

This package is the canonical front door for defining and running
experiments.  Instead of hand-wiring factories and graphs::

    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec(
        healer="xheal", healer_kwargs={"kappa": 4},
        adversary="random", adversary_kwargs={"delete_probability": 0.6},
        topology="random-regular", topology_kwargs={"n": 60, "degree": 4},
        timesteps=60,
    )
    record = spec.run()          # -> RunRecord (summary, timeline, trace)
    spec.to_json()               # exact JSON round-trip
    save_run(record, "run.jsonl")
    ScenarioSpec.replay("run.jsonl")   # bit-identical re-execution

Sweeps cross-product parameter axes and run points in parallel::

    from repro.scenarios import SweepSpec, run_scenarios

    sweep = SweepSpec(base=spec, axes={"healer_kwargs.kappa": [2, 4, 8],
                                       "timesteps": [50, 100]})
    records = run_scenarios(sweep.expand(), workers=4)

Long sweeps stream each finished point durably to disk and survive crashes::

    result = run_scenarios(sweep.expand(), workers=4, stream_to="out/")
    # ... crash, power loss, ^C ...
    result = run_scenarios(sweep.expand(), workers=4, resume="out/")
    # only the missing points re-run; artifacts are byte-identical either way

The same operations are available from a shell via ``python -m repro``
(``run`` / ``sweep`` / ``report`` / ``list`` / ``replay``).

The registry layer (:mod:`repro.scenarios.registry`) is imported eagerly —
it is dependency-free, so component modules can register themselves without
import cycles.  Everything else loads lazily on first attribute access.
"""

from __future__ import annotations

from repro.scenarios.registry import (
    ADVERSARIES,
    EXECUTORS,
    HEALERS,
    TOPOLOGIES,
    Registry,
    UnknownNameError,
    list_adversaries,
    list_executors,
    list_healers,
    list_topologies,
    register_adversary,
    register_executor,
    register_healer,
    register_topology,
)

__all__ = [
    "ADVERSARIES",
    "EXECUTORS",
    "HEALERS",
    "TOPOLOGIES",
    "Registry",
    "UnknownNameError",
    "list_adversaries",
    "list_executors",
    "list_healers",
    "list_topologies",
    "register_adversary",
    "register_executor",
    "register_healer",
    "register_topology",
    # lazily loaded (see __getattr__):
    "ScenarioSpec",
    "SweepSpec",
    "split_replicate",
    "RunRecord",
    "run_scenarios",
    "save_run",
    "load_run",
    "iter_artifact",
    "open_artifact",
    "run_bytes",
    "replay_artifact",
    "SweepStream",
    "StreamResult",
    "strip_costs",
    "read_rounds",
    "PointPolicy",
    "ChaosSpec",
    "ExecutionContext",
    "resolve_executor",
    "AdaptiveSpec",
    "StoppingRule",
    "HalvingSchedule",
    "AdaptiveResult",
    "run_adaptive",
]

_LAZY = {
    "ScenarioSpec": "repro.scenarios.spec",
    "SweepSpec": "repro.scenarios.sweep",
    "split_replicate": "repro.scenarios.sweep",
    "RunRecord": "repro.scenarios.runner",
    "run_scenarios": "repro.scenarios.runner",
    "save_run": "repro.scenarios.artifacts",
    "load_run": "repro.scenarios.artifacts",
    "iter_artifact": "repro.scenarios.artifacts",
    "open_artifact": "repro.scenarios.artifacts",
    "run_bytes": "repro.scenarios.artifacts",
    "replay_artifact": "repro.scenarios.artifacts",
    "SweepStream": "repro.scenarios.stream",
    "StreamResult": "repro.scenarios.stream",
    "strip_costs": "repro.scenarios.stream",
    "read_rounds": "repro.scenarios.stream",
    "PointPolicy": "repro.scenarios.policy",
    "ChaosSpec": "repro.scenarios.chaos",
    "ExecutionContext": "repro.scenarios.executors",
    "resolve_executor": "repro.scenarios.executors",
    "AdaptiveSpec": "repro.scenarios.adaptive",
    "StoppingRule": "repro.scenarios.adaptive",
    "HalvingSchedule": "repro.scenarios.adaptive",
    "AdaptiveResult": "repro.scenarios.adaptive",
    "run_adaptive": "repro.scenarios.adaptive",
}


def __getattr__(name: str):
    """Load the heavier scenario modules on demand (breaks import cycles)."""
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
