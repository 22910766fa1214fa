"""Healer comparisons on one shared adversarial trace.

For parameter sweeps use the declarative
:class:`repro.scenarios.sweep.SweepSpec` +
:func:`repro.scenarios.runner.run_scenarios`.  This module keeps
:func:`compare_healers`, the shared-trace/shared-ghost-metrics comparison
harness, and :func:`healer_factory`, the registry shortcut its callers use.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Mapping, Sequence

from repro.core.healer import SelfHealer
from repro.harness.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.perf.engine import MetricsEngine


def healer_factory(name: str, **kwargs) -> Callable[[], SelfHealer]:
    """Return a factory building the registered healer ``name`` with ``kwargs``.

    The registry lookup happens eagerly (typos fail here, with suggestions)
    and the class is captured by value — no late-binding trap when building
    factory lists in a loop.
    """
    from repro.scenarios.registry import HEALERS

    healer_cls = HEALERS.get(name)
    return lambda: healer_cls(**kwargs)


def compare_healers(
    base_config: ExperimentConfig,
    healers: Mapping[str, Callable[[], SelfHealer]] | Sequence[Callable[[], SelfHealer]],
) -> list[ExperimentResult]:
    """Replay one adversarial trace against several healers, apples-to-apples.

    The first healer runs live against ``base_config``'s adversary; every
    other healer is a plain :func:`run_experiment` whose adversary is a
    :class:`~repro.adversary.correlated.RecordedAdversary` playing back the
    exact trace it produced, batch boundaries included, and labelled with
    the reference's adversary name.  Every other config knob (metric and
    invariant cadences, snapshots, fidelity, seed) carries over unchanged.

    All runs share one full-ghost metrics cache: the ghost graph ``G'_t`` is
    a pure function of the insertion sequence, so replaying the same trace
    produces the identical ghost for every healer — its Theorem-2 reference
    metrics are computed once (by the first run) and served from cache for
    the rest instead of being recomputed per healer.
    """
    # Imported here: the adversary package reaches back into the harness
    # through repro.scenarios.runner, so a module-level import would cycle.
    from repro.adversary.correlated import RecordedAdversary

    factories = list(healers.values()) if isinstance(healers, Mapping) else list(healers)
    if not factories:
        return []
    ghost_engine = MetricsEngine(
        exact_limit=base_config.exact_expansion_limit,
        stretch_sample_pairs=base_config.stretch_sample_pairs,
        seed=base_config.seed,
    )
    reference = run_experiment(
        replace(base_config, healer_factory=factories[0]), ghost_engine=ghost_engine
    )
    recorded = partial(
        RecordedAdversary, reference.trace, reference.event_steps, label=reference.adversary_name
    )
    challengers = [
        run_experiment(
            replace(base_config, healer_factory=factory, adversary_factory=recorded),
            ghost_engine=ghost_engine,
        )
        for factory in factories[1:]
    ]
    return [reference, *challengers]
