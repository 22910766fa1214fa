"""Replay is a live run: one loop for live runs, comparisons and artifacts.

A replay is :func:`run_experiment` with a
:class:`~repro.adversary.correlated.RecordedAdversary` playing back a
recorded trace, so every config knob — metric, invariant and snapshot
cadences, batch boundaries — carries over by construction.  The
differentials below replay a batched, budget-limited ``domain-kill`` run
under three cadence settings and compare everything a run reports.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import pytest

from repro.adversary.correlated import RecordedAdversary
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.sweeps import compare_healers
from repro.scenarios.artifacts import replay_artifact, save_run
from repro.scenarios.runner import RunRecord, timeline_rows
from repro.scenarios.spec import ScenarioSpec

SPEC = ScenarioSpec(
    healer="budgeted",
    healer_kwargs={"inner": "xheal", "budget": 2},
    adversary="domain-kill",
    adversary_kwargs={"kill_every": 2, "min_nodes": 5},
    topology="pod-mesh",
    topology_kwargs={"pods": 3, "nodes_per_pod": 4},
    timesteps=6,
    seed=11,
    exact_expansion_limit=0,
    stretch_sample_pairs=10,
)

CADENCES = {
    "metric-and-invariants": {"metric_every": 2, "check_invariants_every": 3},
    "snapshot-cadence": {"snapshot_every": 2},
    "metric-without-final-snapshots": {"metric_every": 3, "snapshot_every": 0},
}


def _observed(result: ExperimentResult) -> dict:
    return {
        "timeline_rows": timeline_rows(result),
        "intermediate_verdicts": result.intermediate_verdicts,
        "event_steps": result.event_steps,
        "cache_stats": result.cache_stats,
        "summary_row": result.summary_row(),
    }


@pytest.fixture(params=sorted(CADENCES))
def config(request):
    return SPEC.with_overrides(**CADENCES[request.param]).compile()


def test_recorded_replay_reproduces_a_batched_run(config):
    live = run_experiment(config)
    # The run is batched (a domain kill is several events in one timestep)
    # and records a timeline, so the comparison below is not vacuous.
    assert len(live.event_steps) > len(set(live.event_steps))
    assert live.timeline.entries
    replayed = run_experiment(
        replace(
            config,
            adversary_factory=partial(
                RecordedAdversary, live.trace, live.event_steps, label=live.adversary_name
            ),
        )
    )
    assert _observed(replayed) == _observed(live)
    assert replayed.trace == live.trace


def test_compare_healers_challenger_matches_the_reference(config):
    reference, challenger = compare_healers(config, [config.healer_factory] * 2)
    observed = _observed(challenger)
    expected = _observed(reference)
    # The shared ghost engine pre-seeds the challenger's cache, so only its
    # hit/miss counters may differ.
    del observed["cache_stats"], expected["cache_stats"]
    assert observed == expected
    assert challenger.adversary_name == reference.adversary_name == "domain-kill"


def test_artifact_replay_of_a_run_with_more_events_than_timesteps(tmp_path):
    spec = SPEC.with_overrides(metric_every=2, check_invariants_every=3)
    result = run_experiment(spec.compile())
    assert len(result.trace) > spec.timesteps
    path = save_run(RunRecord.from_result(spec, result), tmp_path / "run.jsonl")
    report = replay_artifact(path)
    assert report.identical, report.differences()
    # Artifact event lines carry no timestep: the replay is flat.
    assert report.result.event_steps == list(range(1, len(result.trace) + 1))
