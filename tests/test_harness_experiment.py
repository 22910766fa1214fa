"""Tests for the experiment runner and trace replay."""

from dataclasses import replace
from functools import partial

import networkx as nx
import pytest

from repro.adversary import DeletionOnlyAdversary, RandomAdversary, ScriptedAdversary
from repro.adversary.correlated import RecordedAdversary
from repro.baselines import ForgivingTreeHeal, NoHeal
from repro.core.xheal import Xheal
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.reporting import format_series, format_table, print_comparison, print_table
from repro.harness.workloads import random_regular_workload
from repro.util.validation import ValidationError


def base_config(**overrides):
    config = ExperimentConfig(
        healer_factory=lambda: Xheal(kappa=4, seed=1),
        adversary_factory=lambda: DeletionOnlyAdversary(seed=2),
        initial_graph=random_regular_workload(20, 4, seed=3),
        timesteps=10,
        kappa=4,
        exact_expansion_limit=14,
        stretch_sample_pairs=60,
    )
    return replace(config, **overrides) if overrides else config


def test_run_experiment_basic_outcome():
    result = run_experiment(base_config())
    assert result.healer_name == "xheal"
    assert result.deletions == 10
    assert result.insertions == 0
    assert result.connected
    assert result.final_verdict.all_hold
    assert result.cost_summary.deletions == 10


def test_run_experiment_validation():
    with pytest.raises(ValidationError):
        run_experiment(base_config(timesteps=0))


def test_run_experiment_records_timeline_and_verdicts():
    result = run_experiment(base_config(metric_every=5, check_invariants_every=5))
    assert len(result.timeline.entries) == 2
    assert len(result.intermediate_verdicts) == 2


def test_run_experiment_stops_when_adversary_exhausted():
    config = base_config(
        adversary_factory=lambda: ScriptedAdversary.deleting([0, 1]), timesteps=50
    )
    result = run_experiment(config)
    assert result.timesteps_executed == 2


def test_summary_row_keys():
    result = run_experiment(base_config(timesteps=5))
    row = result.summary_row()
    for key in ("healer", "h(Gt)", "h(G't)", "max_degree_ratio", "theorem2_holds"):
        assert key in row


def test_recorded_trace_replays_identically():
    first = run_experiment(base_config())
    replay = run_experiment(
        base_config(adversary_factory=partial(RecordedAdversary, first.trace))
    )
    assert replay.deletions == first.deletions
    assert replay.final_graph.number_of_nodes() == first.final_graph.number_of_nodes()


def test_recorded_trace_replay_with_baseline():
    source = run_experiment(base_config(timesteps=8))
    result = run_experiment(
        base_config(
            healer_factory=lambda: ForgivingTreeHeal(seed=0),
            adversary_factory=partial(RecordedAdversary, source.trace),
        )
    )
    assert result.healer_name == "forgiving-tree"
    assert result.deletions == source.deletions


def test_trace_skips_impossible_events():
    # A trace deleting the same node twice: replay is strict, so the second
    # deletion fails validation (naming the node) instead of being skipped.
    from repro.adversary.base import AdversaryEvent, EventType

    trace = [AdversaryEvent(EventType.DELETE, 0), AdversaryEvent(EventType.DELETE, 0)]
    config = base_config(
        healer_factory=NoHeal,
        adversary_factory=partial(RecordedAdversary, trace),
        initial_graph=random_regular_workload(10, 4, seed=1),
    )
    with pytest.raises(ValidationError, match="unknown node 0$"):
        run_experiment(config)


def test_reporting_table_and_series_rendering(capsys):
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
    table = format_table(rows)
    assert "a" in table and "10" in table and "-" in table
    print_table(rows, title="demo")
    captured = capsys.readouterr().out
    assert "demo" in captured
    assert format_table([]) == "(no rows)"
    series = format_series("expansion", [1, 2], [0.5, 0.25])
    assert "expansion" in series and "0.25" in series


def test_print_comparison_uses_summary_rows(capsys):
    result = run_experiment(base_config(timesteps=4))
    print_comparison([result], title="cmp")
    captured = capsys.readouterr().out
    assert "xheal" in captured and "cmp" in captured
