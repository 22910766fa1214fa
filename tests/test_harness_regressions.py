"""Regression tests for harness accounting bugs fixed alongside the fast core.

Three distinct bugs are pinned here:

* ``run_experiment`` used to pass ``rounds=0`` to the cost ledger instead of
  the repair report's round estimate, so live runs reported zero repair
  rounds while trace replays of the very same events reported the true ones.
* Trace replay counted an insertion as executed before discovering that
  none of its anchor neighbours survived, inflating the summary row's step
  counters relative to the work actually replayed.  Replay is now strict:
  such an insertion fails validation and nothing is counted.
* ``snapshot_every`` cadence/skip semantics on live runs and replays.

A fourth class pins the materialization contract of the run loop: an
``nx.Graph`` is built only for a metric snapshot or a read of
``ExperimentResult.final_graph``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import networkx as nx
import pytest

from repro.adversary.base import AdversaryEvent, EventType
from repro.adversary.correlated import RecordedAdversary
from repro.analysis.trackers import MetricTimeline
from repro.core.edgestore import EdgeStore
from repro.core.xheal import Xheal
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.scenarios.artifacts import replay_artifact, save_run
from repro.scenarios.runner import RunRecord
from repro.scenarios.spec import ScenarioSpec
from repro.util.validation import ValidationError


def _deletion_heavy_spec(**overrides) -> ScenarioSpec:
    base = dict(
        healer="xheal",
        topology="random-regular",
        topology_kwargs={"n": 24, "degree": 4},
        adversary="random",
        adversary_kwargs={"delete_probability": 0.9},
        timesteps=25,
        seed=21,
        exact_expansion_limit=0,
        stretch_sample_pairs=10,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestRepairRoundAccounting:
    def test_live_run_records_nonzero_repair_rounds(self):
        result = run_experiment(_deletion_heavy_spec().validate().compile())
        assert result.deletions > 0
        # Xheal's cost model charges O(log n) rounds per repaired deletion;
        # before the fix the ledger saw rounds=0 for every live deletion.
        assert result.cost_summary.max_rounds > 0
        assert result.cost_summary.mean_rounds > 0

    def test_live_and_replayed_cost_summaries_agree_on_rounds(self):
        spec = _deletion_heavy_spec()
        config = spec.validate().compile()
        live = run_experiment(config)
        replayed = run_experiment(
            replace(config, adversary_factory=partial(RecordedAdversary, live.trace))
        )
        assert live.cost_summary.max_rounds == replayed.cost_summary.max_rounds
        assert live.cost_summary.mean_rounds == replayed.cost_summary.mean_rounds
        assert live.cost_summary.total_messages == replayed.cost_summary.total_messages


class TestTraceReplaySkipCounting:
    def test_unapplicable_insertion_is_not_counted(self):
        initial = nx.path_graph(4)  # nodes 0..3
        trace = [
            AdversaryEvent(EventType.INSERT, 10, (99,)),  # anchor never existed
            AdversaryEvent(EventType.INSERT, 11, (0, 1)),
        ]
        config = ExperimentConfig(
            healer_factory=lambda: Xheal(kappa=2, seed=0),
            adversary_factory=partial(RecordedAdversary, trace),
            initial_graph=initial,
            kappa=2,
            exact_expansion_limit=0,
            stretch_sample_pairs=None,
        )
        # Strict replay: the dangling anchor fails validation up front,
        # naming the node, before anything is applied or counted.
        with pytest.raises(ValidationError, match="neighbor 99 not in the network"):
            run_experiment(config)

    def test_artifact_replay_of_undegraded_run_is_byte_identical(self, tmp_path):
        spec = _deletion_heavy_spec(timesteps=15)
        record = RunRecord.from_result(
            spec, run_experiment(spec.validate().compile())
        )
        path = save_run(record, tmp_path / "run.jsonl")
        report = replay_artifact(path)
        assert report.identical, report.differences()


class TestSnapshotEvery:
    def test_snapshot_every_zero_skips_final_snapshots(self):
        spec = _deletion_heavy_spec(snapshot_every=0)
        result = run_experiment(spec.validate().compile())
        assert result.final_metrics is None
        assert result.ghost_metrics is None
        assert result.final_verdict is None
        row = result.summary_row()
        for column in ("h(Gt)", "h(G't)", "lambda(Gt)", "lambda(G't)", "theorem2_holds"):
            assert row[column] is None
        # Counter columns stay exact even without snapshots.
        assert row["steps"] == result.timesteps_executed > 0
        assert row["nodes"] == result.final_graph.number_of_nodes()
        assert row["edges"] == result.final_graph.number_of_edges()
        assert row["max_degree_ratio"] > 0

    def test_snapshot_every_zero_replay_matches_live_row(self, tmp_path):
        spec = _deletion_heavy_spec(timesteps=15, snapshot_every=0)
        record = RunRecord.from_result(
            spec, run_experiment(spec.validate().compile())
        )
        report = replay_artifact(save_run(record, tmp_path / "run.jsonl"))
        assert report.identical, report.differences()

    def test_snapshot_cadence_records_timeline_entries(self):
        spec = _deletion_heavy_spec(timesteps=20, snapshot_every=5)
        result = run_experiment(spec.validate().compile())
        recorded = [entry.timestep for entry in result.timeline.entries]
        assert recorded  # at least the cadence points that were reached
        assert all(timestep % 5 == 0 for timestep in recorded)
        assert result.final_metrics is not None  # cadence N>=1 keeps the final trio

    def test_default_none_keeps_legacy_behavior(self):
        spec = _deletion_heavy_spec(timesteps=10)
        result = run_experiment(spec.validate().compile())
        assert result.final_metrics is not None
        assert result.final_verdict is not None
        assert spec.to_dict().get("snapshot_every", "absent") == "absent"

    def test_validate_rejects_negative_snapshot_every(self):
        spec = _deletion_heavy_spec(snapshot_every=-1)
        with pytest.raises(Exception):
            spec.validate()


class TestMaterializationContract:
    @pytest.fixture
    def materializations(self, monkeypatch):
        """Count every ``EdgeStore.to_networkx`` call."""
        calls: list[EdgeStore] = []
        original = EdgeStore.to_networkx

        def counted(store):
            calls.append(store)
            return original(store)

        monkeypatch.setattr(EdgeStore, "to_networkx", counted)
        return calls

    @staticmethod
    def _capturing(config):
        """Return ``config`` with a healer factory that keeps its healers."""
        healers = []

        def factory():
            healers.append(config.healer_factory())
            return healers[-1]

        return replace(config, healer_factory=factory), healers

    def test_snapshot_free_runs_never_materialize(self, materializations):
        spec = _deletion_heavy_spec(snapshot_every=0)
        config = spec.validate().compile()
        del materializations[:]
        live = run_experiment(config)
        assert live.timesteps_executed > 0
        assert materializations == []
        replayed = run_experiment(
            replace(
                config,
                adversary_factory=partial(
                    RecordedAdversary, live.trace, label=live.adversary_name
                ),
            )
        )
        assert replayed.summary_row() == live.summary_row()
        assert materializations == []

    def test_final_graph_materializes_once_and_matches_a_healer_copy(self, materializations):
        spec = _deletion_heavy_spec(
            topology="racked-clos",
            topology_kwargs={"racks": 3, "nodes_per_rack": 5},
            adversary_kwargs={"delete_probability": 0.5},
            snapshot_every=0,
        )
        config, healers = self._capturing(spec.validate().compile())
        del materializations[:]
        result = run_experiment(config)
        assert result.insertions > 0 and result.deletions > 0
        assert result.final_store is healers[0].graph_store
        graph = result.final_graph
        assert len(materializations) == 1
        assert result.final_graph is graph
        assert len(materializations) == 1
        # What ``healer.graph.copy()`` gave before the result kept the store.
        expected = healers[0].graph.copy()
        assert list(graph.nodes(data=True)) == list(expected.nodes(data=True))
        assert any(data.get("domain") for _, data in graph.nodes(data=True))
        assert [list(graph.adj[node].items()) for node in graph] == [
            list(expected.adj[node].items()) for node in expected
        ]
        assert any(data["owners"] for _, _, data in graph.edges(data=True))
        assert result.connected == nx.is_connected(graph)

    def test_snapshots_materialize_once_per_distinct_graph_version(
        self, materializations, monkeypatch
    ):
        versions: list[int] = []
        record = MetricTimeline.record

        def recording(timeline, *args, **kwargs):
            versions.append(kwargs["healed_version"])
            return record(timeline, *args, **kwargs)

        monkeypatch.setattr(MetricTimeline, "record", recording)
        config, healers = self._capturing(
            _deletion_heavy_spec(timesteps=22, metric_every=5).validate().compile()
        )
        del materializations[:]
        run_experiment(config)
        # Timeline snapshots at steps 5..20 plus the final trio at step 22.
        distinct = set(versions) | {healers[0].graph_version}
        assert len(versions) == 4 and len(distinct) == 5
        assert len(materializations) == len(distinct)
