"""Tests for the parallel sweep runner, run artifacts, replay and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.sweeps import compare_healers, healer_factory
from repro.scenarios import ScenarioSpec, SweepSpec
from repro.scenarios.artifacts import load_run, replay_artifact, save_run
from repro.scenarios.cli import main as cli_main
from repro.scenarios.runner import RunRecord, execute_spec, run_scenarios

SPEC = ScenarioSpec(
    name="runner-test",
    healer="xheal",
    healer_kwargs={"kappa": 4},
    adversary="random",
    adversary_kwargs={"delete_probability": 0.6},
    topology="random-regular",
    topology_kwargs={"n": 24, "degree": 4},
    timesteps=12,
    metric_every=6,
    exact_expansion_limit=0,
    stretch_sample_pairs=50,
    seed=11,
)


def test_run_record_round_trips():
    record = execute_spec(SPEC)
    assert record.spec == SPEC
    assert record.summary["healer"] == "xheal"
    assert len(record.trace) == 12
    assert len(record.timeline) == 2
    rebuilt = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert rebuilt == record


def test_parallel_sweep_matches_serial_byte_for_byte():
    sweep = SweepSpec(
        base=SPEC, axes={"healer_kwargs.kappa": [2, 4], "timesteps": [6, 12]}
    )
    specs = sweep.expand()
    serial = run_scenarios(specs, workers=1)
    parallel = run_scenarios(specs, workers=3)
    serial_rows = [json.dumps(r.summary, sort_keys=True) for r in serial]
    parallel_rows = [json.dumps(r.summary, sort_keys=True) for r in parallel]
    assert serial_rows == parallel_rows
    # Results come back in submission order regardless of completion order.
    assert [r.spec.name for r in parallel] == [s.name for s in specs]


def test_artifact_save_load_replay_identical(tmp_path):
    record = execute_spec(SPEC)
    path = save_run(record, tmp_path / "run.jsonl")
    loaded = load_run(path)
    assert loaded == record
    report = replay_artifact(path)
    assert report.identical, report.differences()
    # The replayed result is a real ExperimentResult driven through
    # run_experiment with the original adversary label.
    assert report.result.adversary_name == record.summary["adversary"]
    assert report.result.summary_row() == record.summary


def test_replay_detects_tampered_summary(tmp_path):
    record = execute_spec(SPEC)
    path = save_run(record, tmp_path / "run.jsonl")
    lines = path.read_text().splitlines()
    tampered = []
    for line in lines:
        entry = json.loads(line)
        if entry["kind"] == "summary":
            entry["data"]["edges"] = entry["data"]["edges"] + 1
        tampered.append(json.dumps(entry))
    path.write_text("\n".join(tampered) + "\n")
    report = replay_artifact(path)
    assert not report.identical
    assert "edges" in report.differences()


def test_compare_healers_shares_ghost_metrics():
    config = SPEC.compile()
    factories = [
        config.healer_factory,
        healer_factory("forgiving-tree", seed=1),
        healer_factory("line-heal", seed=1),
    ]
    results = compare_healers(config, factories)
    assert [r.healer_name for r in results] == ["xheal", "forgiving-tree", "line-heal"]
    # Every challenger faced the reference's adversary and is labelled so.
    assert [r.adversary_name for r in results] == ["random"] * 3
    # Same trace -> identical full-ghost reference metrics for every healer.
    reference_ghost = results[0].ghost_metrics
    for result in results[1:]:
        assert result.ghost_metrics == reference_ghost
    # And they match an unshared standalone run exactly (sharing only skips
    # recomputation, never changes values).
    standalone = run_experiment(SPEC.compile())
    assert standalone.ghost_metrics == reference_ghost


def test_ghost_engine_sharing_skips_recomputation():
    import networkx as nx

    from repro.core.ghost import GhostGraph
    from repro.harness.experiment import _ghost_full_snapshot
    from repro.perf.engine import MetricsEngine

    ghost = GhostGraph(nx.random_regular_graph(4, 20, seed=1))
    shared = MetricsEngine(exact_limit=0)
    local1, local2 = MetricsEngine(exact_limit=0), MetricsEngine(exact_limit=0)
    first = _ghost_full_snapshot(local1, ghost, shared)
    misses_after_first = shared.cache.misses
    second = _ghost_full_snapshot(local2, ghost, shared)
    assert second == first
    # The second run's snapshot is a pure cache hit on the shared engine...
    assert shared.cache.misses == misses_after_first
    # ...and the run-local engine was pre-seeded, so the subsequent
    # check_theorem2 ghost lookups (expansion/lambda by plain version) hit too.
    hits_before = local2.cache.hits
    assert (
        local2.edge_expansion(ghost.graph, version=ghost.graph_version, label="ghost_full")
        == first.edge_expansion
    )
    assert (
        local2.algebraic_connectivity(ghost.graph, version=ghost.graph_version, label="ghost_full")
        == first.algebraic_connectivity
    )
    assert local2.cache.hits == hits_before + 2


def test_cli_rejects_malformed_spec_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli_main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_list_run_sweep_replay(tmp_path, capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "xheal" in out and "max-degree" in out and "two-cliques" in out

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(SPEC.to_json())
    artifact = tmp_path / "run.jsonl"
    assert cli_main(["run", str(spec_path), "--artifact", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "runner-test" in out
    assert artifact.exists()

    assert cli_main(["replay", str(artifact)]) == 0
    assert "replay identical: True" in capsys.readouterr().out

    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(
        SweepSpec(base=SPEC, axes={"timesteps": [4, 8]}).to_json()
    )
    assert cli_main(["sweep", str(sweep_path), "--workers", "2",
                     "--artifact-dir", str(tmp_path / "points")]) == 0
    assert len(list((tmp_path / "points").glob("*.jsonl"))) == 2

    # Unknown names surface as exit code 2 with the error on stderr.
    bad = tmp_path / "bad.json"
    bad.write_text(SPEC.with_overrides(healer="xhea").to_json())
    assert cli_main(["run", str(bad)]) == 2
    assert "did you mean" in capsys.readouterr().err


def test_run_scenarios_validates_before_scheduling():
    good = SPEC
    bad = SPEC.with_overrides(adversary="not-an-adversary")
    with pytest.raises(Exception, match="unknown adversary"):
        run_scenarios([good, bad], workers=2)
