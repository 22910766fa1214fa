"""Tests of the benchmark itself: span roll-up, output checks, metric names."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.experiment import ExperimentResult
from repro.scenarios import run_scenarios

from perfbench.tracer import Rollup, Tracer
from perfbench.workloads import (
    END_TO_END,
    PER_LAYER,
    Runner,
    Workload,
    end_to_end_metrics,
    failed_points,
    measure,
    per_layer_metrics,
    sweep_digest,
)

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

TINY_SIM = Workload(
    "tiny-sim",
    {"topology_kwargs": {"n": 24, "degree": 4}, "timesteps": 6, "snapshot_every": 0},
    instances=2,
)
TINY_SWEEP = Workload(
    "tiny-sweep",
    {"topology_kwargs": {"n": 24, "degree": 4}, "timesteps": 4, "snapshot_every": 0},
    points=3,
    executor="serial",
)


def test_rollup_self_time_on_a_synthetic_span_tree():
    spans = [
        ["bench.pass", 0.0, 10.0, -1],
        ["core.handle_deletion", 1.0, 4.0, 0],
        ["expanders.expander_or_clique", 2.0, 3.0, 1],
        ["perf.snapshot", 5.0, 9.0, 0],
        ["core.handle_deletion", 9.5, 10.0, 0],
    ]
    rollup = Rollup(spans)
    assert rollup.self_s["bench.pass"] == pytest.approx(10 - 3 - 4 - 0.5)
    assert rollup.self_s["core.handle_deletion"] == pytest.approx(2 + 0.5)
    assert rollup.self_s["expanders.expander_or_clique"] == pytest.approx(1)
    assert rollup.calls("core.handle_deletion") == 2
    assert rollup.total_s("core.handle_deletion") == pytest.approx(3.5)
    layers = rollup.layer_self_s()
    assert layers["core"] == pytest.approx(2.5)
    assert layers["expanders"] == pytest.approx(1)
    assert layers["perf"] == pytest.approx(4)
    assert layers["scenarios"] == 0.0


def test_wrappers_nest_spans_and_uninstall_restores_the_originals():
    tracer = Tracer()
    inner = tracer.wrap("perf.inner", lambda x: x + 1)
    outer = tracer.wrap("core.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("core.outer", -1),
        ("perf.inner", 0),
    ]

    from repro.core.healer import SelfHealer

    original = SelfHealer.__dict__["handle_deletion"]
    tracer.install()
    assert SelfHealer.__dict__["handle_deletion"] is not original
    tracer.uninstall()
    assert SelfHealer.__dict__["handle_deletion"] is original
    assert not tracer._restore


def test_a_perturbed_summary_row_counts_as_failed(tmp_path, monkeypatch):
    runner = Runner(TINY_SIM, seed=5, work=tmp_path)
    runner.reference()
    runner.timed_pass()
    assert (runner.attempted, runner.failed) == (4, 0)

    honest = ExperimentResult.summary_row

    def perturbed(self):
        row = honest(self)
        row["edges"] += 1
        return row

    monkeypatch.setattr(ExperimentResult, "summary_row", perturbed)
    runner.timed_pass()
    assert (runner.attempted, runner.failed) == (6, 2)


def test_a_hash_mismatched_sweep_artifact_counts_as_failed(tmp_path):
    specs = TINY_SWEEP.sweep_specs(seed=5)
    run_scenarios(specs, stream_to=tmp_path / "reference", executor="serial")
    reference = sweep_digest(tmp_path / "reference", TINY_SWEEP.points)
    shutil.copytree(tmp_path / "reference", tmp_path / "tampered")
    manifest = json.loads((tmp_path / "tampered" / "MANIFEST.json").read_text())
    artifact = tmp_path / "tampered" / manifest["entries"][1]["artifact"]
    artifact.write_bytes(artifact.read_bytes().replace(b'"steps"', b'"Steps"', 1))

    tampered = sweep_digest(tmp_path / "tampered", TINY_SWEEP.points)
    assert tampered["points"][1].startswith("torn:")
    assert failed_points(tampered, reference) == 1
    assert failed_points(reference, reference) == 0
    quarantined = {**reference, "points": [None, *reference["points"][1:]]}
    assert failed_points(quarantined, reference) == 1


def _check_metrics(values: dict, declared: dict) -> None:
    assert set(values) == set(declared)
    for name, value in values.items():
        unit, better = declared[name]
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
        assert better in ("higher", "lower")
        assert isinstance(value, float) and math.isfinite(value), (name, value)


@pytest.mark.parametrize("workload", [TINY_SIM, TINY_SWEEP], ids=lambda w: w.name)
def test_every_emitted_metric_is_declared_well_named_and_has_a_unit(tmp_path, workload):
    runner, probe, tracer, stats = measure(ROOT, workload, 5, 0.0, True, tmp_path)
    assert runner.failed == 0 and runner.attempted > 0
    _check_metrics(end_to_end_metrics(runner, probe), END_TO_END)
    _check_metrics(per_layer_metrics(runner, probe, tracer, stats), PER_LAYER)
    tracer.write_jsonl(tmp_path / "spans.jsonl")
    first = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "run"}


def test_benchmark_json_declares_the_emitted_metrics_and_workloads():
    from perfbench.workloads import WORKLOADS

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in config["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    for key, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in config[key]}
        assert listed == declared


def test_run_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-heal", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
