"""CLI error-path coverage: exit codes and stderr for every subcommand.

ISSUE 5 satellite: unknown names must fail with did-you-mean text, missing
and tampered stream directories must fail with a pointed message rather
than a traceback, and ``--resume`` with a mismatched ``--replicates`` must
refuse before silently re-running the whole grid.  All failures exit 2 (a
usage/input error); a replay that *runs* but deviates exits 1.
"""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import pytest

from repro.scenarios import ScenarioSpec, SweepSpec, run_scenarios
from repro.scenarios.adaptive import AdaptiveSpec, HalvingSchedule, run_adaptive
from repro.scenarios.cli import main as cli_main
from repro.scenarios.stream import (
    FAILURES_NAME,
    INDEX_NAME,
    MANIFEST_NAME,
    ROUNDS_NAME,
    IndexEntry,
)

BASE = ScenarioSpec(
    name="cli-test",
    healer="xheal",
    adversary="random",
    adversary_kwargs={"delete_probability": 0.6},
    topology="random-regular",
    topology_kwargs={"n": 12, "degree": 4},
    timesteps=2,
    exact_expansion_limit=0,
    stretch_sample_pairs=5,
    seed=2,
)

SWEEP = SweepSpec(base=BASE, axes={"timesteps": [2, 3]})


@pytest.fixture
def spec_file(tmp_path) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(BASE.to_json())
    return path


@pytest.fixture
def sweep_file(tmp_path) -> Path:
    path = tmp_path / "sweep.json"
    path.write_text(SWEEP.to_json())
    return path


def test_list_exits_zero(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "healers:" in out and "xheal" in out


def test_list_verbose_shows_signatures_and_docstring_summaries(capsys):
    assert cli_main(["list", "--verbose"]) == 0
    out = capsys.readouterr().out
    # Constructor signature with defaults, on the component's own line...
    assert "budgeted(inner:" in out and "budget:" in out
    assert "domain-kill(kill_every:" in out
    assert "trace-replay(path:" in out
    # ... and the first docstring line indented beneath it.
    assert "Kill an entire failure domain at once" in out
    assert "Replay a recorded JSONL churn trace" in out


def test_list_verbose_restricts_to_the_requested_kind(capsys):
    assert cli_main(["list", "--kind", "topologies", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "racked-clos(racks:" in out and "pod-mesh(pods:" in out
    assert "healers:" not in out


def test_run_unknown_healer_suggests_the_nearest_name(tmp_path, capsys):
    spec = tmp_path / "typo.json"
    spec.write_text(BASE.with_overrides(healer="xhea").to_json())
    assert cli_main(["run", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown healer 'xhea'" in err
    assert "did you mean 'xheal'?" in err


def test_run_unknown_adversary_suggests_the_nearest_name(tmp_path, capsys):
    spec = tmp_path / "typo.json"
    spec.write_text(BASE.with_overrides(adversary="randm").to_json())
    assert cli_main(["run", str(spec)]) == 2
    assert "did you mean 'random'?" in capsys.readouterr().err


def test_run_missing_spec_file_exits_two(tmp_path, capsys):
    assert cli_main(["run", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_malformed_spec_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("timesteps", "abc"),
        ("timesteps", 2.5),
        ("metric_every", "x"),
        ("stretch_sample_pairs", "all"),
        ("kappa", "4"),
        ("topology_kwargs", [1, 2]),
        ("healer_kwargs", "x"),
    ],
)
def test_run_mistyped_run_parameter_exits_two_naming_the_field(tmp_path, capsys, field, value):
    document = BASE.to_dict()
    document[field] = value
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(document))
    assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")
    assert repr(value) in err


def test_sweep_unknown_axis_names_the_sweepable_fields(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    document = SWEEP.to_dict()
    document["axes"] = {"timestps": [2, 3]}
    path.write_text(json.dumps(document))
    assert cli_main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert "timestps" in err and "not a sweepable field" in err


#: Valid blocks the dotted cases below plant their one wrong field into.
BLOCKS = {
    "policy": {"timeout_s": 5.0},
    "adaptive": {"halving": {"axis": "timesteps", "objective": "amortized_msgs"}},
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("axes", [1, 2]),
        ("executor", 3),
        ("derive_seeds", "false"),
        ("name", 5),
        ("base", 5),
        ("policy.timeout_s", "5"),
        ("policy.timeout_s", True),
        ("policy.backoff", "x"),
        ("policy.timeout_s", float("inf")),
        ("adaptive.stopping", 5),
        ("adaptive.halving.replicates", "2"),
    ],
)
def test_sweep_mistyped_field_exits_two_naming_the_field(tmp_path, capsys, field, value):
    document = SWEEP.to_dict()
    *parents, leaf = field.split(".")
    target = document
    for key in parents:
        target = target.setdefault(key, copy.deepcopy(BLOCKS.get(key, {})))
    target[leaf] = value
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(document))
    assert cli_main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")
    assert repr(value) in err


@pytest.mark.parametrize(
    "schedule, field",
    [
        ('{"crash_prob": "x"}', "crash_prob"),
        ('{"hang_prob": 1.0, "hang_s": Infinity}', "hang_s"),
    ],
    ids=["crash-prob-string", "hang-s-infinity"],
)
def test_sweep_mistyped_chaos_schedule_exits_two_naming_the_field(
    sweep_file, capsys, monkeypatch, schedule, field
):
    monkeypatch.setenv("REPRO_CHAOS", schedule)
    assert cli_main(["sweep", str(sweep_file)]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]",
        '{"type": "delete", "node": 3, "neighbors": 5}',
        '{"type": "delete", "node": [3], "neighbors": []}',
        '{"type": "delete", "node": true, "neighbors": []}',
        '{"type": "delete", "node": 3, "neighbors": [], "step": "x"}',
    ],
    ids=["array", "neighbors-int", "node-list", "node-bool", "step-string"],
)
def test_run_malformed_churn_trace_line_exits_two_naming_the_line(tmp_path, capsys, line):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n")
    spec = tmp_path / "replay.json"
    spec.write_text(
        BASE.with_overrides(
            adversary="trace-replay", adversary_kwargs={"path": str(trace)}
        ).to_json()
    )
    assert cli_main(["run", str(spec)]) == 2
    err = capsys.readouterr().err
    assert f"{trace}:1: " in err
    assert "Traceback" not in err


def test_sweep_rejects_artifact_dir_with_stream_to(sweep_file, tmp_path, capsys):
    code = cli_main(
        [
            "sweep",
            str(sweep_file),
            "--artifact-dir",
            str(tmp_path / "a"),
            "--stream-to",
            str(tmp_path / "b"),
        ]
    )
    assert code == 2
    assert "--artifact-dir" in capsys.readouterr().err


def test_sweep_rejects_compress_without_streaming(sweep_file, capsys):
    assert cli_main(["sweep", str(sweep_file), "--compress"]) == 2
    assert "--compress" in capsys.readouterr().err


def test_resume_replicates_mismatch_is_refused(sweep_file, tmp_path, capsys):
    directory = tmp_path / "dir"
    assert (
        cli_main(
            ["sweep", str(sweep_file), "--stream-to", str(directory), "--replicates", "3"]
        )
        == 0
    )
    capsys.readouterr()
    # Fewer replicates than recorded.
    assert (
        cli_main(
            ["sweep", str(sweep_file), "--resume", str(directory), "--replicates", "2"]
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "replicate ids up to 2" in err and "--replicates 2" in err
    # No replicates at all against a replicated directory.
    assert cli_main(["sweep", str(sweep_file), "--resume", str(directory)]) == 2
    assert "replicates=1" in capsys.readouterr().err
    # The matching count resumes cleanly (everything already recorded).
    assert (
        cli_main(
            ["sweep", str(sweep_file), "--resume", str(directory), "--replicates", "3"]
        )
        == 0
    )
    assert "executed 0, resumed 6" in capsys.readouterr().out


def test_resume_with_replicates_over_an_unreplicated_directory_is_refused(
    sweep_file, tmp_path, capsys
):
    directory = tmp_path / "dir"
    assert cli_main(["sweep", str(sweep_file), "--stream-to", str(directory)]) == 0
    capsys.readouterr()
    assert (
        cli_main(
            ["sweep", str(sweep_file), "--resume", str(directory), "--replicates", "2"]
        )
        == 2
    )
    assert "streamed without replicates" in capsys.readouterr().err


def test_report_missing_directory_exits_two(tmp_path, capsys):
    assert cli_main(["report", str(tmp_path / "absent")]) == 2
    assert "not a sweep directory" in capsys.readouterr().err


def test_report_empty_directory_exits_two(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli_main(["report", str(empty)]) == 2
    assert "no run artifacts" in capsys.readouterr().err


def test_report_tampered_artifact_exits_two(tmp_path, capsys):
    directory = tmp_path / "dir"
    run_scenarios(SWEEP.expand(), stream_to=directory)
    victim = next(directory.glob("0000-*.jsonl"))
    victim.write_text("{torn artifact line\n")
    assert cli_main(["report", str(directory)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not valid JSONL" in err


@pytest.mark.parametrize("command", ["replay", "report"])
@pytest.mark.parametrize(
    "line", ["[1, 2]", '{"kind": "spec", "data": 5}'], ids=["array", "spec-data-int"]
)
def test_malformed_artifact_line_exits_two_naming_the_line(
    spec_file, tmp_path, capsys, command, line
):
    directory = tmp_path / "dir"
    artifact = directory / "0000-run.jsonl"
    assert cli_main(["run", str(spec_file), "--artifact", str(artifact)]) == 0
    capsys.readouterr()
    lines = artifact.read_text().splitlines()
    lines.insert(1, line)
    artifact.write_text("\n".join(lines) + "\n")
    target = artifact if command == "replay" else directory
    assert cli_main([command, str(target)]) == 2
    err = capsys.readouterr().err
    assert f"{artifact}:2: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["replay", "report"])
def test_mistyped_artifact_spec_exits_two_naming_the_artifact_and_field(
    spec_file, tmp_path, capsys, command
):
    directory = tmp_path / "dir"
    artifact = directory / "0000-run.jsonl"
    assert cli_main(["run", str(spec_file), "--artifact", str(artifact)]) == 0
    capsys.readouterr()
    lines = artifact.read_text().splitlines()
    entry = json.loads(lines[0])
    assert entry["kind"] == "spec"
    entry["data"]["name"] = 5
    lines[0] = json.dumps(entry)
    artifact.write_text("\n".join(lines) + "\n")
    target = artifact if command == "replay" else directory
    assert cli_main([command, str(target)]) == 2
    err = capsys.readouterr().err
    assert f"{artifact}:1: name must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "manifest, field",
    [
        ("{}", "entries"),
        ('{"entries": [{"x": 1}]}', "entries[0].artifact"),
        ("[1]", "must be a JSON object"),
    ],
    ids=["no-entries", "entry-without-artifact", "array"],
)
def test_report_malformed_manifest_exits_two_naming_the_field(
    tmp_path, capsys, manifest, field
):
    directory = tmp_path / "dir"
    directory.mkdir()
    (directory / "MANIFEST.json").write_text(manifest)
    assert cli_main(["report", str(directory)]) == 2
    err = capsys.readouterr().err
    assert f"{directory / 'MANIFEST.json'}: " in err and field in err
    assert "Traceback" not in err


def test_report_watch_missing_directory_exits_two(tmp_path, capsys):
    assert cli_main(["report", str(tmp_path / "absent"), "--watch"]) == 2
    assert "not a sweep directory" in capsys.readouterr().err


def test_report_watch_empty_directory_gives_up_after_max_refreshes(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = cli_main(
        ["report", str(empty), "--watch", "--max-refreshes", "1", "--interval", "0"]
    )
    assert code == 2
    assert "no points appeared" in capsys.readouterr().err


def test_report_watch_of_a_finished_sweep_matches_one_shot_output(tmp_path, capsys):
    directory = tmp_path / "dir"
    run_scenarios(SWEEP.expand(), stream_to=directory)
    assert cli_main(["report", str(directory)]) == 0
    one_shot = capsys.readouterr().out
    assert cli_main(["report", str(directory), "--watch", "--max-refreshes", "1"]) == 0
    watched = capsys.readouterr()
    assert watched.out == one_shot
    assert "[watch]" in watched.err and "complete" in watched.err


def test_retry_failed_without_resume_exits_two(sweep_file, capsys):
    assert cli_main(["sweep", str(sweep_file), "--retry-failed"]) == 2
    err = capsys.readouterr().err
    assert "--retry-failed" in err and "--resume" in err


def test_sweep_with_quarantined_points_exits_three_with_a_retry_hint(tmp_path, capsys):
    flaky_sweep = SweepSpec(
        base=BASE.with_overrides(
            name="cli-flaky", healer="chaos-flaky", healer_kwargs={"fail_at": 0}
        ),
        axes={"timesteps": [2, 3]},
    )
    path = tmp_path / "flaky.json"
    path.write_text(flaky_sweep.to_json())
    directory = tmp_path / "dir"
    code = cli_main(
        ["sweep", str(path), "--stream-to", str(directory), "--max-retries", "1"]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "failed 2" in captured.out
    assert "quarantined after exhausting retries" in captured.err
    assert "--retry-failed" in captured.err
    assert (directory / "failures.jsonl").is_file()
    # The degraded directory still reports — exit 0, failed points listed.
    assert cli_main(["report", str(directory)]) == 0
    report_out = capsys.readouterr()
    assert "## Failed points" in report_out.out and "cli-flaky" in report_out.out
    assert "quarantined point(s) are missing" in report_out.err


def test_interrupted_streamed_sweep_exits_130_with_a_resume_hint(
    sweep_file, tmp_path, capsys, monkeypatch
):
    import repro.scenarios.runner as runner_module

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_module, "run_scenarios", interrupted)
    directory = tmp_path / "dir"
    code = cli_main(["sweep", str(sweep_file), "--stream-to", str(directory)])
    assert code == 130
    err = capsys.readouterr().err
    assert "completed points are safe" in err
    assert f"--resume {directory}" in err


def test_interrupted_buffered_command_exits_130(sweep_file, capsys, monkeypatch):
    import repro.scenarios.runner as runner_module

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_module, "run_scenarios", interrupted)
    assert cli_main(["sweep", str(sweep_file)]) == 130
    assert "interrupted" in capsys.readouterr().err


def test_replay_missing_artifact_exits_two(tmp_path, capsys):
    assert cli_main(["replay", str(tmp_path / "absent.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_replay_of_an_event_that_cannot_apply_exits_two_naming_the_node(
    spec_file, tmp_path, capsys
):
    artifact = tmp_path / "run.jsonl"
    assert cli_main(["run", str(spec_file), "--artifact", str(artifact)]) == 0
    capsys.readouterr()
    lines = artifact.read_text().splitlines()
    first_event = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "event")
    lines[first_event] = json.dumps(
        {"kind": "event", "data": {"type": "delete", "node": 999, "neighbors": []}},
        sort_keys=True,
    )
    artifact.write_text("\n".join(lines) + "\n")
    assert cli_main(["replay", str(artifact)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "999" in err
    assert "Traceback" not in err


def test_run_replay_roundtrip_including_compressed_artifact(spec_file, tmp_path, capsys):
    artifact = tmp_path / "run.jsonl.gz"
    assert cli_main(["run", str(spec_file), "--artifact", str(artifact)]) == 0
    capsys.readouterr()
    assert cli_main(["replay", str(artifact)]) == 0
    assert "replay identical: True" in capsys.readouterr().out


# -- executor selection (ISSUE 7) ---------------------------------------------


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_rejects_non_positive_workers(sweep_file, capsys, workers):
    assert cli_main(["sweep", str(sweep_file), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert "--workers must be at least 1" in err
    assert f"(got {workers})" in err
    assert "Traceback" not in err


def test_sweep_unknown_executor_suggests_the_nearest_name(sweep_file, capsys):
    code = cli_main(["sweep", str(sweep_file), "--executor", "subproces-fleet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown executor 'subproces-fleet'" in err
    assert "did you mean 'subprocess-fleet'?" in err


def test_list_includes_the_executor_registry(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "executors:" in out
    for name in ("serial", "process-pool", "subprocess-fleet"):
        assert name in out


def test_list_kind_executors_shows_only_executors(capsys):
    assert cli_main(["list", "--kind", "executors"]) == 0
    out = capsys.readouterr().out
    assert "executors:" in out and "subprocess-fleet" in out
    assert "healers:" not in out


def test_sweep_explicit_executor_runs_to_completion(sweep_file, tmp_path, capsys):
    directory = tmp_path / "fleet-run"
    code = cli_main(
        ["sweep", str(sweep_file), "--stream-to", str(directory),
         "--executor", "subprocess-fleet", "--workers", "2"]
    )
    assert code == 0
    assert "executed 2" in capsys.readouterr().out


# -- line records: a wrong shape exits 2 naming <path>:<line> and the field ----


HALVING_SWEEP = SweepSpec(
    base=BASE,
    axes={"healer_kwargs.kappa": [2, 4]},
    adaptive=AdaptiveSpec(
        halving=HalvingSchedule(
            axis="healer_kwargs.kappa", objective="amortized_msgs", timesteps=2
        )
    ),
)


@pytest.fixture(scope="module")
def streamed(tmp_path_factory) -> dict:
    """A finished plain sweep and a finished halving sweep; tests edit copies."""
    root = tmp_path_factory.mktemp("streamed")
    run_scenarios(SWEEP.expand(), stream_to=root / "plain")
    run_adaptive(HALVING_SWEEP, root / "halving")
    return {"plain": root / "plain", "halving": root / "halving"}


def _edit_line(path: Path, number: int, edit) -> None:
    """Apply ``edit`` to the parsed JSON of line ``number`` (1-based) of ``path``."""
    lines = path.read_text().splitlines()
    entry = json.loads(lines[number - 1])
    edit(entry)
    lines[number - 1] = json.dumps(entry, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def _refused(capsys, argv: list, location, field: str) -> None:
    """Require ``repro <argv>`` to exit 2 naming ``location`` and ``field``."""
    capsys.readouterr()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert f"{location}: " in err and field in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("scores", 5, "scores must be a JSON array"),
        ("budget", 5, "budget must be a JSON object"),
        ("survivors", 5, "survivors must be a JSON array"),
        ("scores", [5], "scores[0] must be a JSON object"),
    ],
    ids=["scores-int", "budget-int", "survivors-int", "score-int"],
)
def test_report_refuses_a_mistyped_rounds_line(streamed, tmp_path, capsys, key, value, field):
    directory = shutil.copytree(streamed["halving"], tmp_path / "dir")
    _edit_line(directory / ROUNDS_NAME, 1, lambda entry: entry.update({key: value}))
    _refused(capsys, ["report", str(directory)], f"{directory / ROUNDS_NAME}:1", field)


@pytest.mark.parametrize("key", ["healed", "ghost"])
def test_report_refuses_a_timeline_line_whose_snapshot_is_not_an_object(tmp_path, capsys, key):
    result = run_scenarios([BASE.with_overrides(metric_every=1)], stream_to=tmp_path / "dir")
    [artifact] = result.paths
    lines = artifact.read_text().splitlines()
    number = 1 + next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "timeline")
    _edit_line(artifact, number, lambda entry: entry["data"].update({key: 5}))
    argv = ["report", str(result.directory)]
    _refused(capsys, argv, f"{artifact}:{number}", f"{key} must be a JSON object")


def test_report_refuses_a_mistyped_failures_line(streamed, tmp_path, capsys):
    directory = shutil.copytree(streamed["plain"], tmp_path / "dir")
    (directory / MANIFEST_NAME).unlink()  # without it the report reads the ledger
    (directory / FAILURES_NAME).write_text('{"fingerprint": "f", "index": "0"}\n')
    _refused(capsys, ["report", str(directory)], f"{directory / FAILURES_NAME}:1", "index must be")


@pytest.mark.parametrize("command", ["resume", "watch"])
def test_a_mistyped_index_line_is_refused(streamed, sweep_file, tmp_path, capsys, command):
    directory = shutil.copytree(streamed["plain"], tmp_path / "dir")
    _edit_line(directory / INDEX_NAME, 1, lambda entry: entry.update(index="0"))
    argv = {
        "resume": ["sweep", str(sweep_file), "--resume", str(directory)],
        "watch": ["report", str(directory), "--watch", "--max-refreshes", "1"],
    }[command]
    _refused(capsys, argv, f"{directory / INDEX_NAME}:1", "index must be")


def test_a_resume_parses_each_index_line_once(streamed, sweep_file, tmp_path, monkeypatch):
    """The replicate check and the completed-point scan share one read of the
    index; detect_compression's peek at its first line adds one parse."""
    directory = shutil.copytree(streamed["plain"], tmp_path / "dir")
    lines = len((directory / INDEX_NAME).read_text().splitlines())
    parsed = []
    from_dict = IndexEntry.from_dict.__func__

    def counted(cls, data, path=""):
        parsed.append(data)
        return from_dict(cls, data, path)

    monkeypatch.setattr(IndexEntry, "from_dict", classmethod(counted))
    assert cli_main(["sweep", str(sweep_file), "--resume", str(directory)]) == 0
    assert len(parsed) == lines + 1


def test_replay_refuses_a_mistyped_event_line(spec_file, tmp_path, capsys):
    artifact = tmp_path / "run.jsonl"
    assert cli_main(["run", str(spec_file), "--artifact", str(artifact)]) == 0
    lines = artifact.read_text().splitlines()
    number = 1 + next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "event")
    _edit_line(artifact, number, lambda entry: entry["data"].update(node="3"))
    _refused(capsys, ["replay", str(artifact)], f"{artifact}:{number}", "node must be")


def test_run_refuses_an_unknown_key_in_a_churn_trace_line(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"type": "delete", "node": 3, "neighbors": [], "weight": 1}\n')
    spec = tmp_path / "replay.json"
    spec.write_text(
        BASE.with_overrides(
            adversary="trace-replay", adversary_kwargs={"path": str(trace)}
        ).to_json()
    )
    _refused(capsys, ["run", str(spec)], f"{trace}:1", "weight")


def test_report_refuses_a_manifest_artifact_outside_the_directory(streamed, tmp_path, capsys):
    directory = shutil.copytree(streamed["plain"], tmp_path / "dir")
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    outside = tmp_path / "outside.jsonl"
    (directory / manifest["entries"][0]["artifact"]).rename(outside)
    manifest["entries"][0]["artifact"] = str(outside)
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
    _refused(capsys, ["report", str(directory)], directory / MANIFEST_NAME, "entries[0].artifact")


def test_resume_refuses_an_index_artifact_outside_the_directory(
    streamed, sweep_file, tmp_path, capsys
):
    directory = shutil.copytree(streamed["plain"], tmp_path / "dir")
    _edit_line(
        directory / INDEX_NAME, 1, lambda entry: entry.update(artifact="../" + entry["artifact"])
    )
    _refused(
        capsys,
        ["sweep", str(sweep_file), "--resume", str(directory)],
        f"{directory / INDEX_NAME}:1",
        "artifact must be a bare file name",
    )
