"""Sharded completion indices: naming, deterministic merge, and resume.

Today every backend writes one ``index.jsonl``, but a fleet used to give
each worker its own ``index-<worker>.jsonl`` shard, so an older directory
may carry its completion log as shards, or as both at once (a sweep started
by one backend and finished by another).  Every reader — the resume scan,
``repro report``, the live watcher — must see one coherent directory
regardless of layout, with a fixed merge order (``index.jsonl`` first, then
shards by sorted filename, lines in file order) so duplicate fingerprints
resolve last-write-wins identically everywhere.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.analysis.report import ReportWatcher, generate_report
from repro.scenarios import ScenarioSpec, SweepSpec, SweepStream, run_scenarios
from repro.scenarios.stream import (
    INDEX_NAME,
    index_paths,
    is_index_name,
    iter_all_index_entries,
    shard_index_paths,
)
from repro.util.validation import ValidationError

BACKENDS = ("serial", "process-pool", "subprocess-fleet")

BASE = ScenarioSpec(
    name="shard-test",
    healer="xheal",
    healer_kwargs={"kappa": 4},
    adversary="random",
    adversary_kwargs={"delete_probability": 0.6},
    topology="random-regular",
    topology_kwargs={"n": 16, "degree": 4},
    timesteps=5,
    metric_every=3,
    exact_expansion_limit=0,
    stretch_sample_pairs=20,
    seed=3,
)

SWEEP = SweepSpec(base=BASE, axes={"timesteps": [3, 5], "healer_kwargs.kappa": [2, 4]})


@pytest.fixture(scope="module")
def finished_serial_dir(tmp_path_factory):
    """A completed single-writer sweep directory (legacy index.jsonl)."""
    directory = tmp_path_factory.mktemp("shard") / "serial"
    result = run_scenarios(SWEEP.expand(), stream_to=directory)
    assert result.failed == 0
    return result.directory


def copy_of(directory, tmp_path, name="copy"):
    target = tmp_path / name
    shutil.copytree(directory, target)
    return target


def shardify(directory, shards=2):
    """Rewrite a legacy directory's index as round-robin worker shards."""
    lines = (directory / INDEX_NAME).read_text().splitlines()
    (directory / INDEX_NAME).unlink()
    for slot in range(shards):
        chunk = lines[slot::shards]
        if chunk:
            (directory / f"index-w{slot}.jsonl").write_text(
                "\n".join(chunk) + "\n"
            )
    return directory


# -- naming -------------------------------------------------------------------


def test_is_index_name_covers_legacy_and_shards_but_not_artifacts():
    assert is_index_name("index.jsonl")
    assert is_index_name("index-w0.jsonl")
    assert is_index_name("index-node-3.local.jsonl")
    assert not is_index_name("000_point.run.jsonl")
    assert not is_index_name("index.jsonl.gz")
    assert not is_index_name("MANIFEST.json")


def test_index_paths_orders_legacy_first_then_shards_sorted(tmp_path):
    for name in ("index-w1.jsonl", "index.jsonl", "index-w0.jsonl", "index-a.jsonl"):
        (tmp_path / name).write_text("")
    assert [path.name for path in index_paths(tmp_path)] == [
        "index.jsonl",
        "index-a.jsonl",
        "index-w0.jsonl",
        "index-w1.jsonl",
    ]
    assert [path.name for path in shard_index_paths(tmp_path)] == [
        "index-a.jsonl",
        "index-w0.jsonl",
        "index-w1.jsonl",
    ]


# -- merge semantics ----------------------------------------------------------


def test_legacy_directory_reads_identically_through_the_merge_path(
    finished_serial_dir,
):
    merged = list(iter_all_index_entries(finished_serial_dir))
    assert [entry["index"] for entry in merged] == list(range(len(SWEEP.expand())))
    completed = SweepStream(finished_serial_dir).completed()
    assert len(completed) == len(merged)
    assert {entry["fingerprint"] for entry in merged} == set(completed)


def test_sharded_directory_completes_like_the_legacy_one(
    finished_serial_dir, tmp_path
):
    sharded = shardify(copy_of(finished_serial_dir, tmp_path))
    assert SweepStream(sharded).completed() == SweepStream(
        finished_serial_dir
    ).completed()


def test_torn_tail_in_one_shard_skips_only_the_torn_line(
    finished_serial_dir, tmp_path
):
    sharded = shardify(copy_of(finished_serial_dir, tmp_path))
    victim = shard_index_paths(sharded)[0]
    whole = victim.read_text().splitlines()
    # Tear the last line mid-JSON, as a crash mid-append would.
    victim.write_text("\n".join(whole[:-1]) + "\n" + whole[-1][: len(whole[-1]) // 2])
    completed = SweepStream(sharded).completed()
    assert len(completed) == len(SWEEP.expand()) - 1
    torn_fingerprint = json.loads(whole[-1])["fingerprint"]
    assert torn_fingerprint not in completed


def test_duplicate_fingerprints_across_shards_resolve_last_write_wins(
    finished_serial_dir, tmp_path
):
    directory = copy_of(finished_serial_dir, tmp_path)
    entries = [json.loads(line) for line in (directory / INDEX_NAME).read_text().splitlines()]
    duplicated = dict(entries[0])
    # Same verified artifact, distinct observational cost per copy: the cost
    # identifies which copy won the merge without breaking verification.
    for shard, cost in (("a", 1.0), ("b", 2.0)):
        duplicated["wall_clock_s"] = cost
        (directory / f"index-{shard}.jsonl").write_text(
            json.dumps(duplicated, sort_keys=True) + "\n"
        )
    completed = SweepStream(directory).completed()
    assert len(completed) == len(entries)
    # Legacy index first, then index-a, then index-b: the shard-b copy wins.
    assert completed[entries[0]["fingerprint"]]["wall_clock_s"] == 2.0


def test_resume_over_a_mixed_legacy_and_sharded_directory(
    finished_serial_dir, tmp_path
):
    """Half the completion log in index.jsonl, half in shards: resume runs 0.

    Every backend resumes such a directory, as older fleet runs left them.
    """
    mixed = copy_of(finished_serial_dir, tmp_path)
    lines = (mixed / INDEX_NAME).read_text().splitlines()
    (mixed / INDEX_NAME).write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    (mixed / "index-w0.jsonl").write_text("\n".join(lines[len(lines) // 2 :]) + "\n")
    for backend in BACKENDS:
        directory = copy_of(mixed, tmp_path, name=backend)
        result = run_scenarios(SWEEP.expand(), workers=2, resume=directory, executor=backend)
        assert result.executed == 0 and result.skipped == len(lines), backend


def test_resume_reruns_a_point_whose_only_index_line_is_torn(
    finished_serial_dir, tmp_path
):
    sharded = shardify(copy_of(finished_serial_dir, tmp_path))
    victim = shard_index_paths(sharded)[-1]
    whole = victim.read_text().splitlines()
    victim.write_text("\n".join(whole[:-1]) + "\n" + whole[-1][:20])
    result = run_scenarios(SWEEP.expand(), resume=sharded)
    assert result.executed == 1 and result.skipped == len(SWEEP.expand()) - 1
    # The re-run healed the directory: everything verifies again.
    assert len(SweepStream(sharded).completed()) == len(SWEEP.expand())


def test_fresh_directory_check_catches_shard_indices_too(
    finished_serial_dir, tmp_path
):
    sharded = shardify(copy_of(finished_serial_dir, tmp_path))
    with pytest.raises(ValidationError, match="already exists"):
        run_scenarios(SWEEP.expand(), stream_to=sharded)


# -- report and watch ---------------------------------------------------------


def test_report_over_sharded_directory_matches_the_legacy_report(
    finished_serial_dir, tmp_path
):
    # The report title embeds the directory basename; keep it equal.
    sharded = shardify(copy_of(finished_serial_dir, tmp_path, name="serial"))
    legacy = generate_report(finished_serial_dir)
    merged = generate_report(sharded)
    assert merged.markdown == legacy.markdown
    assert [p.fingerprint for p in merged.points] == [
        p.fingerprint for p in legacy.points
    ]


def test_watcher_discovers_shards_that_appear_mid_run(finished_serial_dir, tmp_path):
    """A shard file that first appears mid-watch is discovered and tailed."""
    directory = tmp_path / "live"
    directory.mkdir()
    watcher = ReportWatcher(directory)
    assert watcher.refresh() is None

    source = finished_serial_dir
    entries = [
        json.loads(line) for line in (source / INDEX_NAME).read_text().splitlines()
    ]
    half = len(entries) // 2
    for entry in entries:
        shutil.copy(source / entry["artifact"], directory / entry["artifact"])
    # First refresh: only shard w0 exists, holding the first half.
    (directory / "index-w0.jsonl").write_text(
        "\n".join(json.dumps(e, sort_keys=True) for e in entries[:half]) + "\n"
    )
    report = watcher.refresh()
    assert len(report.points) == half
    # Second refresh: shard w1 appears with the rest; w0 also grows a torn
    # tail that must not poison the merge.
    (directory / "index-w1.jsonl").write_text(
        "\n".join(json.dumps(e, sort_keys=True) for e in entries[half:]) + "\n"
    )
    with (directory / "index-w0.jsonl").open("a") as handle:
        handle.write('{"torn":')
    report = watcher.refresh()
    assert len(report.points) == len(entries)
    assert not watcher.complete  # no MANIFEST.json yet
