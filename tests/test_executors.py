"""Executor backends: registry, dispatch, and the three-way differential.

The contract under test (ISSUE 7 tentpole): execution placement is
operational, never part of a sweep's identity.  ``serial``, ``process-pool``
and ``subprocess-fleet`` runs of one spec list produce byte-identical
artifacts and (cost-stripped) manifests — buffered and streamed, fault-free
and under a seeded ``REPRO_CHAOS`` schedule, straight through and across a
kill-and-resume.  The fleet additionally proves exact per-point fault
attribution (a worker's start line names the point it runs) and worker
respawn without losing in-flight points.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.scenarios import (
    ChaosSpec,
    PointPolicy,
    ScenarioSpec,
    SweepSpec,
    list_executors,
    run_scenarios,
)
from repro.scenarios.chaos import ENV_VAR, PointFault, chaos_decision
from repro.scenarios.executors import (
    ExecutionContext,
    ProcessPoolBackend,
    SerialExecutor,
    resolve_executor,
)
from repro.scenarios.fleet import (
    DEAD,
    LEASED,
    LEASES_PER_SLOT,
    READY,
    RemoteWorkerError,
    SubprocessFleetExecutor,
    _fill,
    _Worker,
)
from repro.scenarios.policy import PointScheduler
from repro.scenarios.registry import EXECUTORS, UnknownNameError
from repro.scenarios.runner import LEASES_PER_WORKER, RunRecord
from repro.scenarios.stream import (
    FAILURES_NAME,
    MANIFEST_NAME,
    is_index_name,
    strip_costs,
)
from repro.util.validation import ValidationError

BACKENDS = ("serial", "process-pool", "subprocess-fleet")

BASE = ScenarioSpec(
    name="executor-test",
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

#: Points a one-worker transport holds in flight.
DEPTH = {"process-pool": LEASES_PER_WORKER, "subprocess-fleet": LEASES_PER_SLOT}

#: The schedule test_chaos.py pins (seed 43 faults every SWEEP point's first
#: attempt across crash/raise/torn-write, with a clean attempt within 3
#: retries) — reused here so the fleet faces worker deaths, injected raises
#: AND torn writes in one differential.
CHAOS = ChaosSpec(crash_prob=0.3, raise_prob=0.25, torn_write_prob=0.25, seed=43)


def canonical_files(directory: Path):
    """Byte-identity surface of a sweep directory, shard-index aware.

    Excludes every completion log — the legacy ``index.jsonl`` *and* any
    ``index-<worker>.jsonl`` shard — plus the quarantine ledger: all
    append-only operational history.  The manifest participates through
    :func:`strip_costs`.
    """
    directory = Path(directory)
    files = {
        path.name: path.read_bytes()
        for path in directory.iterdir()
        if not is_index_name(path.name)
        and path.name not in (MANIFEST_NAME, FAILURES_NAME)
        and not path.name.startswith(".")
    }
    manifest = directory / MANIFEST_NAME
    if manifest.is_file():
        files[MANIFEST_NAME] = strip_costs(json.loads(manifest.read_text()))
    return files


# -- registry -----------------------------------------------------------------


def test_executor_registry_lists_the_three_shipped_backends():
    names = list_executors()
    for name in BACKENDS:
        assert name in names


def test_executor_aliases_resolve_to_the_registered_backends():
    assert EXECUTORS.get("fleet") is SubprocessFleetExecutor
    assert EXECUTORS.get("pool") is ProcessPoolBackend
    assert EXECUTORS.get("inline") is SerialExecutor


def test_unknown_executor_gets_a_did_you_mean_suggestion():
    with pytest.raises(UnknownNameError, match="did you mean 'process-pool'"):
        EXECUTORS.get("proces-pool")


def test_resolve_executor_keeps_the_historical_automatic_choice():
    assert isinstance(resolve_executor(None, 1, 10), SerialExecutor)
    assert isinstance(resolve_executor(None, 4, 1), SerialExecutor)
    assert isinstance(resolve_executor(None, 4, 10), ProcessPoolBackend)
    assert isinstance(resolve_executor("fleet", 1, 10), SubprocessFleetExecutor)


# -- sweep-file integration ---------------------------------------------------


def test_sweep_spec_executor_field_roundtrips_and_stays_fingerprint_neutral():
    with_executor = SweepSpec(
        base=BASE, axes={"timesteps": [3, 5]}, executor="subprocess-fleet"
    )
    bare = SweepSpec(base=BASE, axes={"timesteps": [3, 5]})
    assert SweepSpec.from_json(with_executor.to_json()).executor == "subprocess-fleet"
    # Operational, not identity: the expanded points are the same specs.
    assert [s.fingerprint() for s in with_executor.expand()] == [
        s.fingerprint() for s in bare.expand()
    ]
    # Pre-executor documents keep their bytes (and hence sweep fingerprints).
    assert "executor" not in bare.to_dict()
    assert SweepSpec.from_json(bare.to_json()) == bare


def test_sweep_spec_rejects_an_unknown_executor_at_validation_time():
    with pytest.raises(UnknownNameError, match="unknown executor"):
        SweepSpec(base=BASE, axes={"timesteps": [3]}, executor="nope").validate()


# -- the three-way differential -----------------------------------------------


def test_buffered_differential_across_all_backends():
    specs = SWEEP.expand()
    results = {
        name: [r.to_dict() for r in run_scenarios(specs, workers=2, executor=name)]
        for name in BACKENDS
    }
    assert results["serial"] == results["process-pool"] == results["subprocess-fleet"]


def test_streamed_differential_across_all_backends(tmp_path):
    specs = SWEEP.expand()
    surfaces = {}
    for name in BACKENDS:
        result = run_scenarios(specs, workers=2, stream_to=tmp_path / name, executor=name)
        assert result.failed == 0 and result.executed == len(specs)
        surfaces[name] = canonical_files(result.directory)
    assert surfaces["serial"] == surfaces["process-pool"] == surfaces["subprocess-fleet"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_streamed_run_writes_one_index_listing_every_point_once(tmp_path, backend):
    """The coordinator is the only writer: one index.jsonl, no worker shards."""
    specs = SWEEP.expand()
    result = run_scenarios(specs, workers=2, stream_to=tmp_path / "out", executor=backend)
    directory = result.directory
    assert [path.name for path in directory.iterdir() if is_index_name(path.name)] == [
        "index.jsonl"
    ]
    entries = [
        json.loads(line) for line in (directory / "index.jsonl").read_text().splitlines()
    ]
    assert sorted(entry["index"] for entry in entries) == list(range(len(specs)))


def test_fleet_chaos_differential_with_worker_kills(tmp_path, monkeypatch):
    """Crash faults kill fleet workers mid-sweep; respawn + retries converge.

    Attribution is exact at any fleet size (start lines name each worker's
    running point), so unlike the pool the fleet follows the schedule to the
    letter even with workers=2 — the comparison baseline is the fault-free
    serial run.
    """
    specs = SWEEP.expand()
    clean = run_scenarios(specs, stream_to=tmp_path / "clean")
    monkeypatch.setenv(ENV_VAR, CHAOS.to_json())
    chaotic = run_scenarios(
        specs,
        workers=2,
        stream_to=tmp_path / "chaos",
        executor="subprocess-fleet",
        policy=PointPolicy(max_retries=3),
    )
    assert chaotic.failed == 0 and chaotic.executed == len(specs)
    assert canonical_files(clean.directory) == canonical_files(chaotic.directory)


def test_a_one_worker_fleet_with_queued_leases_converges_through_crash_chaos(
    tmp_path, monkeypatch
):
    """One worker holds several points at once, so each crash finds points
    queued behind the one it kills; they are requeued uncharged and nothing
    is quarantined."""
    specs = SWEEP.expand()
    clean = run_scenarios(specs, stream_to=tmp_path / "clean")
    monkeypatch.setenv(ENV_VAR, CHAOS.to_json())
    chaotic = run_scenarios(
        specs,
        workers=1,
        stream_to=tmp_path / "chaos",
        executor="subprocess-fleet",
        policy=PointPolicy(max_retries=3),
    )
    assert chaotic.failed == 0 and chaotic.executed == len(specs)
    assert canonical_files(clean.directory) == canonical_files(chaotic.directory)


@pytest.mark.parametrize("backend", ["process-pool", "subprocess-fleet"])
def test_a_crash_charges_the_started_point_and_never_a_queued_one(monkeypatch, backend):
    """One worker, several points leased to it, seeded crashes and raises.

    Each point is delivered on exactly the first attempt its schedule leaves
    clean: a crash that charged a point still queued behind the crashing one
    would deliver that point on a later attempt.
    """
    specs = SWEEP.expand()
    assert min(DEPTH[backend], len(specs)) > 1
    monkeypatch.setenv(ENV_VAR, CHAOS.to_json())
    expected = {
        index: next(
            attempt
            for attempt in range(4)
            if chaos_decision(CHAOS, spec.fingerprint(), attempt) in (None, "torn-write")
        )
        for index, spec in enumerate(specs)
    }
    assert any(
        chaos_decision(CHAOS, spec.fingerprint(), 0) == "crash" for spec in specs
    )
    delivered = {}
    EXECUTORS.get(backend)().execute(
        ExecutionContext(
            spec_list=specs,
            indices=range(len(specs)),
            workers=1,
            policy=PointPolicy(max_retries=3),
            on_complete=lambda index, payload, attempt: delivered.setdefault(index, attempt),
        )
    )
    assert delivered == expected


@pytest.mark.parametrize("backend", ["process-pool", "subprocess-fleet"])
def test_a_timed_one_worker_transport_holds_more_than_one_lease(monkeypatch, backend):
    """A timeout no longer limits a worker to the one point it runs."""
    in_flight = []
    lease = PointScheduler.lease

    def counted(self):
        leased = lease(self)
        in_flight.append(len(self.leased()))
        return leased

    monkeypatch.setattr(PointScheduler, "lease", counted)
    specs = SWEEP.expand()
    records = run_scenarios(
        specs, workers=1, executor=backend, policy=PointPolicy(timeout_s=60.0)
    )
    assert [record.spec for record in records] == specs
    assert max(in_flight) == min(DEPTH[backend], len(specs)) > 1


def test_fleet_kill_and_resume_converges_to_serial_bytes(tmp_path, monkeypatch):
    specs = SWEEP.expand()
    clean = run_scenarios(specs, stream_to=tmp_path / "clean")
    monkeypatch.setenv(ENV_VAR, CHAOS.to_json())
    # "Crash" the coordinator after two points, then resume the full grid
    # under the same schedule — still on the fleet.
    run_scenarios(
        specs[:2],
        workers=2,
        stream_to=tmp_path / "crash",
        executor="subprocess-fleet",
        policy=PointPolicy(max_retries=3),
    )
    resumed = run_scenarios(
        specs,
        workers=2,
        resume=tmp_path / "crash",
        executor="subprocess-fleet",
        policy=PointPolicy(max_retries=3),
    )
    assert resumed.failed == 0
    assert resumed.executed == len(specs) - 2 and resumed.skipped == 2
    assert canonical_files(clean.directory) == canonical_files(resumed.directory)


def test_any_backend_resumes_a_sweep_started_under_any_other(tmp_path):
    specs = SWEEP.expand()
    clean = run_scenarios(specs, stream_to=tmp_path / "clean")
    # Serial start, fleet finish: both append to the one index.jsonl.
    run_scenarios(specs[:2], stream_to=tmp_path / "mixed", executor="serial")
    resumed = run_scenarios(
        specs, workers=2, resume=tmp_path / "mixed", executor="subprocess-fleet"
    )
    assert resumed.executed == len(specs) - 2 and resumed.skipped == 2
    assert (tmp_path / "mixed" / "index.jsonl").exists()
    assert canonical_files(clean.directory) == canonical_files(resumed.directory)


# -- fleet failure semantics --------------------------------------------------


def test_fleet_quarantine_matches_the_pool_ledger_byte_for_byte(tmp_path, monkeypatch):
    """A deterministic raise exhausts retries identically on pool and fleet.

    The worker-side exception's repr crosses the fleet's pipe verbatim
    (RemoteWorkerError), so the manifest ``failed`` sections — which feed
    identity comparisons — agree with the pool's pickled-exception path.
    """
    specs = SWEEP.expand()
    monkeypatch.setenv(ENV_VAR, ChaosSpec(raise_prob=1.0, seed=5).to_json())
    sections = {}
    for name in ("process-pool", "subprocess-fleet"):
        run_scenarios(
            specs,
            workers=2,
            stream_to=tmp_path / name,
            executor=name,
            policy=PointPolicy(max_retries=1),
        )
        manifest = json.loads((tmp_path / name / MANIFEST_NAME).read_text())
        assert len(manifest["failed"]) == len(specs)
        sections[name] = manifest["failed"]
    assert sections["process-pool"] == sections["subprocess-fleet"]
    assert all("ChaosError" in entry["error"] for entry in sections["subprocess-fleet"])


def test_fleet_worker_death_charges_exactly_the_leased_point(tmp_path, monkeypatch):
    """crash_prob=1.0 kills a worker on every attempt of every point.

    Each death must charge exactly the dead worker's own leased point — the
    quarantine ledger then shows precisely max_retries+1 attempts per point,
    which only exact attribution produces.
    """
    specs = SWEEP.expand()[:2]
    monkeypatch.setenv(ENV_VAR, ChaosSpec(crash_prob=1.0, seed=1).to_json())
    result = run_scenarios(
        specs,
        workers=2,
        stream_to=tmp_path / "out",
        executor="subprocess-fleet",
        policy=PointPolicy(max_retries=2),
    )
    assert result.failed == len(specs) and result.executed == 0
    ledger = [
        json.loads(line)
        for line in (tmp_path / "out" / FAILURES_NAME).read_text().splitlines()
    ]
    assert sorted(entry["index"] for entry in ledger) == [0, 1]
    assert all(entry["attempts"] == 3 for entry in ledger)
    assert all("worker died running point" in entry["error"] for entry in ledger)


def test_fleet_timeout_uses_the_same_error_message_as_the_pool(tmp_path, monkeypatch):
    specs = [BASE.with_overrides(name="hung-point", timesteps=3)]
    chaos = ChaosSpec(hang_prob=1.0, hang_s=30.0, seed=2)
    monkeypatch.setenv(ENV_VAR, chaos.to_json())
    result = run_scenarios(
        specs,
        stream_to=tmp_path / "out",
        executor="subprocess-fleet",
        policy=PointPolicy(timeout_s=1.0),
    )
    assert result.failed == 1
    entry = json.loads((tmp_path / "out" / FAILURES_NAME).read_text().splitlines()[0])
    assert entry["error"] == repr(
        TimeoutError("point 0 exceeded timeout_s=1.0 on attempt 0")
    )


@pytest.mark.parametrize("backend", ["process-pool", "subprocess-fleet"])
def test_a_points_timeout_clock_starts_when_a_worker_starts_it(tmp_path, monkeypatch, backend):
    """Four points that each hang 0.6 s, one worker, a 1.5 s timeout.

    Run one after another, every point finishes well within its own budget;
    a clock started when the point was queued would expire the third and
    fourth points while they wait behind the first two.
    """
    specs = SWEEP.expand()
    monkeypatch.setenv(ENV_VAR, ChaosSpec(hang_prob=1.0, hang_s=0.6, seed=0).to_json())
    result = run_scenarios(
        specs,
        workers=1,
        stream_to=tmp_path / backend,
        executor=backend,
        policy=PointPolicy(timeout_s=1.5),
    )
    assert result.failed == 0 and result.executed == len(specs)


def test_remote_worker_error_repr_is_the_wire_payload_verbatim():
    error = RemoteWorkerError("ChaosError('injected failure for abcdef123456 attempt 0')")
    assert repr(error) == "ChaosError('injected failure for abcdef123456 attempt 0')"


def _slots(*states) -> dict:
    """A fleet of worker slots in ``states``, with no processes behind them."""
    fleet = {slot: _Worker(slot) for slot in range(len(states))}
    for worker, state in zip(fleet.values(), states):
        worker.state = state
    return fleet


def _filler(fleet: dict, points: int):
    """Return a ``fill()`` that leases from a ``points``-point scheduler and
    returns the indices each slot holds."""
    scheduler = PointScheduler([BASE] * points, range(points), None, lambda *_: None)

    def fill() -> list:
        _fill(fleet, scheduler, lambda worker, lease: worker.leases.append(lease))
        return [[lease.index for lease in worker.leases] for worker in fleet.values()]

    return fill


def test_the_fleet_leases_level_by_level_and_counts_a_spawning_slot_as_empty():
    """No worker gets another point while a live slot holds fewer, so the
    first worker to report ready does not take the points of the workers
    still spawning."""
    fleet = _slots(READY, LEASED, LEASED, DEAD)
    fill = _filler(fleet, 100)
    assert fill() == [[0], [], [], []]
    fleet[1].state = READY
    assert fill() == [[0], [1], [], []]
    fleet[2].state = READY
    held = fill()
    assert held[3] == []
    levels = range(LEASES_PER_SLOT)
    assert [sorted(indices[depth] for indices in held[:3]) for depth in levels] == [
        [3 * depth, 3 * depth + 1, 3 * depth + 2] for depth in levels
    ]
    fleet[1].leases.clear()
    first_new = 3 * LEASES_PER_SLOT
    assert fill()[1] == list(range(first_new, first_new + LEASES_PER_SLOT))


def test_the_fleet_queues_no_point_behind_a_running_one_once_few_remain():
    """A short sweep's points are never queued behind a running one: each
    goes to whichever worker frees up first."""
    fleet = _slots(READY, READY, READY)
    fill = _filler(fleet, 5)
    assert fill() == [[0], [1], [2]]
    fleet[1].leases.clear()
    assert fill() == [[0], [3], [2]]
    fleet[2].leases.clear()
    assert fill() == [[0], [3], [4]]


def test_fleet_raises_after_repeated_spawn_failures(monkeypatch):
    """Workers that die before their ready line must fail the run loudly."""
    monkeypatch.setattr(
        "repro.scenarios.fleet._worker_env",
        lambda: {"PATH": "/nonexistent", "PYTHONPATH": "/nonexistent"},
    )
    with pytest.raises(ValidationError, match="before becoming ready"):
        run_scenarios([BASE], workers=1, executor="subprocess-fleet")


#: Fleet sweeps in which workers are shut down (fault-free, streamed then
#: buffered), die (seed 0 crashes three of the six points once) and are
#: killed (a hung point overruns its timeout).
_FLEET_LIFECYCLE = """
import os, sys
from pathlib import Path
from repro.scenarios import ChaosSpec, PointPolicy, SweepSpec, run_scenarios
from repro.scenarios.chaos import ENV_VAR

four, six = (SweepSpec.from_json(text).expand() for text in sys.argv[1:3])
out = Path(sys.argv[3])
fleet = {"workers": 2, "executor": "subprocess-fleet"}
assert run_scenarios(four, stream_to=out / "streamed", **fleet).executed == 4
assert len(run_scenarios(four, **fleet)) == 4
os.environ[ENV_VAR] = ChaosSpec(crash_prob=0.4, seed=0).to_json()
crashed = run_scenarios(six, stream_to=out / "crashed", policy=PointPolicy(max_retries=3), **fleet)
assert crashed.executed == 6 and crashed.failed == 0
os.environ[ENV_VAR] = ChaosSpec(hang_prob=1.0, hang_s=30.0, seed=0).to_json()
hung = run_scenarios(four[:1], stream_to=out / "hung", policy=PointPolicy(timeout_s=1.0), **fleet)
assert hung.failed == 1
"""


def test_fleet_workers_leave_no_open_pipe_or_unreaped_process(tmp_path):
    """No worker outlives its use with an open pipe or an unreaped process.

    ``-X dev`` makes the interpreter warn about every pipe a worker leaves
    open and every worker process left unreaped when its handle is dropped.
    """
    six = SweepSpec(base=BASE, axes={"timesteps": [3, 5, 7]}, replicates=2)
    env = {key: value for key, value in os.environ.items() if key != ENV_VAR}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [
            sys.executable, "-X", "dev", "-W", "always::ResourceWarning",
            "-c", _FLEET_LIFECYCLE, SWEEP.to_json(), six.to_json(), str(tmp_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    assert "ResourceWarning" not in completed.stderr


# -- execution context plumbing -----------------------------------------------


def test_serial_backend_delegates_to_the_pool_when_a_policy_is_active():
    calls = []

    def on_complete(index, record, attempt):
        calls.append(index)

    SerialExecutor().execute(
        ExecutionContext(
            spec_list=[BASE.with_overrides(timesteps=3)],
            indices=[0],
            workers=1,
            policy=PointPolicy(timeout_s=60.0),
            on_complete=on_complete,
        )
    )
    assert calls == [0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_delivers_record_and_wall_clock_pairs(backend):
    specs = SWEEP.expand()[:2]
    payloads = {}

    def on_complete(index, payload, attempt):
        payloads[index] = payload

    EXECUTORS.get(backend)().execute(
        ExecutionContext(
            spec_list=specs,
            indices=range(len(specs)),
            workers=2,
            policy=PointPolicy(),
            on_complete=on_complete,
        )
    )
    assert sorted(payloads) == [0, 1]
    for index, payload in payloads.items():
        assert isinstance(payload, tuple) and len(payload) == 2
        record, wall_clock_s = payload
        assert isinstance(record, RunRecord) and record.spec == specs[index]
        assert isinstance(wall_clock_s, float) and wall_clock_s > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_charges_a_point_fault_raised_on_delivery(backend):
    """A PointFault from on_complete is a charged attempt, never an escape."""
    specs = SWEEP.expand()[:2]
    delivered = {}

    def on_complete(index, payload, attempt):
        if attempt == 0:
            raise PointFault(f"rejected point {index} attempt {attempt}")
        delivered[index] = attempt

    EXECUTORS.get(backend)().execute(
        ExecutionContext(
            spec_list=specs,
            indices=range(len(specs)),
            workers=2,
            policy=PointPolicy(max_retries=1),
            on_complete=on_complete,
        )
    )
    assert delivered == {0: 1, 1: 1}
