"""The benchmark's workloads, their timed loops, output checks and metrics.

Every workload is a closed batch run from one process: simulations
(``ScenarioSpec`` -> ``compile`` -> ``run_experiment``) or a streamed sweep
(``SweepSpec`` -> ``run_scenarios(stream_to=...)`` on one executor backend).

Steadiness comes from three choices:

* A simulation workload is ``instances`` scenarios whose seeds derive from
  the run's seed.  Heal cost depends strongly on how clouds happen to merge,
  so one scenario per seed would make the metric vary more between seeds
  than between builds; a fixed set of several scenarios averages that out.
* A run repeats its instances in passes until the time window is spent,
  calls ``gc.collect()`` before every timed call, and interleaves the
  fresh-interpreter set-up probes evenly over the window.  Each instance's
  time is its fastest pass, so passes that fell into one of the host's
  slow phases do not move the result.
* Times are scaled to a reference host speed measured by a fixed kernel
  run before every timed call (:mod:`perfbench.calibration`), because the
  host's slow phases can outlast a whole run.

Outputs are checked outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.core.events import RepairAction
from repro.harness.experiment import run_experiment
from repro.scenarios import ScenarioSpec, SweepSpec, run_scenarios, strip_costs
from repro.scenarios.stream import iter_all_index_entries
from repro.util.rng import derive_seed

from perfbench.calibration import REFERENCE_S, HostSpeed
from perfbench.tracer import LAYERS, Rollup, Tracer

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

#: The seed whose outputs are pinned by ``digests.json``.
DEFAULT_SEED = 0

#: Set-up probes per run: at least ``MIN_PROBES``, at most ``MAX_PROBES``,
#: spread evenly over the time window.  Timed passes per run: at least
#: ``MIN_PASSES`` even when the window is shorter.
MIN_PROBES, MAX_PROBES, MIN_PASSES = 3, 5, 3


@dataclass(frozen=True)
class Workload:
    """One benchmark input: scenarios, or one scenario swept over replicates."""

    name: str
    spec: dict
    instances: int = 1  # scenarios per pass, each with its own derived seed
    points: int = 0  # sweep replicates; 0 = plain simulations
    executor: str | None = None
    why: str = ""

    def spec_dict(self, seed: int, instance: int = 0) -> dict:
        """Return the ``ScenarioSpec`` fields of one instance of this workload."""
        return {
            "healer": "xheal",
            "topology": "random-regular",
            **self.spec,
            "seed": derive_seed(seed, "perfbench", instance),
        }

    def sweep_specs(self, seed: int) -> list:
        """Expand the sweep grid (replicate seeds derive from ``seed``)."""
        base = ScenarioSpec.from_dict(self.spec_dict(seed))
        return SweepSpec(base=base, replicates=self.points).expand()

    @property
    def digest_key(self) -> str:
        """Every sweep backend must produce the same directory: one digest entry."""
        return "sweep-stream" if self.points else self.name


_SWEEP_SPEC = {
    "topology_kwargs": {"n": 24, "degree": 4},
    "adversary": "random",
    "timesteps": 8,
    "snapshot_every": 0,
}


def _sweep_why(backend: str, extra: str = "") -> str:
    return (
        f"per-point overhead of {backend}: spec validation, artifact encoding "
        f"and fsync'd stream writes{extra}; the 8 events per point are a small share"
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "churn-heal",
            {
                "topology_kwargs": {"n": 1024, "degree": 8},
                "adversary": "random",
                "adversary_kwargs": {"delete_probability": 0.5},
                "timesteps": 400,
                "snapshot_every": 0,
            },
            instances=12,
            why="deletion healing is the largest share: core cloud rebuilds and "
            "expander construction; no Theorem-2 snapshots",
        ),
        Workload(
            "join-churn",
            {
                "topology_kwargs": {"n": 4096, "degree": 8},
                "adversary": "random",
                "adversary_kwargs": {"delete_probability": 0.2},
                "timesteps": 600,
                "snapshot_every": 0,
            },
            instances=6,
            why="mostly insertions on a large graph: per-event O(n) adversary, "
            "tracker and harness work; heals are cheap",
        ),
        Workload(
            "theorem2-audit",
            {
                "topology_kwargs": {"n": 512, "degree": 8},
                "adversary": "random",
                "adversary_kwargs": {"delete_probability": 0.6},
                "timesteps": 10,
                "metric_every": 10,
                "check_invariants_every": 10,
                "exact_expansion_limit": 16,
                "stretch_sample_pairs": 100,
            },
            instances=2,
            why="Theorem-2 snapshots dominate: perf cut sweeps, warm-started "
            "sparse lambda-2 solves and stretch; healing is cheap",
        ),
        Workload(
            "sweep-stream.serial",
            _SWEEP_SPEC,
            points=400,
            executor="serial",
            why=_sweep_why("the inline serial backend"),
        ),
        Workload(
            "sweep-stream.process-pool",
            _SWEEP_SPEC,
            points=400,
            executor="process-pool",
            why=_sweep_why("a 1-worker process pool", ", plus pool start-up and result IPC"),
        ),
        Workload(
            "sweep-stream.subprocess-fleet",
            _SWEEP_SPEC,
            points=400,
            executor="subprocess-fleet",
            why=_sweep_why(
                "a 1-worker subprocess fleet", ", plus worker spawn, import and the JSONL pipe"
            ),
        ),
    )
}

#: End-to-end metrics (untraced runs): name -> (unit, better).
END_TO_END = {
    "events_per_s": ("1/s", "higher"),
    "points_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Repair branches counted per deletion from each returned RepairReport.
REPAIR_CASES = tuple(
    action.value
    for action in RepairAction
    if action not in (RepairAction.INSERTION, RepairAction.BASELINE)
)

#: Per-layer metrics (traced runs): name -> (unit, better).  ``.s`` and
#: ``.calls`` are per timed call: one ``run_experiment`` of a simulation
#: workload, one ``run_scenarios`` of a sweep workload.
PER_LAYER = {
    "adversary.next_events.us_per_step": ("us", "lower"),
    "core.handle_deletion.p50_ms": ("ms", "lower"),
    "core.handle_deletion.p99_ms": ("ms", "lower"),
    "core.handle_deletion.s": ("s", "lower"),
    "core.edges_changed_per_deletion": ("count", "lower"),
    "core.messages_per_deletion": ("count", "lower"),
    **{f"core.repair_actions.{case}": ("count", "lower") for case in REPAIR_CASES},
    "core.handle_insertion.s": ("s", "lower"),
    "core.materialize.calls": ("count", "lower"),
    "core.materialize.s": ("s", "lower"),
    "expanders.expander_or_clique.calls": ("count", "lower"),
    "expanders.expander_or_clique.s": ("s", "lower"),
    "ghost.record.s": ("s", "lower"),
    "ghost.alive_subgraph.s": ("s", "lower"),
    "trackers.observe_store.us_per_event": ("us", "lower"),
    "trackers.timeline_record.s": ("s", "lower"),
    "harness.run_experiment.self_s": ("s", "lower"),
    "perf.snapshot.calls": ("count", "lower"),
    "perf.snapshot.p50_ms": ("ms", "lower"),
    "perf.cheeger_constant.s": ("s", "lower"),
    "perf.edge_expansion.s": ("s", "lower"),
    "perf.algebraic_connectivity.s": ("s", "lower"),
    "perf.normalized_lambda2.s": ("s", "lower"),
    "perf.stretch_summary.s": ("s", "lower"),
    "perf.check_theorem2.self_s": ("s", "lower"),
    "perf.cache_hit_ratio": ("ratio", "higher"),
    "scenarios.spec.validate.calls": ("count", "lower"),
    "scenarios.spec.validate.s": ("s", "lower"),
    "scenarios.spec.compile.s": ("s", "lower"),
    "scenarios.spec.fingerprint.s": ("s", "lower"),
    "scenarios.runner.execute_spec.ms_per_point": ("ms", "lower"),
    "scenarios.stream.record.ms_per_point": ("ms", "lower"),
    "scenarios.stream.fsyncs_per_point": ("count", "lower"),
    "scenarios.stream.bytes_per_point": ("bytes", "lower"),
    "scenarios.executors.wait.s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.compile_s": ("s", "lower"),
    "host.kernel_ms": ("ms", "lower"),
    "trace.overhead": ("ratio", "lower"),
    **{f"layer.{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
}


# -- output checks ---------------------------------------------------------------


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def row_digest(row: dict) -> str:
    """Return the digest of a ``summary_row()`` (canonical JSON, SHA-256)."""
    return hashlib.sha256(canonical(row)).hexdigest()


def sweep_digest(directory: Path, points: int) -> dict:
    """Digest a finished sweep directory, re-hashing every artifact on disk.

    Returns the SHA-256 of the cost-stripped manifest and, per submission
    index, the first 16 hex digits of the artifact's SHA-256: ``None`` for a
    point with no artifact (quarantined), and a ``torn:`` prefix for an
    artifact whose bytes differ from the hash its index line recorded.
    """
    manifest = json.loads((directory / "MANIFEST.json").read_text(encoding="utf-8"))
    per_point: list[str | None] = [None] * points
    for entry in manifest["entries"]:
        digest = hashlib.sha256((directory / entry["artifact"]).read_bytes()).hexdigest()
        mark = "" if digest == entry["sha256"] else "torn:"
        per_point[entry["index"]] = mark + digest[:16]
    return {
        "manifest": hashlib.sha256(canonical(strip_costs(manifest))).hexdigest(),
        "points": per_point,
    }


def failed_points(observed: dict, expected: dict) -> int:
    """Count the points of a sweep whose output differs from ``expected``.

    A manifest that differs while every artifact matches counts as one
    failure.
    """
    mismatched = sum(
        1 for got, want in zip(observed["points"], expected["points"]) if got != want
    )
    if not mismatched and observed["manifest"] != expected["manifest"]:
        return 1
    return mismatched


def load_digests() -> dict:
    """Return the checked-in output digests of :data:`DEFAULT_SEED`."""
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


# -- set-up probes ---------------------------------------------------------------


class SetupProbe:
    """Runs ``setup_probe.py`` for one workload in a fresh interpreter."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.command = [
            sys.executable,
            str(HERE / "setup_probe.py"),
            str(root / "src"),
            json.dumps(workload.spec_dict(seed)),
            str(workload.points),
        ]
        self.root = root
        self.samples: list[dict] = []

    def run(self, keep: bool = True) -> None:
        done = subprocess.run(
            self.command, cwd=self.root, capture_output=True, text=True, timeout=150, check=True
        )
        if keep:
            self.samples.append(json.loads(done.stdout.strip().splitlines()[-1]))

    def median(self, key: str) -> float:
        return statistics.median(sample[key] for sample in self.samples)

    def setup_s(self, scaled: bool = True) -> float:
        """Median set-up time; ``scaled`` refers each probe to the reference host speed.

        Each probe is scaled by the kernel reading taken in its own process:
        a fresh interpreter may run on the other vCPU than this process, so
        this process's readings do not describe it.
        """
        return statistics.median(
            (s["import_s"] + s["compile_s"]) * (REFERENCE_S / s["kernel_s"] if scaled else 1.0)
            for s in self.samples
        )


# -- repetitions -------------------------------------------------------------------


class Runner:
    """Executes passes over a workload's instances and checks every output.

    ``attempted``/``failed`` count scenario runs for simulations and points
    for sweeps.  A simulation fails when its ``summary_row()`` differs from
    the pinned digest (default seed) or from its own first run (any other
    seed).  A sweep point fails when its artifact differs from the serial
    reference or the pinned digest, or when it was quarantined.
    """

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        pinned = load_digests()[workload.digest_key] if seed == DEFAULT_SEED else None
        if workload.points:
            self.calls = [workload.sweep_specs(seed)]
            self.expected = [pinned]
        else:
            self.calls = [
                ScenarioSpec.from_dict(workload.spec_dict(seed, i)).compile()
                for i in range(workload.instances)
            ]
            self.expected = list(pinned) if pinned else [None] * workload.instances
        self.events: list[int | None] = [None] * len(self.calls)
        self.samples: list[list[float]] = [[] for _ in self.calls]
        self.traced_samples: list[list[float]] = [[] for _ in self.calls]
        self.traced_calls = 0
        self.traced_wall_s = 0.0
        self.sweep_bytes = 0
        self.host = HostSpeed()
        self._directories = 0

    @property
    def points_per_call(self) -> int:
        return self.workload.points or 1

    def _simulate(self, index: int, tracer: Tracer | None) -> float:
        run = run_experiment
        if tracer is not None:
            run = tracer.wrap("harness.run_experiment", run_experiment)
        self.host.sample()
        gc.collect()
        start = perf_counter()
        result = run(self.calls[index])
        elapsed = perf_counter() - start
        digest = row_digest(result.summary_row())
        if self.expected[index] is None:
            self.expected[index] = digest
        self.events[index] = result.timesteps_executed
        self.attempted += 1
        self.failed += digest != self.expected[index]
        return elapsed

    def _sweep(self, index: int, tracer: Tracer | None, executor: str) -> float:
        self._directories += 1
        directory = self.work / f"sweep-{self._directories}"
        run = run_scenarios
        if tracer is not None:
            run = tracer.wrap("scenarios.runner.run_scenarios", run_scenarios)
        self.host.sample()
        gc.collect()
        start = perf_counter()
        result = run(self.calls[index], stream_to=directory, executor=executor)
        elapsed = perf_counter() - start
        observed = sweep_digest(directory, self.workload.points)
        if self.expected[index] is None:
            self.expected[index] = observed
        entries = list(iter_all_index_entries(directory))
        self.events[index] = sum(entry["timesteps"] for entry in entries)
        if tracer is not None:
            self.sweep_bytes += sum(
                (directory / entry["artifact"]).stat().st_size for entry in entries
            )
        shutil.rmtree(directory)
        self.attempted += self.workload.points
        self.failed += max(failed_points(observed, self.expected[index]), result.failed)
        return elapsed

    def run_pass(self, tracer: Tracer | None = None, executor: str | None = None) -> list[float]:
        """Run every instance once; return their timed seconds."""
        if self.workload.points:
            return [self._sweep(0, tracer, executor or self.workload.executor)]
        return [self._simulate(index, tracer) for index in range(len(self.calls))]

    def reference(self) -> None:
        """Untimed first pass: warms caches and pins each instance's output.

        Sweeps run it on the serial backend, so the pool and fleet backends
        are checked against serial output.
        """
        self.run_pass(executor="serial")

    def timed_pass(self) -> None:
        for index, seconds in enumerate(self.run_pass()):
            self.samples[index].append(seconds)

    def traced_pass(self, tracer: Tracer) -> None:
        try:
            tracer.install()
            with tracer.span("bench.pass"):
                seconds = self.run_pass(tracer)
        finally:
            tracer.uninstall()
        self.traced_wall_s += sum(seconds)
        self.traced_calls += len(seconds)
        for index, value in enumerate(seconds):
            self.traced_samples[index].append(value)

    def rates(self, samples: list[list[float]], scaled: bool = True) -> tuple[float, float]:
        """Return ``(events/s, points/s)`` with each instance timed by its fastest pass.

        Interference from other tenants of the host only ever adds time, so
        the fastest of several passes is the least disturbed reading.
        ``scaled`` refers the time to the reference host speed.
        """
        seconds = sum(min(values) for values in samples)
        if scaled:
            seconds = self.host.scale(seconds)
        return sum(self.events) / seconds, self.points_per_call * len(samples) / seconds


# -- a whole run -------------------------------------------------------------------


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Run ``workload`` for about ``seconds``; return ``(runner, probe, tracer, stats)``.

    Untimed warm-up first (one set-up probe, one reference pass).  Then timed
    passes until the window is spent, with set-up probes spread evenly over
    the window.  A traced run alternates untraced and traced passes, so
    ``trace.overhead`` compares the two under the same host drift.
    """
    work.mkdir(parents=True, exist_ok=True)
    probe = SetupProbe(root, workload, seed)
    probe.run(keep=False)
    runner = Runner(workload, seed, work)
    runner.reference()
    tracer = Tracer(run_id=f"{workload.name}-seed{seed}") if trace else None
    stats = LayerStats(tracer) if trace else None
    start = perf_counter()
    passes = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and passes >= MIN_PASSES:
            break
        if len(probe.samples) < MAX_PROBES and elapsed >= seconds * len(probe.samples) / MAX_PROBES:
            probe.run()
        runner.timed_pass()
        if tracer is not None:
            runner.traced_pass(tracer)
        passes += 1
    while len(probe.samples) < MIN_PROBES:
        probe.run()
    return runner, probe, tracer, stats


def peak_rss_mb() -> float:
    """Return this process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(runner: Runner, probe: SetupProbe, scaled: bool = True) -> dict:
    """Return the :data:`END_TO_END` metrics; times refer to the reference host speed."""
    events_per_s, points_per_s = runner.rates(runner.samples, scaled)
    return {
        "events_per_s": events_per_s,
        "points_per_s": points_per_s,
        "setup_s": probe.setup_s(scaled),
        "peak_rss_mb": peak_rss_mb(),
    }


class LayerStats:
    """Exact counts taken from values the wrapped layers return."""

    def __init__(self, tracer: Tracer):
        self.deletions = 0
        self.edge_changes = 0
        self.messages = 0
        self.actions = {case: 0 for case in REPAIR_CASES}
        self.cache_hits = 0
        self.cache_lookups = 0
        tracer.on_result["core.handle_deletion"] = self.on_deletion
        tracer.on_result["harness.run_experiment"] = self.on_experiment

    def on_deletion(self, report) -> None:
        self.deletions += 1
        self.edge_changes += report.total_edge_changes
        # The harness's Theorem-5 ledger charges this same message count.
        self.messages += report.messages if report.messages else report.total_edge_changes
        self.actions[report.action.value] += 1

    def on_experiment(self, result) -> None:
        stats = result.cache_stats
        self.cache_hits += stats.get("hits", 0)
        self.cache_lookups += stats.get("hits", 0) + stats.get("misses", 0)


def per_layer_metrics(runner: Runner, probe: SetupProbe, tracer: Tracer, stats: LayerStats) -> dict:
    """Roll the traced passes' spans up into the :data:`PER_LAYER` metrics."""
    calls = runner.traced_calls
    points = calls * runner.workload.points
    rollup = Rollup(tracer.spans)

    def per_call(name: str) -> float:
        return rollup.total_s(name) / calls

    def mean_us(name: str) -> float:
        count = rollup.calls(name)
        return rollup.total_s(name) / count * 1e6 if count else 0.0

    def per_point_ms(name: str) -> float:
        return rollup.total_s(name) / points * 1e3 if points else 0.0

    deletions = max(1, stats.deletions)
    layer_self = rollup.layer_self_s()
    return {
        "adversary.next_events.us_per_step": mean_us("adversary.next_events"),
        "core.handle_deletion.p50_ms": rollup.percentile_ms("core.handle_deletion", 50),
        "core.handle_deletion.p99_ms": rollup.percentile_ms("core.handle_deletion", 99),
        "core.handle_deletion.s": per_call("core.handle_deletion"),
        "core.edges_changed_per_deletion": stats.edge_changes / deletions,
        "core.messages_per_deletion": stats.messages / deletions,
        **{
            f"core.repair_actions.{case}": count / calls
            for case, count in stats.actions.items()
        },
        "core.handle_insertion.s": per_call("core.handle_insertion"),
        "core.materialize.calls": rollup.calls("core.materialize") / calls,
        "core.materialize.s": per_call("core.materialize"),
        "expanders.expander_or_clique.calls": rollup.calls("expanders.expander_or_clique") / calls,
        "expanders.expander_or_clique.s": per_call("expanders.expander_or_clique"),
        "ghost.record.s": per_call("ghost.record"),
        "ghost.alive_subgraph.s": per_call("ghost.alive_subgraph"),
        "trackers.observe_store.us_per_event": mean_us("trackers.observe_store"),
        "trackers.timeline_record.s": per_call("trackers.timeline_record"),
        "harness.run_experiment.self_s": rollup.self_s.get("harness.run_experiment", 0.0) / calls,
        "perf.snapshot.calls": rollup.calls("perf.snapshot") / calls,
        "perf.snapshot.p50_ms": rollup.percentile_ms("perf.snapshot", 50),
        "perf.cheeger_constant.s": per_call("perf.cheeger_constant"),
        "perf.edge_expansion.s": per_call("perf.edge_expansion"),
        "perf.algebraic_connectivity.s": per_call("perf.algebraic_connectivity"),
        "perf.normalized_lambda2.s": per_call("perf.normalized_lambda2"),
        "perf.stretch_summary.s": per_call("perf.stretch_summary"),
        "perf.check_theorem2.self_s": rollup.self_s.get("perf.check_theorem2", 0.0) / calls,
        "perf.cache_hit_ratio": (
            stats.cache_hits / stats.cache_lookups if stats.cache_lookups else 0.0
        ),
        "scenarios.spec.validate.calls": rollup.calls("scenarios.spec.validate") / calls,
        "scenarios.spec.validate.s": per_call("scenarios.spec.validate"),
        "scenarios.spec.compile.s": per_call("scenarios.spec.compile"),
        "scenarios.spec.fingerprint.s": per_call("scenarios.spec.fingerprint"),
        "scenarios.runner.execute_spec.ms_per_point": per_point_ms("scenarios.runner.execute_spec"),
        "scenarios.stream.record.ms_per_point": per_point_ms("scenarios.stream.record"),
        "scenarios.stream.fsyncs_per_point": (
            tracer.counters["fsyncs"] / points if points else 0.0
        ),
        "scenarios.stream.bytes_per_point": runner.sweep_bytes / points if points else 0.0,
        "scenarios.executors.wait.s": (
            rollup.self_s.get("scenarios.executors.execute", 0.0) / calls
        ),
        "setup.import_s": probe.median("import_s"),
        "setup.compile_s": probe.median("compile_s"),
        "host.kernel_ms": runner.host.kernel_s * 1e3,
        "trace.overhead": runner.rates(runner.samples)[1] / runner.rates(runner.traced_samples)[1],
        **{
            f"layer.{layer}.self_share": seconds / runner.traced_wall_s
            for layer, seconds in layer_self.items()
        },
    }
