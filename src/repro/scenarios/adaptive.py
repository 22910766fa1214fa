"""Deterministic adaptive sweeps: CI-driven replicate stopping and
successive-halving grid search.

Two round-structured schedules over the existing streamed-sweep machinery:

* **Replicate stopping** (:class:`StoppingRule`): every grid point starts at
  ``min_replicates`` independently-seeded ``[rep=k]`` replicates; after each
  round the point's bootstrap 95% CI of one summary metric is computed with
  *exactly* the seeded resampler ``repro report --ci`` uses
  (:func:`repro.analysis.report.bootstrap_ci`), and the point stops growing
  once the CI half-width meets ``target_half_width`` (or ``max_replicates``
  is hit).  Compute goes where the variance is.

* **Successive halving** (:class:`HalvingSchedule`): all values of one
  declared axis run at a small budget (few replicates, optionally short
  ``timesteps``); the top ``keep`` fraction by a declared objective column
  survives to the next round at ``growth``× the budget, and so on until one
  arm (or ``rounds`` rounds) remains — Hyperband-style elimination over a
  healer sweep.

Both blocks, and the :class:`AdaptiveSpec` holding one of them, are
:class:`~repro.util.validation.Document` classes: a sweep file's
``adaptive`` block is type-checked field by field with the dotted field
named (``adaptive.halving.replicates must be an integer, got '2'``), and
each ``validate()`` checks only ranges and how the block fits the sweep.

Determinism contract
--------------------
Every decision is a pure function of **recorded summary rows + derived
seeds** — never of wall-clock, executor backend, worker count, or fault
timing.  Round ``r``'s point set is derived from the sweep document and the
survivors of rounds ``0..r-1``; the survivors are derived from the summary
rows of artifacts on disk; and the artifacts are pure functions of their
specs.  Each round appends its decision to an fsync'd ``rounds.jsonl``
ledger; a killed-and-resumed adaptive run re-derives each recorded round,
verifies it matches the ledger byte for byte, and continues where the crash
left off — producing byte-identical artifacts, an identical ledger and an
identical final report to the uninterrupted run (see
``tests/test_adaptive_differential.py``).

Scheduling reuses :func:`repro.scenarios.runner.run_scenarios` with resume
semantics: each round submits the *cumulative* spec list (every point decided
so far), so already-recorded points verify-and-skip, only the round's new
points execute (over any executor backend, with the full retry/quarantine
policy machinery), and the final ``MANIFEST.json`` covers every recorded
point — ``repro report`` then aggregates the whole adaptive history, with an
"Adaptive schedule" section replayed from the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep import SweepSpec, point_label, replicate_spec
from repro.util.validation import Document, require


@dataclass(frozen=True)
class StoppingRule(Document):
    """Stop adding replicates to a point once its bootstrap CI is tight.

    Attributes
    ----------
    metric:
        The numeric summary column whose CI drives the decision
        (e.g. ``"amortized_msgs"``).
    target_half_width:
        Stop a point once ``(ci_high - ci_low) / 2 <= target_half_width``.
        The CI is the same seeded bootstrap ``repro report --ci`` renders,
        so a stopped point's reported ``ci95`` meets the target by
        construction.
    min_replicates:
        Replicates every point starts with (at least 2 — a CI over one
        value has no spread to measure).
    max_replicates:
        Hard budget per point; a point still wide at this count is marked
        ``exhausted`` rather than growing forever.
    batch:
        Replicates added per round to each still-wide point.
    """

    metric: str
    target_half_width: float
    min_replicates: int = 3
    max_replicates: int = 12
    batch: int = 1

    def validate(self) -> "StoppingRule":
        require(bool(self.metric), "a stopping rule needs a summary metric name")
        require(
            math.isfinite(self.target_half_width) and self.target_half_width > 0,
            "target_half_width must be a positive finite number",
        )
        require(self.min_replicates >= 2, "min_replicates must be at least 2")
        require(
            self.max_replicates >= self.min_replicates,
            "max_replicates must be >= min_replicates",
        )
        require(self.batch >= 1, "batch must be at least 1")
        return self


@dataclass(frozen=True)
class HalvingSchedule(Document):
    """Successive halving over one axis by one objective column.

    Attributes
    ----------
    axis:
        The sweep axis whose values compete (e.g. ``"healer_kwargs.kappa"``).
        Must be one of the sweep's declared axes with at least two values.
    objective:
        The numeric summary column arms are ranked by; an arm's score is the
        mean of the objective over every one of its points in the round.
    minimize:
        Whether lower scores win (default) or higher.
    keep:
        Fraction of arms surviving each elimination (``0 < keep < 1``);
        at least one arm always survives and at least one is always dropped,
        so the schedule terminates.
    replicates:
        Replicates per grid point in round 0; round ``r`` runs
        ``replicates * growth**r``.
    timesteps:
        Optional round-0 ``timesteps`` budget, grown ``growth``× per round
        (short cheap runs first, long runs only for survivors).  When unset
        every round runs the base spec's own ``timesteps``.  Incompatible
        with a ``timesteps`` axis.
    growth:
        Per-round budget multiplier (``>= 1``).
    rounds:
        Optional cap on the number of rounds; by default halving continues
        until a single arm remains.  The final round never eliminates.
    """

    _omit_none = ("timesteps", "rounds")

    axis: str
    objective: str
    minimize: bool = True
    keep: float = 0.5
    replicates: int = 1
    timesteps: int | None = None
    growth: int = 2
    rounds: int | None = None

    def validate(self) -> "HalvingSchedule":
        require(bool(self.axis), "a halving schedule needs an axis name")
        require(bool(self.objective), "a halving schedule needs an objective summary column")
        require(0.0 < self.keep < 1.0, "keep must be a fraction strictly between 0 and 1")
        for name in ("replicates", "timesteps", "growth", "rounds"):
            value = getattr(self, name)
            require(value is None or value >= 1, f"{name} must be at least 1")
        return self


@dataclass(frozen=True)
class AdaptiveSpec(Document):
    """The ``adaptive`` block of a :class:`~repro.scenarios.sweep.SweepSpec`.

    Declares exactly one schedule: ``stopping`` (replicate-aware adaptive
    sampling) or ``halving`` (successive halving over one axis); the unset
    one is omitted from :meth:`to_dict`.
    """

    _omit_none = ("stopping", "halving")

    stopping: StoppingRule | None = None
    halving: HalvingSchedule | None = None

    @property
    def mode(self) -> str:
        """Return ``"stopping"`` or ``"halving"``."""
        return "stopping" if self.stopping is not None else "halving"

    def validate(self, sweep: SweepSpec | None = None) -> "AdaptiveSpec":
        """Check the block, and (when given) its fit with the sweep's axes."""
        require(
            (self.stopping is None) != (self.halving is None),
            "an adaptive block declares exactly one of 'stopping' or 'halving'",
        )
        if self.stopping is not None:
            self.stopping.validate()
        if self.halving is not None:
            self.halving.validate()
            if sweep is not None:
                require(
                    self.halving.axis in sweep.axes,
                    f"halving axis {self.halving.axis!r} is not one of the "
                    f"sweep's axes {sorted(sweep.axes)}",
                )
                require(
                    len(sweep.axes[self.halving.axis]) > 1,
                    f"halving axis {self.halving.axis!r} needs at least two "
                    f"values to eliminate between",
                )
                require(
                    self.halving.timesteps is None or "timesteps" not in sweep.axes,
                    "a halving timesteps budget cannot be combined with a "
                    "'timesteps' axis (the budget becomes the timesteps value)",
                )
        return self


# -- pure decision functions ---------------------------------------------------


def select_survivors(arms: list, scores: list, keep: float, minimize: bool = True) -> list:
    """Return the arms surviving one elimination, in their declared order.

    Pure and total: keeps ``ceil(len(arms) * keep)`` arms, clamped so at
    least one survives and at least one is dropped (the schedule always
    makes progress).  Ranking ties break by declared arm order, and the
    survivors come back in declared order — the decision is a pure function
    of ``(arms, scores)``, independent of sort stability or float formatting.
    """
    require(bool(arms) and len(arms) == len(scores), "need one score per arm")
    count = max(1, min(math.ceil(len(arms) * keep), len(arms) - 1))
    ranked = sorted(
        range(len(arms)),
        key=lambda i: (scores[i] if minimize else -scores[i], i),
    )
    chosen = set(ranked[:count])
    return [arm for i, arm in enumerate(arms) if i in chosen]


def _metric_value(summary: dict, label: str, metric: str) -> float:
    """Extract one finite numeric metric from a recorded summary row."""
    value = summary.get(metric)
    numeric = [
        key
        for key, column in summary.items()
        if isinstance(column, (int, float)) and not isinstance(column, bool)
    ]
    require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"point {label!r} has no numeric summary column {metric!r}; "
        f"numeric columns: {sorted(numeric)}",
    )
    require(
        math.isfinite(value),
        f"point {label!r} recorded a non-finite {metric!r} ({value!r}); "
        f"adaptive decisions refuse to rank on it",
    )
    return float(value)


# -- the round driver ----------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of :func:`run_adaptive`.

    ``specs`` is the final cumulative spec list (every point the schedule
    decided to run, in decision order — the list ``MANIFEST.json`` covers);
    ``rounds`` mirrors the ``rounds.jsonl`` ledger.  ``executed`` counts
    points freshly run by *this* invocation, ``skipped`` the points resumed
    from the directory.  ``points_saved`` is the schedule's dividend: the
    exhaustive grid at the final budget (``exhaustive_points``) minus the
    points actually materialized.
    """

    directory: Path
    mode: str
    rounds: list = field(default_factory=list)
    specs: list = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    exhaustive_points: int = 0

    @property
    def points_saved(self) -> int:
        """Return how many points the schedule avoided vs the exhaustive grid."""
        return self.exhaustive_points - len(self.specs)


class _RoundRunner:
    """Shared plumbing both schedules drive: execute rounds, read summaries."""

    def __init__(self, sweep, directory, workers, compress, policy, retry_failed, executor):
        self.sweep = sweep
        self.directory = Path(directory)
        self.workers = workers
        self.compress = compress
        self.policy = policy if policy is not None else sweep.policy
        self.retry_failed = retry_failed
        self.executor = executor if executor is not None else sweep.executor
        self.executed = 0
        self._summaries: dict[str, dict] = {}

    def run(self, specs: list[ScenarioSpec]) -> None:
        """Execute (resume-style) the cumulative spec list for one round."""
        import warnings

        from repro.scenarios.runner import run_scenarios

        with warnings.catch_warnings():
            # While replaying recorded rounds, the cumulative list is a strict
            # prefix of the directory's points, so the runner's orphan warning
            # is expected noise here; run_adaptive re-checks for *genuine*
            # orphans once the schedule has fully re-derived its point set.
            warnings.filterwarnings(
                "ignore", message=".*not part of this sweep.*", category=RuntimeWarning
            )
            result = run_scenarios(
                specs,
                workers=self.workers,
                resume=self.directory,
                compress=self.compress,
                policy=self.policy,
                retry_failed=self.retry_failed,
                executor=self.executor,
            )
        self.executed += result.executed

    def summaries(self, specs: list[ScenarioSpec]) -> dict[str, dict]:
        """Return ``fingerprint -> summary row`` for every given spec.

        Artifacts are read once per fingerprint across the whole adaptive
        run (artifact bytes are immutable once recorded).  A spec with no
        verified artifact was quarantined — the schedule cannot decide on
        partial data, so that is an error pointing at ``--retry-failed``,
        not a silent skip.
        """
        from repro.scenarios.artifacts import iter_artifact
        from repro.scenarios.stream import SweepStream

        needed = [(spec.fingerprint(), spec.label) for spec in specs]
        missing = [pair for pair in needed if pair[0] not in self._summaries]
        if missing:
            completed = SweepStream(self.directory).completed()
            quarantined = [label for fp, label in missing if fp not in completed]
            require(
                not quarantined,
                f"adaptive round cannot score quarantined point(s) "
                f"{quarantined[:3]}{'...' if len(quarantined) > 3 else ''}; "
                f"re-offer them by resuming {self.directory} with retry_failed "
                f"(repro sweep ... --resume {self.directory} --retry-failed)",
            )
            for fp, label in missing:
                path = self.directory / completed[fp]["artifact"]
                summary = None
                for kind, data in iter_artifact(path):
                    if kind == "summary":
                        summary = data
                        break
                require(summary is not None, f"artifact {path} has no 'summary' line")
                self._summaries[fp] = summary
        return {fp: self._summaries[fp] for fp, _ in needed}


def _run_stopping(runner: _RoundRunner, rule: StoppingRule, on_round):
    """Drive the replicate-stopping schedule; return (rounds, final specs)."""
    from repro.analysis.report import bootstrap_ci
    from repro.scenarios.stream import record_round

    sweep = runner.sweep
    assignments = sweep.points()
    labels = [point_label(sweep.label, assignment) for assignment in assignments]
    counts = [rule.min_replicates] * len(assignments)
    active = list(range(len(assignments)))
    ledger: list[dict] = []
    round_no = 0
    while True:
        specs: list[ScenarioSpec] = []
        groups: list[list[ScenarioSpec]] = []
        for assignment, count in zip(assignments, counts):
            group = [
                replicate_spec(sweep.base, sweep.label, assignment, rep)
                for rep in range(count)
            ]
            groups.append(group)
            specs.extend(group)
        runner.run(specs)
        rows = runner.summaries(specs)
        decisions = []
        still: list[int] = []
        for i in active:
            column = [
                _metric_value(rows[spec.fingerprint()], spec.label, rule.metric)
                for spec in groups[i]
            ]
            # The stopping oracle IS the report's CI: same resampler, same
            # per-(base point, metric) seed labels, same value order — a
            # stopped point's reported ci95 meets the target by construction.
            low, high = bootstrap_ci(column, labels[i], rule.metric)
            half = (high - low) / 2.0
            if half <= rule.target_half_width:
                status = "converged"
            elif counts[i] >= rule.max_replicates:
                status = "exhausted"
            else:
                status = "continue"
                still.append(i)
            decisions.append(
                {
                    "point": labels[i],
                    "replicates": counts[i],
                    "mean": sum(column) / len(column),
                    "ci_low": low,
                    "ci_high": high,
                    "half_width": half,
                    "status": status,
                }
            )
        entry = record_round(
            runner.directory,
            {
                "round": round_no,
                "mode": "stopping",
                "metric": rule.metric,
                "target_half_width": rule.target_half_width,
                "decisions": decisions,
            },
        )
        ledger.append(entry)
        if on_round is not None:
            on_round(entry)
        if not still:
            return ledger, specs
        for i in still:
            counts[i] = min(counts[i] + rule.batch, rule.max_replicates)
        active = still
        round_no += 1


def _run_halving(runner: _RoundRunner, schedule: HalvingSchedule, on_round):
    """Drive the successive-halving schedule; return (rounds, cumulative specs)."""
    from repro.scenarios.stream import record_round

    sweep = runner.sweep
    other_axes = {
        key: list(values) for key, values in sweep.axes.items() if key != schedule.axis
    }
    arms = list(sweep.axes[schedule.axis])
    cumulative: list[ScenarioSpec] = []
    seen: set[str] = set()
    ledger: list[dict] = []
    round_no = 0
    while True:
        reps = schedule.replicates * schedule.growth**round_no
        steps = (
            schedule.timesteps * schedule.growth**round_no
            if schedule.timesteps is not None
            else None
        )
        axes = dict(other_axes)
        axes[schedule.axis] = list(arms)
        if steps is not None:
            # The budget rides as a single-value pseudo-axis: it lands in the
            # point's name/seed/fingerprint (distinct per round) and the
            # report's axis inference picks it up as a varying key.
            axes["timesteps"] = [steps]
        round_sweep = SweepSpec(base=sweep.base, axes=axes, name=sweep.name)
        pairs = [
            (assignment, replicate_spec(sweep.base, sweep.label, assignment, rep))
            for assignment in round_sweep.points()
            for rep in range(reps)
        ]
        for _, spec in pairs:
            fingerprint = spec.fingerprint()
            if fingerprint not in seen:
                seen.add(fingerprint)
                cumulative.append(spec)
        runner.run(cumulative)
        rows = runner.summaries([spec for _, spec in pairs])
        arm_rows = []
        for arm in arms:
            values = [
                _metric_value(rows[spec.fingerprint()], spec.label, schedule.objective)
                for assignment, spec in pairs
                if assignment[schedule.axis] == arm
            ]
            arm_rows.append(
                {"arm": arm, "points": len(values), "score": sum(values) / len(values)}
            )
        last = len(arms) == 1 or (
            schedule.rounds is not None and round_no >= schedule.rounds - 1
        )
        survivors = (
            list(arms)
            if last
            else select_survivors(
                arms, [row["score"] for row in arm_rows], schedule.keep, schedule.minimize
            )
        )
        entry = record_round(
            runner.directory,
            {
                "round": round_no,
                "mode": "halving",
                "axis": schedule.axis,
                "objective": schedule.objective,
                "minimize": schedule.minimize,
                "budget": {"replicates": reps, "timesteps": steps},
                "scores": arm_rows,
                "survivors": survivors,
            },
        )
        ledger.append(entry)
        if on_round is not None:
            on_round(entry)
        if last:
            return ledger, cumulative
        arms = survivors
        round_no += 1


def run_adaptive(
    sweep: SweepSpec,
    directory: str | Path,
    workers: int = 1,
    compress: bool | None = None,
    policy=None,
    retry_failed: bool = False,
    executor: str | None = None,
    resume: bool = False,
    on_round=None,
) -> AdaptiveResult:
    """Run a sweep's adaptive schedule over a durable stream directory.

    ``resume=False`` requires a directory with no recorded points (the
    ``stream_to`` contract); ``resume=True`` continues a killed run —
    recorded points verify-and-skip, recorded rounds replay (and are checked
    against the ledger), and the run picks up exactly where it stopped,
    byte-identical to never having been interrupted.  ``policy`` /
    ``executor`` default to the sweep file's own; ``on_round(entry)``
    fires after each round's decision is durably recorded.
    """
    sweep.validate()
    adaptive = sweep.adaptive
    require(
        isinstance(adaptive, AdaptiveSpec),
        "run_adaptive needs a sweep with an 'adaptive' block",
    )
    directory = Path(directory)
    prior: set[str] = set()
    if not resume:
        from repro.scenarios.stream import index_paths

        existing = index_paths(directory) if directory.exists() else []
        require(
            not existing,
            f"{existing[0] if existing else directory} already records points; "
            f"pass resume=True (repro sweep ... --resume) to continue that "
            f"adaptive sweep, or stream to a fresh directory",
        )
    elif directory.exists():
        # Snapshot what the directory records *before* any round runs: a
        # resume with the wrong sweep file can overwrite same-named artifacts,
        # so the orphan check at the end must compare against this snapshot.
        from repro.scenarios.stream import SweepStream

        prior = set(SweepStream(directory).completed())
    runner = _RoundRunner(sweep, directory, workers, compress, policy, retry_failed, executor)
    if adaptive.mode == "stopping":
        rule = adaptive.stopping
        ledger, specs = _run_stopping(runner, rule, on_round)
        exhaustive = rule.max_replicates * len(sweep.points())
    else:
        schedule = adaptive.halving
        ledger, specs = _run_halving(runner, schedule, on_round)
        grid = 1
        for values in sweep.axes.values():
            grid *= len(values)
        final_reps = ledger[-1]["budget"]["replicates"]
        exhaustive = grid * final_reps
    orphans = prior - {spec.fingerprint() for spec in specs}
    if orphans:
        import warnings

        warnings.warn(
            f"{directory} records {len(orphans)} point(s) that are not part of "
            f"this adaptive schedule (resumed with a different sweep file?); "
            f"their artifacts remain on disk but are excluded from MANIFEST.json",
            RuntimeWarning,
            stacklevel=2,
        )
    return AdaptiveResult(
        directory=directory,
        mode=adaptive.mode,
        rounds=ledger,
        specs=specs,
        executed=runner.executed,
        skipped=len(specs) - runner.executed,
        exhaustive_points=exhaustive,
    )
