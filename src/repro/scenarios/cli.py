"""The ``repro`` command line: run, sweep, report, list and replay scenarios.

Installed as the ``repro`` console script (see ``setup.py``) and runnable as
``python -m repro``::

    python -m repro list                       # registered components
    python -m repro run spec.json              # one scenario -> summary table
    python -m repro run spec.json --artifact run.jsonl
    python -m repro sweep sweep.json --workers 4 --artifact-dir out/
    python -m repro sweep sweep.json --stream-to out/   # durable, append-as-you-go
    python -m repro sweep sweep.json --stream-to out/ --compress --replicates 5
    python -m repro sweep sweep.json --resume out/      # re-run only missing points
    python -m repro sweep sweep.json --stream-to out/ \
        --halving healer_kwargs.kappa=amortized_msgs    # adaptive sweep search
    python -m repro sweep sweep.json --stream-to out/ \
        --target-ci amortized_msgs=0.5                  # CI-driven replicates
    python -m repro report out/ --out report/  # aggregate tables from artifacts
    python -m repro report out/ --watch        # live: tail a running sweep
    python -m repro replay run.jsonl           # bit-identical re-execution

Spec files are :meth:`~repro.scenarios.spec.ScenarioSpec.to_json` documents;
sweep files are :meth:`~repro.scenarios.sweep.SweepSpec.to_json` documents
(``{"base": {...}, "axes": {...}}``).  ``replay`` exits non-zero when the
replayed summary deviates from the recorded one, so it doubles as an
integrity check in CI.  A crashed ``--stream-to`` sweep loses nothing:
``--resume`` fingerprints every point and executes exactly the missing ones
(most-expensive-first, estimated from recorded costs), with byte-identical
final artifacts; ``--compress`` gzips each artifact and is auto-detected on
resume, replay and report.  ``--replicates N`` expands every grid point into
N independently-seeded replicates, which ``report`` aggregates back per base
point (``--ci`` adds a bootstrap confidence interval).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path


def _describe_component(component) -> tuple[str, str]:
    """Return ``(signature, first docstring line)`` for a registered component.

    Built for ``list --verbose``: makes a new pack discoverable without
    reading source.  Unintrospectable plugins degrade to empty strings
    rather than failing the listing.
    """
    import inspect

    try:
        signature = str(inspect.signature(component))
    except (TypeError, ValueError):
        signature = ""
    doc = inspect.getdoc(component) or ""
    first_line = doc.strip().splitlines()[0].strip() if doc.strip() else ""
    return signature, first_line


def _cmd_list(args) -> int:
    from repro.scenarios.registry import (
        ADVERSARIES,
        EXECUTORS,
        HEALERS,
        TOPOLOGIES,
        list_adversaries,
        list_executors,
        list_healers,
        list_topologies,
    )

    sections = {
        "healers": (list_healers, HEALERS),
        "adversaries": (list_adversaries, ADVERSARIES),
        "topologies": (list_topologies, TOPOLOGIES),
        "executors": (list_executors, EXECUTORS),
    }
    wanted = sections if args.kind == "all" else {args.kind: sections[args.kind]}
    verbose = getattr(args, "verbose", False)
    for kind, (lister, registry) in wanted.items():
        print(f"{kind}:")
        for name in lister():
            if not verbose:
                print(f"  {name}")
                continue
            signature, first_line = _describe_component(registry.get(name))
            print(f"  {name}{signature}")
            if first_line:
                print(f"      {first_line}")
    return 0


def _load_spec(path: str):
    from repro.scenarios.spec import ScenarioSpec

    return ScenarioSpec.from_json(Path(path).read_text(encoding="utf-8"))


def _print_records(records, title: str) -> None:
    from repro.harness.reporting import print_table

    rows = []
    for record in records:
        row = {"scenario": record.spec.label}
        row.update(record.summary)
        rows.append(row)
    print_table(rows, title=title)


def _cmd_run(args) -> int:
    from repro.scenarios.artifacts import save_run

    spec = _load_spec(args.spec)
    if args.timesteps is not None:
        spec = spec.with_overrides(timesteps=args.timesteps)
    record = spec.validate().run()
    _print_records([record], title=f"run: {spec.label}")
    if args.artifact:
        path = save_run(record, args.artifact)
        print(f"artifact written to {path}")
    return 0


def _check_resume_replicates(resume_dir: Path, replicates: int, entries: list) -> None:
    """Refuse resuming a directory recorded under a different replicate count.

    ``entries`` are the directory's index entries.  A mismatched
    ``--replicates`` silently re-runs the whole grid (every fingerprint
    differs) and strands the old points as orphans — an error message beats
    a doubled directory.
    """
    recorded = [entry["replicate"] for entry in entries]
    if not recorded:
        return
    ids = [value for value in recorded if value is not None]
    if replicates == 1 and ids:
        raise ValueError(
            f"--resume {resume_dir} records replicate points (ids up to "
            f"{max(ids)}) but this sweep has replicates=1; pass --replicates "
            f"{max(ids) + 1} (or more) to continue it"
        )
    if replicates > 1 and len(ids) < len(recorded):
        raise ValueError(
            f"--resume {resume_dir} was streamed without replicates but "
            f"--replicates {replicates} was given; resume it with the "
            f"replicate count it was recorded with"
        )
    if ids and max(ids) >= replicates > 1:
        raise ValueError(
            f"--resume {resume_dir} records replicate ids up to {max(ids)} "
            f"but --replicates {replicates} only expands ids 0..{replicates - 1}; "
            f"was the sweep streamed with a different --replicates?"
        )


def _merge_adaptive(sweep, args):
    """Fold the ``--target-ci`` / ``--halving`` flags into the sweep's block.

    A flag overrides the corresponding field(s) of the sweep file's own rule
    or schedule and keeps its other fields — the same field-wise merge the
    policy flags use.
    """
    from dataclasses import replace

    from repro.scenarios.adaptive import AdaptiveSpec, HalvingSchedule, StoppingRule

    if args.target_ci and args.halving:
        raise ValueError(
            "--target-ci and --halving are different adaptive modes; pass one"
        )
    adaptive = sweep.adaptive
    if args.target_ci:
        metric, sep, width = args.target_ci.rpartition("=")
        if not sep or not metric:
            raise ValueError(
                "--target-ci expects METRIC=WIDTH (e.g. --target-ci amortized_msgs=0.5)"
            )
        try:
            width = float(width)
        except ValueError:
            raise ValueError(f"--target-ci width {width!r} is not a number") from None
        rule = (
            adaptive.stopping
            if adaptive is not None and adaptive.stopping is not None
            else StoppingRule(metric=metric, target_half_width=width)
        )
        rule = replace(rule, metric=metric, target_half_width=width)
        return replace(sweep, adaptive=AdaptiveSpec(stopping=rule))
    if args.halving:
        axis, sep, objective = args.halving.partition("=")
        if not sep or not axis or not objective:
            raise ValueError(
                "--halving expects AXIS=OBJECTIVE "
                "(e.g. --halving healer_kwargs.kappa=amortized_msgs)"
            )
        schedule = (
            adaptive.halving
            if adaptive is not None and adaptive.halving is not None
            else HalvingSchedule(axis=axis, objective=objective)
        )
        schedule = replace(schedule, axis=axis, objective=objective)
        return replace(sweep, adaptive=AdaptiveSpec(halving=schedule))
    return sweep


def _cmd_sweep_adaptive(args, sweep, policy, executor) -> int:
    """The adaptive branch of ``repro sweep``: round-scheduled execution."""
    from repro.scenarios.adaptive import run_adaptive

    if not (args.stream_to or args.resume):
        raise ValueError(
            "adaptive sweeps are round-scheduled over a durable directory; "
            "pass --stream-to DIR (or --resume DIR)"
        )
    if args.replicates is not None:
        raise ValueError(
            "--replicates conflicts with an adaptive sweep (the schedule "
            "decides per-point replicate counts)"
        )
    directory = Path(args.stream_to or args.resume)
    mode = sweep.adaptive.mode
    print(f"adaptive sweep {sweep.label}: mode={mode}, workers={args.workers}")

    def on_round(entry: dict) -> None:
        if entry["mode"] == "halving":
            budget = entry["budget"]
            steps = f" timesteps={budget['timesteps']}" if budget["timesteps"] else ""
            print(
                f"[round {entry['round']}] replicates={budget['replicates']}"
                f"{steps} arms={len(entry['scores'])} -> "
                f"survivors={len(entry['survivors'])}"
            )
        else:
            statuses = [decision["status"] for decision in entry["decisions"]]
            print(
                f"[round {entry['round']}] active={len(statuses)} "
                f"converged={statuses.count('converged')} "
                f"exhausted={statuses.count('exhausted')} "
                f"continuing={statuses.count('continue')}"
            )

    try:
        result = run_adaptive(
            sweep,
            directory,
            workers=args.workers,
            compress=True if args.compress else None,
            policy=policy,
            retry_failed=args.retry_failed,
            executor=executor,
            resume=args.resume is not None,
            on_round=on_round,
        )
    except KeyboardInterrupt:
        print(
            f"\ninterrupted: completed points and rounds are safe in {directory}/; "
            f"continue with: repro sweep {args.sweep} --resume {directory}",
            file=sys.stderr,
        )
        return 130
    print(
        f"adaptive {mode}: {len(result.rounds)} round(s), {len(result.specs)} "
        f"points (executed {result.executed}, resumed {result.skipped}); "
        f"saved {result.points_saved} of {result.exhaustive_points} "
        f"exhaustive points"
    )
    return 0


def _cmd_sweep(args) -> int:
    from dataclasses import replace

    from repro.scenarios.artifacts import artifact_name, save_run
    from repro.scenarios.policy import PointPolicy
    from repro.scenarios.runner import run_scenarios
    from repro.scenarios.sweep import SweepSpec

    if args.workers < 1:
        # Reject before any backend sees it: ProcessPoolExecutor's own
        # "max_workers must be greater than 0" traceback names no flag.
        raise ValueError(f"--workers must be at least 1 (got {args.workers})")
    sweep = SweepSpec.from_json(Path(args.sweep).read_text(encoding="utf-8"))
    sweep = _merge_adaptive(sweep, args)
    if args.adaptive and sweep.adaptive is None:
        raise ValueError(
            "--adaptive needs an 'adaptive' block in the sweep file, or an "
            "explicit --target-ci METRIC=WIDTH / --halving AXIS=OBJECTIVE"
        )
    if args.replicates is not None and sweep.adaptive is None:
        sweep = replace(sweep, replicates=args.replicates)
    # The sweep file's policy is the base; explicit flags override field-wise.
    policy = (sweep.policy or PointPolicy()).merged_with(
        timeout_s=args.timeout, max_retries=args.max_retries, backoff=args.backoff
    )
    # The sweep file's executor is the default; --executor overrides it.
    executor = args.executor if args.executor is not None else sweep.executor
    if args.artifact_dir and (args.stream_to or args.resume):
        raise ValueError(
            "--artifact-dir buffers in memory; it cannot be combined with "
            "--stream-to/--resume (the streamed directory already holds one "
            "artifact per point)"
        )
    if args.compress and not (args.stream_to or args.resume):
        raise ValueError("--compress only applies to --stream-to/--resume sweeps")
    if args.retry_failed and not args.resume:
        raise ValueError("--retry-failed only applies to --resume sweeps")
    if sweep.adaptive is not None:
        # Round-scheduled execution; the schedule decides the point set, so
        # there is no grid to expand (and the replicate-count resume guard
        # does not apply — adaptive directories legitimately mix counts).
        return _cmd_sweep_adaptive(args, sweep, policy, executor)
    specs = sweep.expand()
    print(f"sweep {sweep.label}: {len(specs)} points, workers={args.workers}")
    if args.stream_to or args.resume:
        # Streamed mode: nothing is buffered, each finished point lands on
        # disk durably, and a resumed run executes only the missing points.
        directory = Path(args.stream_to or args.resume)
        try:
            result = run_scenarios(
                specs,
                workers=args.workers,
                stream_to=args.stream_to,
                resume=args.resume,
                compress=True if args.compress else None,
                policy=policy,
                retry_failed=args.retry_failed,
                executor=executor,
                check_resume=partial(_check_resume_replicates, directory, sweep.replicates),
            )
        except KeyboardInterrupt:
            # Everything already recorded survived durably — say so instead
            # of unwinding with a stack trace.
            print(
                f"\ninterrupted: completed points are safe in {directory}/; "
                f"continue with: repro sweep {args.sweep} --resume {directory}",
                file=sys.stderr,
            )
            return 130
        failed = f", failed {result.failed}" if result.failed else ""
        print(
            f"streamed {result.total} points to {result.directory}/ "
            f"(executed {result.executed}, resumed {result.skipped}{failed})"
        )
        if result.failed:
            print(
                f"{result.failed} point(s) quarantined after exhausting retries "
                f"(see {result.failures_path}); re-offer them with: "
                f"repro sweep {args.sweep} --resume {result.directory} --retry-failed",
                file=sys.stderr,
            )
            return 3
        return 0
    records = run_scenarios(specs, workers=args.workers, policy=policy, executor=executor)
    _print_records(records, title=f"sweep: {sweep.label}")
    if args.artifact_dir:
        directory = Path(args.artifact_dir)
        for index, record in enumerate(records):
            save_run(record, directory / artifact_name(index, record.spec.label))
        print(f"{len(records)} artifacts written to {directory}/")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report, watch_report

    if args.watch:

        def on_refresh(watcher, snapshot) -> None:
            points = len(snapshot.points) if snapshot is not None else 0
            failed = len(snapshot.failed) if snapshot is not None else 0
            state = "complete" if watcher.complete else "watching"
            suffix = f", {failed} failed" if failed else ""
            print(f"[watch] {points} point(s){suffix}, {state}", file=sys.stderr)

        report = watch_report(
            args.directory,
            out_dir=args.out,
            interval=args.interval,
            max_refreshes=args.max_refreshes,
            include_timeline=not args.no_timeline,
            ci=args.ci,
            on_refresh=on_refresh,
        )
        if report is None:
            print(f"error: no points appeared in {args.directory}", file=sys.stderr)
            return 2
    else:
        report = generate_report(
            args.directory,
            out_dir=args.out,
            include_timeline=not args.no_timeline,
            ci=args.ci,
        )
    print(report.markdown, end="")
    for path in report.written:
        print(f"wrote {path}", file=sys.stderr)
    if report.failed:
        # Degraded but usable: the report already carries the failed-point
        # table, so this is a note, not an error exit.
        print(
            f"note: {len(report.failed)} quarantined point(s) are missing from "
            f"the aggregates (see the 'Failed points' section)",
            file=sys.stderr,
        )
    return 0


def _cmd_replay(args) -> int:
    from repro.scenarios.artifacts import replay_artifact

    report = replay_artifact(args.artifact)
    print(f"replaying {args.artifact} ({report.record.spec.label})")
    from repro.harness.reporting import print_table

    print_table(
        [
            {"source": "recorded", **report.record.summary},
            {"source": "replayed", **report.replayed_summary},
        ],
        title="recorded vs replayed summary",
    )
    if report.identical:
        print("replay identical: True")
        return 0
    print(f"replay identical: False; differences: {report.differences()}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser (exposed for the docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run Xheal self-healing scenarios from declarative JSON specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list registered healers/adversaries/topologies/executors"
    )
    list_parser.add_argument(
        "--kind",
        choices=["healers", "adversaries", "topologies", "executors", "all"],
        default="all",
        help="which registry to list (default: all)",
    )
    list_parser.add_argument(
        "--verbose",
        action="store_true",
        help="also show each component's constructor signature and summary line",
    )
    list_parser.set_defaults(func=_cmd_list)

    run_parser = sub.add_parser("run", help="run one scenario spec")
    run_parser.add_argument("spec", help="path to a ScenarioSpec JSON file")
    run_parser.add_argument("--artifact", help="write a replayable JSONL artifact here")
    run_parser.add_argument(
        "--timesteps", type=int, default=None, help="override the spec's timesteps"
    )
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser("sweep", help="expand and run a sweep spec")
    sweep_parser.add_argument("sweep", help="path to a SweepSpec JSON file")
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes (default: 1)"
    )
    sweep_parser.add_argument(
        "--executor",
        metavar="NAME",
        default=None,
        help="execution backend: serial, process-pool, subprocess-fleet, or a "
        "third-party repro.executors entry point (default: automatic — "
        "serial for --workers 1, process-pool otherwise; overrides the "
        "sweep file's 'executor' field)",
    )
    sweep_parser.add_argument(
        "--artifact-dir", help="write one replayable JSONL artifact per point here"
    )
    sweep_parser.add_argument(
        "--stream-to",
        metavar="DIR",
        help="durably stream each finished point to DIR as it completes "
        "(crash-resumable; skips the summary table)",
    )
    sweep_parser.add_argument(
        "--resume",
        metavar="DIR",
        help="resume a crashed --stream-to sweep: re-run only the points DIR "
        "does not already record, most-expensive-first",
    )
    sweep_parser.add_argument(
        "--replicates",
        type=int,
        default=None,
        metavar="N",
        help="expand every grid point into N independently-seeded replicates "
        "(overrides the sweep file's 'replicates' field)",
    )
    sweep_parser.add_argument(
        "--compress",
        action="store_true",
        help="gzip each streamed artifact (.jsonl.gz; auto-detected on "
        "resume/replay/report)",
    )
    sweep_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-point wall-clock budget in seconds; an overrunning worker "
        "is killed and the point charged an attempt",
    )
    sweep_parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts a failing point gets before it is quarantined "
        "into failures.jsonl (default: 0)",
    )
    sweep_parser.add_argument(
        "--backoff",
        type=float,
        default=None,
        metavar="S",
        help="base delay between attempts (deterministic exponential backoff "
        "with seeded jitter; default: 0, retry immediately)",
    )
    sweep_parser.add_argument(
        "--retry-failed",
        action="store_true",
        help="with --resume: re-offer previously quarantined points with a "
        "fresh attempt budget (by default resume skips them)",
    )
    sweep_parser.add_argument(
        "--adaptive",
        action="store_true",
        help="run the sweep file's 'adaptive' block (round-scheduled "
        "replicate stopping or successive halving; requires "
        "--stream-to/--resume). A file carrying the block runs adaptively "
        "even without this flag",
    )
    sweep_parser.add_argument(
        "--target-ci",
        metavar="METRIC=WIDTH",
        default=None,
        help="adaptive replicate stopping: grow each point's [rep=k] "
        "replicates until the bootstrap 95%% CI half-width of METRIC is "
        "<= WIDTH (overrides the sweep file's stopping rule field-wise)",
    )
    sweep_parser.add_argument(
        "--halving",
        metavar="AXIS=OBJECTIVE",
        default=None,
        help="adaptive successive halving: run all values of AXIS at a small "
        "budget, keep the best fraction by the OBJECTIVE summary column, "
        "grow the budget, repeat (overrides the sweep file's halving "
        "schedule field-wise)",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    report_parser = sub.add_parser(
        "report", help="aggregate a sweep artifact directory into tables"
    )
    report_parser.add_argument("directory", help="a --stream-to / --artifact-dir directory")
    report_parser.add_argument(
        "--out", metavar="DIR", help="also write report.md and the CSV tables here"
    )
    report_parser.add_argument(
        "--no-timeline", action="store_true", help="omit per-point timeline tables"
    )
    report_parser.add_argument(
        "--ci",
        action="store_true",
        help="add a bootstrap 95%% confidence-interval column to the "
        "replicate aggregation",
    )
    report_parser.add_argument(
        "--watch",
        action="store_true",
        help="tail a live --stream-to directory, rewriting the report as "
        "points land; exits when the sweep completes",
    )
    report_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="--watch poll interval in seconds (default: 2.0)",
    )
    report_parser.add_argument(
        "--max-refreshes",
        type=int,
        default=None,
        metavar="N",
        help="stop --watch after N refreshes even if the sweep is unfinished",
    )
    report_parser.set_defaults(func=_cmd_report)

    replay_parser = sub.add_parser(
        "replay", help="re-execute a run artifact and verify the summary matches"
    )
    replay_parser.add_argument("artifact", help="path to a run artifact (JSONL)")
    replay_parser.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ValueError covers ValidationError (bad specs/names), JSONDecodeError
    # (malformed spec files) and corrupt-artifact errors; OSError covers
    # missing/unreadable paths.  Anything else is a bug and should traceback.
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Streamed sweeps catch this themselves (with a resume hint); for
        # everything else, ^C is still not a traceback-worthy event.
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
