"""Aggregate reports over streamed sweep directories.

:func:`generate_report` turns a directory of JSONL run artifacts (as written
by ``run_scenarios(..., stream_to=...)`` or ``repro sweep --stream-to``,
plain or gzip-compressed) into

* a markdown report — one per-point summary table, one aggregate table per
  *varying axis* (any dotted spec field that takes more than one value across
  the directory), replicate-group statistics when the directory carries
  ``[rep=N]`` replicate points, and optionally per-point timeline tables,
* ``summary.csv`` — per-point summary rows plus their axis assignment,
* ``replicates.csv`` — per-base-point mean/std/min/max (and, with
  ``ci=True``, a deterministic bootstrap 95% confidence interval) over each
  replicate group, and
* ``timeline.csv`` — every recorded timeline row in long format.

The reader is memory-bounded: artifacts are consumed one line at a time via
:func:`~repro.scenarios.artifacts.iter_artifact` (which sniffs gzip, so
compressed and uncompressed directories report identically), timeline rows
are appended to the CSV as they are read, and only the small per-point
summary rows (plus a compact per-point series for the markdown timeline
section) are retained — a thousand-point sweep directory never gets loaded
into memory at once.

Axes are *inferred*, not configured: the spec line of every artifact is
flattened to dotted keys (``healer_kwargs.kappa``) and any key that varies is
an axis.  This keeps the report honest for hand-assembled directories, not
just ones produced by a single :class:`~repro.scenarios.sweep.SweepSpec`.
(When replicate groups are present, ``seed`` is exempt: per-replicate seeds
are the replication mechanism, not a parameter axis.)

Degraded directories — ones whose ``failures.jsonl`` ledger (or finalized
manifest's ``failed`` section) quarantined points after exhausting their
retries — still report: the available artifacts aggregate normally and a
"Failed points" table lists what is missing, instead of the reader refusing
the whole directory.

:class:`ReportWatcher` / :func:`watch_report` are the live view: they tail a
still-running stream directory's ``index.jsonl`` incrementally — verifying
each new entry with the same artifact-hash machinery resume uses, reading
each artifact exactly once — and rewrite the report on every refresh.  A
watch snapshot equals a one-shot :func:`generate_report` over the same
partial directory, and the final refresh (once ``MANIFEST.json`` lands) is
byte-identical to the one-shot report of the finished sweep.
"""

from __future__ import annotations

import csv
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.scenarios.artifacts import iter_artifact
from repro.scenarios.spec import canonical_fingerprint
from repro.scenarios.stream import (
    FAILURES_NAME,
    ROUNDS_NAME,
    artifact_matches,
    index_paths,
    is_index_name,
    iter_index_entries,
    read_failures,
    read_manifest,
    read_rounds,
)
from repro.scenarios.sweep import flatten_dotted, split_replicate
from repro.util.rng import derive_seed
from repro.util.validation import require

#: Compact per-point series shown in the markdown timeline section:
#: column header -> extractor over one timeline row.
_TIMELINE_COLUMNS = {
    "step": lambda row: row["timestep"],
    "degree_ratio": lambda row: row["worst_degree_ratio"],
    "h(healed)": lambda row: row["healed"].get("edge_expansion"),
    "h(ghost)": lambda row: row["ghost"].get("edge_expansion"),
    "lambda(healed)": lambda row: row["healed"].get("algebraic_connectivity"),
}

#: Bootstrap resamples behind the ``ci`` column (seeded, so deterministic).
_CI_RESAMPLES = 200
_CI_ALPHA = 0.05


def scan_artifact_paths(directory: str | Path, allow_empty: bool = False) -> list[Path]:
    """Return the directory's artifact files in canonical point order.

    When the directory carries a ``MANIFEST.json`` (a finalized streamed
    sweep), its entry order — the sweep's submission order — wins; otherwise
    every ``*.jsonl`` / ``*.jsonl.gz`` except the stream index (``index.jsonl``
    or an older ``index-<worker>.jsonl`` shard of it) and the failure/round ledgers
    is taken in sorted-name order.  ``allow_empty=True`` permits a
    directory with no artifacts at all (a degraded sweep whose every point
    was quarantined still deserves a report of its failures).
    """
    directory = Path(directory)
    require(directory.is_dir(), f"not a sweep directory: {directory}")
    manifest = read_manifest(directory)
    if manifest is not None:
        return [directory / entry["artifact"] for entry in manifest["entries"]]
    # Dotted names are the stream writer's crash leftovers (.tmp-*): a
    # killed sweep may leave a partial temp artifact next to the real ones.
    paths = sorted(
        path
        for pattern in ("*.jsonl", "*.jsonl.gz")
        for path in directory.glob(pattern)
        if not is_index_name(path.name)
        and path.name != FAILURES_NAME
        and path.name != ROUNDS_NAME
        and not path.name.startswith(".")
    )
    require(
        bool(paths) or allow_empty,
        f"no run artifacts (*.jsonl / *.jsonl.gz) in {directory}",
    )
    return paths


def _cell(value) -> str:
    """Render one markdown/CSV cell deterministically."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _markdown_table(rows: list[dict], columns: list[str]) -> str:
    """Render dict rows as a GitHub-flavored markdown table."""
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(row.get(column)) for column in columns) + " |")
    return "\n".join(lines)


def _sort_key(value):
    """Order mixed-type axis values deterministically (numbers, then text)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, value, "")
    return (1, 0, str(value))


@dataclass
class PointSummary:
    """One artifact's contribution to the aggregate report."""

    label: str
    artifact: str
    spec_flat: dict
    summary: dict
    fingerprint: str = ""
    timeline: list = field(default_factory=list)  # compact markdown series
    # Raw timeline rows, kept only by the watcher (collect_rows=True) so
    # each artifact is read once yet timeline.csv can be rewritten on every
    # refresh; one-shot reports stream rows straight to CSV instead.
    raw_timeline: list = field(default_factory=list)
    csv_label: str = ""


@dataclass
class SweepReport:
    """The aggregated view of a sweep directory."""

    directory: Path
    points: list
    axes: dict  # dotted spec key -> sorted distinct values
    markdown: str
    written: list = field(default_factory=list)  # files written by out_dir
    failed: list = field(default_factory=list)  # quarantined-point entries


def _read_point(
    path: Path,
    timeline_writer,
    include_timeline: bool,
    collect_rows: bool = False,
) -> PointSummary:
    """Single-pass read of one artifact (timeline rows streamed straight out)."""
    spec_data: dict | None = None
    summary: dict | None = None
    compact: list[dict] = []
    raw: list[dict] = []
    for kind, data in iter_artifact(path):
        if kind == "spec":
            spec_data = data
        elif kind == "summary":
            summary = data
        elif kind == "timeline":
            if timeline_writer is not None:
                timeline_writer.write_row(_csv_label(path, spec_data), data)
            if collect_rows:
                raw.append(data)
            if include_timeline:
                compact.append(
                    {name: pick(data) for name, pick in _TIMELINE_COLUMNS.items()}
                )
    require(spec_data is not None, f"artifact {path} has no 'spec' line")
    require(summary is not None, f"artifact {path} has no 'summary' line")
    label = spec_data.get("name") or (
        f"{spec_data.get('healer')}@{spec_data.get('topology')}"
        f"/{spec_data.get('adversary')}"
    )
    return PointSummary(
        label=label,
        artifact=path.name,
        spec_flat=flatten_dotted(spec_data),
        summary=dict(summary),
        fingerprint=canonical_fingerprint(spec_data),
        timeline=compact,
        raw_timeline=raw,
        csv_label=_csv_label(path, spec_data),
    )


def _csv_label(artifact: Path, spec_data: dict | None) -> str:
    """The label ``timeline.csv`` rows carry for one artifact."""
    return (spec_data or {}).get("name") or artifact.stem


class _TimelineCsv:
    """Streams timeline rows to ``timeline.csv`` as artifacts are read."""

    def __init__(self, path: Path):
        self._handle = path.open("w", encoding="utf-8", newline="")
        self._writer: csv.DictWriter | None = None
        self.path = path
        self.rows = 0

    def write_row(self, label: str, row: dict) -> None:
        flat = {"label": label, **flatten_dotted(row)}
        if self._writer is None:
            self._writer = csv.DictWriter(self._handle, fieldnames=list(flat))
            self._writer.writeheader()
        self._writer.writerow({key: _cell(flat.get(key)) for key in self._writer.fieldnames})
        self.rows += 1

    def close(self) -> None:
        self._handle.close()


def detect_axes(points: list) -> dict:
    """Return ``dotted spec key -> sorted distinct values`` for varying keys.

    ``name`` always varies (sweep expansion bakes the assignment into it) and
    is never an axis.  A key that only *some* points carry (hand-assembled
    directories mixing kwargs shapes) varies too — the axis table then gets
    an explicit ``(missing)`` group so its point counts still sum to the
    directory total.
    """
    values: dict[str, list] = {}
    for point in points:
        for key, value in point.spec_flat.items():
            bucket = values.setdefault(key, [])
            if value not in bucket:
                bucket.append(value)
    return {
        key: sorted(distinct, key=_sort_key)
        for key, distinct in sorted(values.items())
        if key != "name"
        and (
            len(distinct) > 1
            or any(key not in point.spec_flat for point in points)
        )
    }


def _aggregate(points: list) -> dict:
    """Aggregate summary columns over ``points`` (means; bools as ok-counts)."""
    row: dict = {"points": len(points)}
    columns: dict[str, list] = {}
    for point in points:
        for key, value in point.summary.items():
            columns.setdefault(key, []).append(value)
    for key, column in columns.items():
        if all(isinstance(value, bool) for value in column):
            row[f"{key} ok"] = f"{sum(column)}/{len(column)}"
        elif all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in column
        ):
            row[f"{key} mean"] = float(sum(column)) / len(column)
    return row


def _axis_section(key: str, values: list, points: list) -> str:
    """Render the aggregate table for one axis.

    Every point lands in exactly one row: points without the key at all get
    the trailing ``(missing)`` group rather than silently vanishing.
    """
    rows = []
    for value in values:
        group = [
            point
            for point in points
            if key in point.spec_flat and point.spec_flat[key] == value
        ]
        rows.append({key: value, **_aggregate(group)})
    absent = [point for point in points if key not in point.spec_flat]
    if absent:
        rows.append({key: "(missing)", **_aggregate(absent)})
    columns = [key]
    for row in rows:
        columns.extend(column for column in row if column not in columns)
    return f"## Axis: `{key}`\n\n{_markdown_table(rows, columns)}"


# -- replicate aggregation ----------------------------------------------------


def replicate_groups(points: list) -> dict:
    """Return ``base label -> [points]`` for every replicate group of size > 1.

    Membership is the ``[rep=N]`` marker :meth:`SweepSpec.expand` bakes into
    point names (``repro.scenarios.sweep.split_replicate``); unmarked points
    are single-shot and never grouped.
    """
    groups: dict[str, list] = {}
    for point in points:
        base, rep = split_replicate(point.label)
        if rep is not None:
            groups.setdefault(base, []).append(point)
    return {base: members for base, members in groups.items() if len(members) > 1}


def bootstrap_ci(values: list, *seed_labels) -> tuple[float, float]:
    """Deterministic bootstrap 95% CI of the mean of ``values``.

    Seeded from the group/metric labels via :func:`derive_seed` (pure-Python
    ``random.Random``), so goldens and watch/one-shot differentials are
    byte-stable across platforms and runs.  The labels pass through as
    *separate* ``derive_seed`` arguments rather than being joined into one
    string: a joined label made ``("a:b", "c")`` and ``("a", "b:c")``
    collide, so a base point named with a colon could share its resample
    stream with a different (point, metric) pair — identical value columns
    under different labels must draw independent resamples.
    """
    rng = random.Random(derive_seed(0, "report-ci", *seed_labels))
    size = len(values)
    means = sorted(
        sum(rng.choices(values, k=size)) / size for _ in range(_CI_RESAMPLES)
    )
    cut = int(_CI_RESAMPLES * _CI_ALPHA / 2)
    return means[cut], means[_CI_RESAMPLES - 1 - cut]


def _replicate_stats(base: str, members: list, ci: bool) -> list[dict]:
    """Per-metric aggregation rows for one replicate group."""
    columns: dict[str, list] = {}
    for member in members:
        for key, value in member.summary.items():
            columns.setdefault(key, []).append(value)
    rows: list[dict] = []
    for key, column in columns.items():
        if all(isinstance(value, bool) for value in column):
            rows.append({"metric": key, "mean": f"{sum(column)}/{len(column)} ok"})
            continue
        if not all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in column
        ):
            continue
        mean = float(sum(column)) / len(column)
        spread = math.sqrt(
            sum((value - mean) ** 2 for value in column) / (len(column) - 1)
        )
        row = {
            "metric": key,
            "mean": mean,
            "std": spread,
            "min": min(column),
            "max": max(column),
        }
        if ci:
            low, high = bootstrap_ci(list(column), base, key)
            row["ci95"] = f"[{_cell(low)}, {_cell(high)}]"
        rows.append(row)
    return rows


def _replicate_section(groups: dict, ci: bool) -> str:
    """Render the per-base-point replicate statistics section."""
    columns = ["metric", "mean", "std", "min", "max"] + (["ci95"] if ci else [])
    parts = [
        "## Replicates",
        "Per base point, aggregated over its `[rep=N]` replicates"
        + (" (ci95: seeded bootstrap of the mean)." if ci else "."),
    ]
    for base in sorted(groups):
        members = groups[base]
        parts.append(
            f"### {base} ({len(members)} replicates)\n\n"
            + _markdown_table(_replicate_stats(base, members, ci), columns)
        )
    return "\n\n".join(parts)


# -- adaptive schedule --------------------------------------------------------


def _adaptive_section(rounds: list) -> str:
    """Render the per-round decision table replayed from ``rounds.jsonl``.

    The ledger carries no timing data — every cell below is a pure function
    of recorded summary rows — so this section is byte-identical between an
    interrupted-and-resumed adaptive sweep and an uninterrupted one.
    """
    parts = [
        "## Adaptive schedule",
        "Replayed from `rounds.jsonl`; every decision is a pure function of\n"
        "the recorded summary rows (never wall-clock), so resumed runs render\n"
        "this table identically.",
    ]
    final = rounds[-1]
    if final["mode"] == "halving":
        goal = "minimized" if final["minimize"] else "maximized"
        parts.append(
            f"Successive halving over `{final['axis']}` by "
            f"`{final['objective']}` ({goal})."
        )
        rows = []
        for entry in rounds:
            sign = 1 if entry["minimize"] else -1
            best = min(entry["scores"], key=lambda score: sign * score["score"], default=None)
            rows.append(
                {
                    "round": entry["round"],
                    "replicates": entry["budget"]["replicates"],
                    "timesteps": entry["budget"]["timesteps"],
                    "arms": ", ".join(_cell(score["arm"]) for score in entry["scores"]),
                    "best": best["arm"] if best else None,
                    "survivors": ", ".join(_cell(arm) for arm in entry["survivors"]),
                }
            )
        parts.append(
            _markdown_table(
                rows,
                ["round", "replicates", "timesteps", "arms", "best", "survivors"],
            )
        )
    else:
        parts.append(
            f"Replicate stopping on `{final['metric']}` at target CI "
            f"half-width {_cell(final['target_half_width'])}."
        )
        rows = []
        for entry in rounds:
            statuses = [decision["status"] for decision in entry["decisions"]]
            halves = [decision["half_width"] for decision in entry["decisions"]]
            rows.append(
                {
                    "round": entry["round"],
                    "active": len(statuses),
                    "converged": statuses.count("converged"),
                    "exhausted": statuses.count("exhausted"),
                    "continuing": statuses.count("continue"),
                    "max half-width": max(halves, default=None),
                }
            )
        parts.append(
            _markdown_table(
                rows,
                ["round", "active", "converged", "exhausted", "continuing", "max half-width"],
            )
        )
    return "\n\n".join(parts)


# -- rendering ----------------------------------------------------------------


def _summary_columns(points: list) -> list[str]:
    columns = ["point"]
    for point in points:
        for key in point.summary:
            if key not in columns:
                columns.append(key)
    return columns


def _failed_section(failed: list) -> str:
    """Render the quarantined-point table for a degraded directory."""
    rows = [
        {
            "point": entry["label"] or entry["fingerprint"][:12],
            "attempts": entry["attempts"],
            "error": entry["error"],
        }
        for entry in failed
    ]
    return (
        "## Failed points\n\n"
        "Quarantined after exhausting retries; their artifacts are absent from\n"
        "the tables above.  Re-offer them with "
        "`repro sweep <spec> --resume <dir> --retry-failed`.\n\n"
        + _markdown_table(rows, ["point", "attempts", "error"])
    )


def _render(
    directory: Path, points: list, include_timeline: bool, ci: bool, failed=(), rounds=()
):
    """Compose the markdown document; return ``(axes, groups, markdown)``.

    ``failed`` is the directory's quarantined-point entries; a failure-free
    directory renders byte-identically to the pre-failure format (no extra
    bullet, no section).  ``rounds`` is the adaptive-round ledger; a
    non-adaptive directory likewise renders exactly as before.
    """
    axes = detect_axes(points)
    groups = replicate_groups(points)
    if groups:
        # Per-replicate derived seeds are the replication mechanism, not a
        # swept parameter — a one-row-per-seed axis table would be noise.
        axes.pop("seed", None)
    summary_columns = _summary_columns(points)
    point_rows = [{"point": point.label, **point.summary} for point in points]
    bullets = [
        f"- points: {len(points)}",
        f"- varying axes: "
        + (", ".join(f"`{key}`" for key in axes) if axes else "(none)"),
    ]
    if failed:
        bullets.append(f"- failed points: {len(failed)}")
    sections = [
        f"# Sweep report: {directory.name}",
        "\n".join(bullets),
        f"## Points\n\n{_markdown_table(point_rows, summary_columns)}",
    ]
    if failed:
        sections.append(_failed_section(list(failed)))
    for key, values in axes.items():
        sections.append(_axis_section(key, values, points))
    if rounds:
        sections.append(_adaptive_section(list(rounds)))
    if groups:
        sections.append(_replicate_section(groups, ci))
    if include_timeline and any(point.timeline for point in points):
        timeline_parts = ["## Timelines"]
        for point in points:
            if point.timeline:
                timeline_parts.append(
                    f"### {point.label}\n\n"
                    + _markdown_table(point.timeline, list(_TIMELINE_COLUMNS))
                )
        sections.append("\n\n".join(timeline_parts))
    return axes, groups, "\n\n".join(sections) + "\n"


def _write_tables(out_dir: Path, points: list, axes: dict, groups: dict, ci: bool, markdown: str):
    """Write ``report.md`` / ``summary.csv`` / ``replicates.csv``; return paths."""
    written: list[Path] = []
    report_path = out_dir / "report.md"
    report_path.write_text(markdown, encoding="utf-8")
    written.append(report_path)

    summary_columns = _summary_columns(points)
    summary_path = out_dir / "summary.csv"
    axis_columns = list(axes)
    with summary_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        # Axis columns are namespaced (spec.healer, spec.timesteps) so
        # they never collide with summary columns of the same name.
        writer.writerow(
            ["point", *(f"spec.{key}" for key in axis_columns), *summary_columns[1:]]
        )
        for point in points:
            writer.writerow(
                [point.label]
                + [_cell(point.spec_flat.get(key)) for key in axis_columns]
                + [_cell(point.summary.get(key)) for key in summary_columns[1:]]
            )
    written.append(summary_path)

    if groups:
        replicates_path = out_dir / "replicates.csv"
        with replicates_path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            header = ["point", "replicates", "metric", "mean", "std", "min", "max"]
            if ci:
                header += ["ci95"]
            writer.writerow(header)
            for base in sorted(groups):
                members = groups[base]
                for row in _replicate_stats(base, members, ci):
                    line = [base, len(members)] + [
                        _cell(row.get(column))
                        for column in ("metric", "mean", "std", "min", "max")
                    ]
                    if ci:
                        line.append(_cell(row.get("ci95")))
                    writer.writerow(line)
        written.append(replicates_path)
    return written


def generate_report(
    directory: str | Path,
    out_dir: str | Path | None = None,
    include_timeline: bool = True,
    ci: bool = False,
) -> SweepReport:
    """Aggregate a sweep directory into a :class:`SweepReport`.

    When ``out_dir`` is given, ``report.md``, ``summary.csv``,
    ``replicates.csv`` (if the directory has replicate groups) and (if any
    timeline rows exist) ``timeline.csv`` are written there; the markdown is
    always available on the returned report.  ``ci=True`` adds the
    deterministic bootstrap confidence-interval column to the replicate
    aggregation.
    """
    directory = Path(directory)
    failed_all = _quarantined(directory, read_manifest(directory))
    paths = scan_artifact_paths(directory, allow_empty=bool(failed_all))
    timeline_writer = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        timeline_writer = _TimelineCsv(out_dir / "timeline.csv")
    try:
        points = [_read_point(path, timeline_writer, include_timeline) for path in paths]
    finally:
        if timeline_writer is not None:
            timeline_writer.close()
    return _assemble(directory, points, failed_all, include_timeline, ci, timeline_writer)


def _quarantined(directory: Path, manifest: dict | None) -> list[dict]:
    """Return the quarantined points: a finalized manifest's verdict, else the ledger's."""
    return manifest["failed"] if manifest else list(read_failures(directory).values())


def _assemble(directory, points, failed_all, include_timeline, ci, timeline_writer):
    """Render ``points``; with a ``timeline_writer``, write the tables beside its CSV."""
    # A point that failed on one attempt but later succeeded has an artifact;
    # its ledger lines are history, not a verdict.
    succeeded = {point.fingerprint for point in points}
    failed = [entry for entry in failed_all if entry["fingerprint"] not in succeeded]
    axes, groups, markdown = _render(
        directory, points, include_timeline, ci, failed, read_rounds(directory)
    )
    written: list[Path] = []
    if timeline_writer is not None:
        written = _write_tables(timeline_writer.path.parent, points, axes, groups, ci, markdown)
        if timeline_writer.rows:
            written.append(timeline_writer.path)
        else:
            timeline_writer.path.unlink()
    return SweepReport(
        directory=directory,
        points=points,
        axes=axes,
        markdown=markdown,
        written=written,
        failed=failed,
    )


# -- live watch ---------------------------------------------------------------


class ReportWatcher:
    """Incrementally tail a live stream directory, rebuilding the report.

    Each refresh reads only the index bytes appended since the last one —
    across ``index.jsonl`` *and* every ``index-<worker>.jsonl`` shard an
    older fleet run wrote, discovering index files that appear mid-run as
    it goes; torn tails are carried per file to the next refresh, exactly
    like the resume scan.  Every new entry's artifact is verified with the
    hash/fingerprint check resume uses
    (:func:`~repro.scenarios.stream.artifact_matches`), read once, and
    re-rendered.  Snapshots therefore match a one-shot
    :func:`generate_report` of the same partial directory, and once
    ``MANIFEST.json`` appears the final output is byte-identical to the
    one-shot report of the finished sweep.
    """

    def __init__(
        self,
        directory: str | Path,
        out_dir: str | Path | None = None,
        include_timeline: bool = True,
        ci: bool = False,
    ):
        self.directory = Path(directory)
        require(self.directory.is_dir(), f"not a sweep directory: {self.directory}")
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.include_timeline = include_timeline
        self.ci = ci
        self.complete = False
        self._offsets: dict[str, tuple[int, int]] = {}  # index filename -> (bytes, lines) read
        self._retry: list[dict] = []
        self._cache: dict[str, PointSummary] = {}  # artifact name -> point

    def _new_index_entries(self) -> list[dict]:
        """Return the entries appended to any index file since the last refresh.

        Files are visited in the deterministic merge order
        (:func:`~repro.scenarios.stream.index_paths`), each with its own byte
        offset, so a directory with older shard files tails exactly like one
        with a single index.
        """
        entries: list[dict] = []
        for index_path in index_paths(self.directory):
            offset, numbered = self._offsets.get(index_path.name, (0, 0))
            with index_path.open("rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
            # Only consume whole lines; a torn tail write stays unconsumed
            # and is re-read (hopefully completed) on the next refresh.
            cut = chunk.rfind(b"\n") + 1
            lines = chunk[:cut].splitlines()
            self._offsets[index_path.name] = (offset + cut, numbered + len(lines))
            entries.extend(iter_index_entries(index_path, lines, numbered + 1))
        return entries

    def _ingest(self, path: Path) -> None:
        self._cache[path.name] = _read_point(
            path, None, self.include_timeline, collect_rows=True
        )

    def refresh(self):
        """Pick up new index lines and re-render; return the new report.

        Returns ``None`` while the directory has no verified points yet.
        Sets :attr:`complete` once ``MANIFEST.json`` exists and every
        manifest entry has been read — the sweep is finished and the report
        final.
        """
        pending, self._retry = self._retry + self._new_index_entries(), []
        for entry in pending:
            name = entry["artifact"]
            if name in self._cache:
                continue
            if not artifact_matches(self.directory, entry):
                # Recorded but not (yet) verifiable — e.g. a resume is about
                # to overwrite a tampered artifact.  Try again next refresh.
                self._retry.append(entry)
                continue
            self._ingest(self.directory / name)

        manifest = read_manifest(self.directory)
        if manifest is not None:
            order = [entry["artifact"] for entry in manifest["entries"]]
            # A manifest can list points this watcher never saw land (they
            # were recorded before it attached); read the stragglers now —
            # through the same verification every indexed entry gets (the
            # manifest entry carries the sha256/fingerprint pair too).
            for entry in manifest["entries"]:
                name = entry["artifact"]
                if name not in self._cache and artifact_matches(self.directory, entry):
                    self._ingest(self.directory / name)
            names = [name for name in order if name in self._cache]
            self.complete = len(names) == len(order)
        else:
            names = sorted(self._cache)
        failed_all = _quarantined(self.directory, manifest)
        if not names and not failed_all:
            return None
        points = [self._cache[name] for name in names]
        timeline_writer = None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            timeline_writer = _TimelineCsv(self.out_dir / "timeline.csv")
            try:
                for point in points:
                    for row in point.raw_timeline:
                        timeline_writer.write_row(point.csv_label, row)
            finally:
                timeline_writer.close()
        return _assemble(
            self.directory, points, failed_all, self.include_timeline, self.ci, timeline_writer
        )


def watch_report(
    directory: str | Path,
    out_dir: str | Path | None = None,
    interval: float = 2.0,
    max_refreshes: int | None = None,
    include_timeline: bool = True,
    ci: bool = False,
    sleep=time.sleep,
    on_refresh=None,
):
    """Tail ``directory`` until its sweep completes; return the final report.

    Refreshes every ``interval`` seconds.  Stops when the stream's
    ``MANIFEST.json`` appears and every point has been read (the sweep
    finished), or after ``max_refreshes`` refreshes (mainly for tests and
    CI smoke — an abandoned sweep never completes).  ``on_refresh(watcher,
    report)`` fires after every refresh; ``report`` is ``None`` until the
    first point lands.
    """
    watcher = ReportWatcher(directory, out_dir=out_dir, include_timeline=include_timeline, ci=ci)
    refreshes = 0
    while True:
        report = watcher.refresh()
        refreshes += 1
        if on_refresh is not None:
            on_refresh(watcher, report)
        if watcher.complete or (max_refreshes is not None and refreshes >= max_refreshes):
            return report
        sleep(interval)
