"""Persisted run artifacts: JSONL save/load and bit-identical replay.

An artifact is one JSONL file describing one run completely::

    {"kind": "spec",        "data": {...ScenarioSpec...}}
    {"kind": "summary",     "data": {...summary_row()...}}
    {"kind": "timeline",    "data": {...one timeline row...}}   (0+ lines)
    {"kind": "event",       "data": {...one trace event...}}    (0+ lines)
    {"kind": "cache_stats", "data": {...engine counters...}}

Every line is an :class:`ArtifactLine`, a timeline line's data a
:class:`~repro.scenarios.runner.TimelineRow`, and an event line's data a
:class:`~repro.scenarios.runner.ChurnEvent` when it replays; a line that is
not raises ``ValueError`` naming ``<path>:<line>`` and the field.

The spec says *how* the run was produced; the event lines say *what* the
adversary did.  Replay therefore does not need the original adversary at
all: it compiles the spec and runs it through
:func:`~repro.harness.experiment.run_experiment` with a
:class:`~repro.adversary.correlated.RecordedAdversary` playing back the
recorded events, which reproduces the original ``summary_row()`` exactly
(same metric fidelity, same engine seed; on the dense spectral path,
n <= sparse_threshold, the computation is bitwise deterministic).  Event
lines carry no timestep, so a batched run replays one event per timestep;
the summary row does not depend on batch boundaries.  Replay is strict: an
event that cannot apply raises a ``ValidationError`` naming the node.

Artifacts may be gzip-compressed (``.jsonl.gz``) for million-point sweep
directories.  Compression is an encoding of the same bytes, never a
different document: :func:`gzip_bytes` is deterministic (fixed level, zeroed
mtime) and ``gzip.decompress`` of a compressed artifact equals the
uncompressed artifact exactly.  Every reader — :func:`iter_artifact`,
:func:`load_run`, replay, resume verification, the report generator — goes
through :func:`open_artifact`, which sniffs the gzip magic bytes rather than
trusting the filename, so mixed and hand-renamed directories still read
correctly.
"""

from __future__ import annotations

import gzip
import json
import re
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

#: The two magic bytes every gzip stream starts with (RFC 1952).
GZIP_MAGIC = b"\x1f\x8b"

#: Fixed compression level: byte-determinism across serial/parallel/resumed
#: runs requires every writer to produce identical compressed bytes for
#: identical inputs (level 6 is zlib's speed/size sweet spot for JSONL).
GZIP_LEVEL = 6

#: The line kinds :func:`run_lines` writes; the ``data`` of each is an object.
ARTIFACT_KINDS = ("spec", "summary", "timeline", "event", "cache_stats")

from repro.harness.experiment import ExperimentResult, run_experiment
from repro.scenarios.runner import ChurnEvent, RunRecord, TimelineRow
from repro.scenarios.spec import ScenarioSpec
from repro.util.validation import Document, read_jsonl, require, require_in


@dataclass(frozen=True)
class ArtifactLine(Document):
    """An artifact line: a ``kind`` from :data:`ARTIFACT_KINDS` and its ``data``.

    A spec line's data must be a :class:`ScenarioSpec` and a timeline line's
    a :class:`TimelineRow`, their errors naming the field bare (``name must
    be a string``) as a spec file's do.
    """

    kind: str
    data: dict

    def validate(self) -> "ArtifactLine":
        require_in(self.kind, ARTIFACT_KINDS, "kind")
        if self.kind == "spec":
            ScenarioSpec.from_dict(self.data)
        elif self.kind == "timeline":
            TimelineRow.from_dict(self.data)
        return self


def run_lines(record: RunRecord) -> list[str]:
    """Serialize ``record`` to its JSONL artifact lines (no trailing newline).

    This is the single source of artifact bytes: :func:`save_run` and the
    streaming sweep writer (:mod:`repro.scenarios.stream`) both emit exactly
    these lines, which is what makes buffered, streamed and resumed sweep
    outputs byte-identical.
    """
    lines: list[str] = []

    def add(kind: str, data) -> None:
        lines.append(json.dumps({"kind": kind, "data": data}, sort_keys=True))

    add("spec", record.spec.to_dict())
    add("summary", record.summary)
    for row in record.timeline:
        add("timeline", row)
    for event in record.trace:
        add("event", event)
    add("cache_stats", record.cache_stats)
    return lines


def run_bytes(record: RunRecord, compress: bool = False) -> bytes:
    """Return ``record``'s artifact file bytes, optionally gzip-compressed.

    The uncompressed bytes are exactly :func:`run_lines` joined with
    newlines; the compressed bytes are their deterministic
    :func:`gzip_bytes` encoding — so ``gzip.decompress(run_bytes(r, True))
    == run_bytes(r, False)`` always holds.
    """
    data = ("\n".join(run_lines(record)) + "\n").encode("utf-8")
    return gzip_bytes(data) if compress else data


def gzip_bytes(data: bytes) -> bytes:
    """Compress ``data`` deterministically (fixed level, mtime pinned to 0).

    A default ``gzip.compress`` stamps the current time into the header,
    which would make byte-identical re-runs impossible; zeroing it keeps
    compressed artifacts a pure function of their content.
    """
    return gzip.compress(data, compresslevel=GZIP_LEVEL, mtime=0)


def maybe_decompress(data: bytes) -> bytes:
    """Return ``data`` gunzipped when it carries the gzip magic, else as-is."""
    return gzip.decompress(data) if data[:2] == GZIP_MAGIC else data


def open_artifact(path: str | Path):
    """Open an artifact for text reading, sniffing gzip by magic bytes.

    This is the single auto-detection point all artifact readers share:
    a ``.jsonl`` and a ``.jsonl.gz`` with the same decompressed content are
    indistinguishable to every consumer downstream of here.
    """
    path = Path(path)
    with path.open("rb") as probe:
        magic = probe.read(2)
    if magic == GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8")


def save_run(record: RunRecord, path: str | Path) -> Path:
    """Write ``record`` to ``path`` as a JSONL artifact; return the path.

    A ``.gz`` suffix selects the deterministic gzip encoding; the readers
    sniff, so both forms replay and report identically.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(run_bytes(record, compress=path.suffix == ".gz"))
    return path


def iter_artifact(path: str | Path):
    """Yield ``(kind, data)`` per artifact line without building a RunRecord.

    This is the memory-bounded read path: the report generator consumes
    sweep directories one line at a time, so aggregate tables over thousands
    of points never hold more than one artifact's worth of rows.  Compressed
    artifacts are decompressed on the fly (see :func:`open_artifact`).
    Every line must be an :class:`ArtifactLine`.
    """
    path = Path(path)
    with open_artifact(path) as handle:
        for line in read_jsonl(handle, path, ArtifactLine.from_dict):
            yield line.kind, line.data


def load_run(path: str | Path) -> RunRecord:
    """Read a JSONL artifact back into a :class:`RunRecord` whose events replay."""
    path = Path(path)

    def parse(data) -> ArtifactLine:
        line = ArtifactLine.from_dict(data)
        if line.kind == "event":
            ChurnEvent.from_dict(line.data).validate()
        return line

    lines: dict[str, list] = {kind: [] for kind in ARTIFACT_KINDS}
    with open_artifact(path) as handle:
        for line in read_jsonl(handle, path, parse):
            lines[line.kind].append(line.data)
    require(lines["spec"], f"artifact {path} has no 'spec' line")
    require(lines["summary"], f"artifact {path} has no 'summary' line")
    return RunRecord(
        spec=ScenarioSpec.from_dict(lines["spec"][-1]),
        summary=lines["summary"][-1],
        timeline=lines["timeline"],
        trace=lines["event"],
        cache_stats=(lines["cache_stats"] or [{}])[-1],
    )


def artifact_name(index: int, label: str, compress: bool = False) -> str:
    """Return a filesystem-safe artifact filename for one sweep point."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-") or "run"
    return f"{index:04d}-{slug}.jsonl" + (".gz" if compress else "")


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying a persisted run artifact."""

    record: RunRecord
    result: ExperimentResult
    replayed_summary: dict

    @property
    def identical(self) -> bool:
        """Return whether the replayed summary matches the recorded one exactly."""
        return self.replayed_summary == self.record.summary

    def differences(self) -> dict:
        """Return ``column -> (recorded, replayed)`` for every mismatch."""
        keys = set(self.record.summary) | set(self.replayed_summary)
        return {
            key: (self.record.summary.get(key), self.replayed_summary.get(key))
            for key in sorted(keys)
            if self.record.summary.get(key) != self.replayed_summary.get(key)
        }


def replay_artifact(path: str | Path) -> ReplayReport:
    """Re-execute the run persisted at ``path`` and compare summaries.

    The artifact's spec is compiled as-is — same healer, topology, metric
    fidelity, cadences and engine seed — and only the adversary is swapped
    for a :class:`~repro.adversary.correlated.RecordedAdversary` playing back
    the recorded events one per timestep, labelled with the recorded
    adversary name.  ``timesteps`` becomes the event count, so a batched
    run, which has more events than timesteps, replays in full.
    """
    # Imported here: the adversary package reaches back into the harness
    # through repro.scenarios.runner, so a module-level import would cycle.
    from repro.adversary.correlated import RecordedAdversary

    record = load_run(path)
    events = record.events()
    config = replace(
        record.spec.compile(),
        adversary_factory=partial(
            RecordedAdversary, events, label=record.summary.get("adversary")
        ),
        timesteps=max(1, len(events)),
    )
    result = run_experiment(config)
    return ReplayReport(record=record, result=result, replayed_summary=dict(result.summary_row()))
