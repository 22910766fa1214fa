"""Durable, crash-resumable sweep directories.

A streamed sweep writes one directory::

    <dir>/0003-<slug>.jsonl       one JSONL artifact per completed point
    <dir>/0003-<slug>.jsonl.gz    (the same, gzip-encoded, with compress=True)
    <dir>/index.jsonl             append-only completion log (one line per point)
    <dir>/failures.jsonl          append-only quarantine ledger (points that
                                  exhausted their retry budget; often absent)
    <dir>/rounds.jsonl            append-only adaptive-round ledger (decision
                                  per round of an adaptive sweep; absent for
                                  plain grids)
    <dir>/MANIFEST.json           canonical manifest, written on completion

Durability protocol, per finished point:

1. the artifact is written to a hidden temp file, flushed and fsync'd,
2. the temp file is atomically renamed to its final name (and the directory
   entry fsync'd), then
3. an index line (:class:`IndexEntry`) is appended to ``index.jsonl`` and
   fsync'd.

An index line therefore *implies* a complete artifact: a crash between (2)
and (3) leaves a finished artifact that is simply re-run on resume — and
because artifact bytes are a pure function of the spec
(:func:`~repro.scenarios.artifacts.run_bytes`, deterministic even when
gzip-compressed), the re-run overwrites it with identical content.
``index.jsonl`` records completion order, which differs between serial,
parallel and resumed executions; the canonical, byte-stable view of a
finished sweep is the artifact files plus ``MANIFEST.json`` *modulo the cost
columns* — ``wall_clock_s`` / ``step_cost_s`` are observed timings, so
:func:`strip_costs` removes them before any identity comparison.

The coordinating process is the only writer, on every executor backend:
workers return ``(record, wall_clock_s)`` pairs and the coordinator appends
each artifact, each ``index.jsonl`` line and the manifest.  Directories
written before that rule may also hold per-worker ``index-<worker>.jsonl``
shards (same line format), so every reader — resume, ``repro report``,
``--watch``, manifest finalization — goes through the deterministic merge
:func:`iter_all_index_entries`: ``index.jsonl`` first, then any shards in
sorted filename order, lines in file order, *last write wins* per
fingerprint.  Such a directory resumes and reports exactly like one with a
single index.

Every ledger line and ``MANIFEST.json`` parses through a ``Document`` class
below and is returned as a dict holding every field; a torn ledger line is
skipped, a line of the wrong shape refused naming ``<path>:<line>``.

Resumption keys on :meth:`~repro.scenarios.spec.ScenarioSpec.fingerprint`
(canonical-JSON SHA-256): a point is skipped iff its fingerprint appears in
the merged index *and* its artifact file is still present with exactly the
recorded bytes (the index line also carries a whole-file SHA-256).  The
recorded wall-clock costs feed :func:`order_most_expensive_first`, which lets a
resume schedule its missing points longest-first so parallel stragglers
finish sooner.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.scenarios.artifacts import artifact_name, maybe_decompress, run_bytes
from repro.scenarios.runner import RunRecord
from repro.scenarios.spec import canonical_fingerprint
from repro.scenarios.sweep import flatten_dotted, split_replicate
from repro.util.validation import Document, read_jsonl, require, require_in

INDEX_NAME = "index.jsonl"
MANIFEST_NAME = "MANIFEST.json"


# -- line records ---------------------------------------------------------------


def _require_bare_name(name: str, field_name: str) -> None:
    """Require an artifact name that stays inside its sweep directory."""
    bare = name not in ("", ".", "..") and Path(name).name == name
    require(bare, f"{field_name} must be a bare file name, got {name!r}")


@dataclass(frozen=True)
class IndexEntry(Document):
    """An ``index.jsonl`` line or ``MANIFEST.json`` entry; older ones lack later columns."""

    artifact: str
    index: int | None = None
    fingerprint: str | None = None
    label: str | None = None
    sha256: str | None = None
    replicate: int | None = None
    timesteps: int | None = None
    wall_clock_s: object = None
    step_cost_s: object = None

    def validate(self) -> "IndexEntry":
        _require_bare_name(self.artifact, "artifact")
        return self


@dataclass(frozen=True)
class FailureEntry(Document):
    """A ``failures.jsonl`` line or an entry of the manifest's ``failed`` section."""

    fingerprint: str
    index: int
    label: str | None = None
    attempts: int | None = None
    error: str | None = None
    wall_clock: float | None = None


@dataclass(frozen=True)
class Manifest(Document):
    """``MANIFEST.json``: a finished sweep's points in submission order."""

    entries: list[IndexEntry]
    points: int | None = None
    compressed: bool | None = None
    failed: list[FailureEntry] = field(default_factory=list)

    def validate(self) -> "Manifest":
        for i, entry in enumerate(self.entries):
            _require_bare_name(entry.artifact, f"entries[{i}].artifact")
        return self


@dataclass(frozen=True)
class HalvingBudget(Document):
    """A halving round's replicates and timesteps per point."""

    replicates: int | None = None
    timesteps: int | None = None


@dataclass(frozen=True)
class ArmScore(Document):
    """One arm's mean objective in a halving round; ``arm`` is its axis value."""

    arm: object
    score: float
    points: int | None = None


@dataclass(frozen=True)
class StopDecision(Document):
    """One base point's verdict in a replicate-stopping round."""

    status: str
    half_width: float
    point: str | None = None
    replicates: int | None = None
    mean: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None


@dataclass(frozen=True)
class AdaptiveRound(Document):
    """A ``rounds.jsonl`` line: a successive-halving or replicate-stopping round.

    A halving round fills ``axis`` through ``survivors``, a stopping round
    ``metric`` through ``decisions``; the rest keep their defaults.
    """

    round: int
    mode: str
    axis: str | None = None
    objective: str | None = None
    minimize: bool = True
    budget: HalvingBudget = HalvingBudget()
    scores: list[ArmScore] = field(default_factory=list)
    survivors: list = field(default_factory=list)
    metric: str | None = None
    target_half_width: float | None = None
    decisions: list[StopDecision] = field(default_factory=list)

    def validate(self) -> "AdaptiveRound":
        require_in(self.mode, ("halving", "stopping"), "mode")
        return self


def _read_ledger(path: Path, parse, lines=None, start: int = 1):
    """Yield a ledger's entries as dicts, skipping torn (unparseable) lines.

    ``lines``, when given, is a slice of the file whose first line is ``start``.
    """
    if lines is None:
        lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    for entry in read_jsonl(lines, path, parse, skip_unparseable=True, start=start):
        yield entry.to_dict()


def is_index_name(name: str) -> bool:
    """Return whether ``name`` is ``index.jsonl`` or an older worker shard of it."""
    return name == INDEX_NAME or (
        name.startswith("index-") and name.endswith(".jsonl")
    )


def shard_index_paths(directory: Path) -> list[Path]:
    """Return the directory's ``index-*.jsonl`` shards in merge (sorted-name) order."""
    return sorted(Path(directory).glob("index-*.jsonl"))


def index_paths(directory: Path) -> list[Path]:
    """Return every index file present, ``index.jsonl`` first, then shards in order.

    This list *is* the merge order: readers that fold entries into a dict
    keyed by fingerprint get last-write-wins determinism for free.
    """
    directory = Path(directory)
    paths = []
    if (directory / INDEX_NAME).exists():
        paths.append(directory / INDEX_NAME)
    paths.extend(shard_index_paths(directory))
    return paths


def iter_all_index_entries(directory: Path):
    """Yield every index entry of a directory in deterministic merge order.

    ``index.jsonl`` entries first, then each ``index-<worker>.jsonl`` shard
    an older fleet run left, in sorted filename order, lines in file order —
    so consumers that keep the last entry per fingerprint agree across
    processes and runs.
    Torn tails and unparseable lines are skipped per file, exactly like
    :func:`iter_index_entries`.
    """
    for path in index_paths(directory):
        yield from iter_index_entries(path)


def read_manifest(directory: Path) -> dict | None:
    """Return the directory's :class:`Manifest` as a dict, or ``None`` when it has none.

    A malformed manifest raises ``ValueError`` naming the path and the field.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        return None
    try:
        return Manifest.from_json(path.read_text(encoding="utf-8")).validate().to_dict()
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


#: Append-only adaptive-round ledger: one fsync'd :class:`AdaptiveRound` line
#: per completed round, written by :mod:`repro.scenarios.adaptive`.  It holds
#: no timing data, so interrupted and uninterrupted runs write the same bytes.
ROUNDS_NAME = "rounds.jsonl"


def rounds_path(directory: Path) -> Path:
    """Return the adaptive-round ledger's path inside a stream directory."""
    return Path(directory) / ROUNDS_NAME


def read_rounds(directory: Path) -> list[dict]:
    """Return the round ledger's entries in append (= round) order.

    Torn tails are skipped like the index scan's: a crash mid-append loses
    at most the line being written, and the resumed driver re-derives and
    re-appends it.
    """
    return list(_read_ledger(rounds_path(directory), AdaptiveRound.from_dict))


def record_round(directory: Path, entry: dict) -> dict:
    """Durably append one adaptive-round decision, or verify its replay.

    The ledger is append-only and per-line fsync'd like the index.  A
    resumed adaptive run re-derives every round's decision from the recorded
    summary rows; when the ledger already holds this round, the re-derived
    entry must match the recorded one exactly — a divergence means the
    directory was produced under a different adaptive configuration (or
    edited), and refusing loudly beats silently forking the schedule.
    """
    # Compare through a JSON round-trip so the in-memory entry and its
    # recorded line are held to the same representation (tuples vs lists,
    # float formatting).
    canonical = json.loads(json.dumps(entry, sort_keys=True))
    parsed = AdaptiveRound.from_dict(canonical).validate().to_dict()
    for recorded in read_rounds(directory):
        if recorded["round"] == parsed["round"]:
            require(
                recorded == parsed,
                f"{rounds_path(directory)} already records round "
                f"{parsed['round']} with a different decision; this directory "
                f"was produced under a different adaptive configuration — "
                f"refusing to diverge from its recorded schedule",
            )
            return canonical
    path = rounds_path(directory)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    return canonical


#: Append-only quarantine ledger: one fsync'd :class:`FailureEntry` line per
#: point that exhausted its retry budget.  A later successful record of the
#: same fingerprint supersedes its failure lines — the ledger is history,
#: ``MANIFEST.json``'s ``failed`` section is the current verdict.
FAILURES_NAME = "failures.jsonl"


def read_failures(directory: Path, exclude=()) -> dict:
    """Return ``fingerprint -> ledger entry`` for every quarantined point, in index order.

    The *last* ``failures.jsonl`` line per fingerprint wins (a point retried
    and re-quarantined across resumes keeps its freshest attempt count).
    Fingerprints in ``exclude`` — typically :meth:`SweepStream.completed`'s
    map — are dropped: a recorded success supersedes any earlier failure.
    """
    path = Path(directory) / FAILURES_NAME
    entries = {entry["fingerprint"]: entry for entry in _read_ledger(path, FailureEntry.from_dict)}
    order = sorted(entries, key=lambda fp: (entries[fp]["index"], entries[fp]["label"] or ""))
    return {fp: entries[fp] for fp in order if fp not in exclude}


#: Per-entry manifest/index columns that record observed execution cost.
#: They are the only nondeterministic bytes a finished sweep directory
#: carries, so identity checks compare manifests through :func:`strip_costs`.
COST_KEYS = ("wall_clock_s", "step_cost_s")


def strip_costs(manifest: dict) -> dict:
    """Return ``manifest`` with the per-entry cost columns removed.

    Serial, parallel and resumed runs of one sweep produce manifests that
    are identical *after* this projection; the cost columns themselves are
    timing observations and legitimately differ run to run.
    """
    return {
        **manifest,
        "entries": [
            {key: value for key, value in entry.items() if key not in COST_KEYS}
            for entry in manifest.get("entries", [])
        ],
    }


def iter_index_entries(index_path: Path, lines=None, start: int = 1):
    """Yield an index file's entries as :class:`IndexEntry` dicts, skipping torn lines."""
    yield from _read_ledger(index_path, IndexEntry.from_dict, lines, start)


def detect_compression(directory: Path) -> bool | None:
    """Return the compression a directory's recorded artifacts use, if any.

    The index (``index.jsonl`` or any older worker shard) is authoritative
    (its artifact names reflect what the writer produced); a directory with
    artifacts but no index falls back to the filenames on disk.  ``None``
    means no evidence either way (fresh or empty directory).
    """
    directory = Path(directory)
    for entry in iter_all_index_entries(directory):
        return entry["artifact"].endswith(".gz")
    has_gz = any(directory.glob("[0-9]*.jsonl.gz"))
    has_plain = any(directory.glob("[0-9]*.jsonl"))
    # With no index verdict, a directory holding BOTH encodings is ambiguous;
    # guessing either way would mix encodings within one sweep (or misread
    # half the artifacts), so refuse loudly instead.
    require(
        not (has_gz and has_plain),
        f"{directory} mixes .jsonl and .jsonl.gz artifacts and its index "
        f"records no verdict; refusing to guess the sweep's encoding",
    )
    if has_gz:
        return True
    if has_plain:
        return False
    return None


def artifact_matches(directory: Path, entry: dict) -> bool:
    """Verify an index or manifest entry's artifact exists with exactly the recorded bytes.

    The whole-file hash catches tampering anywhere in the artifact, not
    just the spec line; the spec-line fingerprint check additionally ties
    the file to the *point* (a foreign artifact renamed into place fails
    even if internally consistent).
    """
    artifact = Path(directory) / entry["artifact"]
    if not artifact.is_file():
        return False
    try:
        data = artifact.read_bytes()
        first = json.loads(maybe_decompress(data).split(b"\n", 1)[0])
    except (OSError, EOFError, zlib.error, json.JSONDecodeError):
        # OSError covers unreadable files and bad gzip headers; EOFError/
        # zlib.error cover a truncated or corrupted compressed stream.
        return False
    if hashlib.sha256(data).hexdigest() != entry["sha256"] or first.get("kind") != "spec":
        return False
    return canonical_fingerprint(first.get("data", {})) == entry["fingerprint"]


def _fsync_directory(directory: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    POSIX-only: Windows neither allows opening a directory with os.open nor
    needs the directory-entry fsync for rename durability, so this step is
    simply skipped there (the file-content fsyncs still apply).
    """
    if os.name == "nt":  # pragma: no cover - POSIX CI
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_durable(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via fsync'd temp file + atomic rename."""
    temp = path.parent / f".tmp-{path.name}"
    with temp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    # os.replace, not Path.rename: a resume re-running a point whose artifact
    # survived an earlier crash must overwrite it on every platform
    # (Path.rename raises FileExistsError on Windows).
    os.replace(temp, path)
    _fsync_directory(path.parent)


@dataclass(frozen=True)
class StreamResult:
    """Outcome of a streamed (possibly resumed) :func:`run_scenarios` call.

    ``paths`` lists every *successful* point's artifact in submission order —
    both the freshly executed and the resumed-over points, so downstream code
    does not care which were which.  ``failed`` counts the quarantined points
    (this run's plus any carried over by a resume); a fault-free sweep has
    ``failed == 0`` and ``executed + skipped == len(paths)`` exactly as
    before.
    """

    directory: Path
    paths: list
    executed: int
    skipped: int
    failed: int = 0

    @property
    def total(self) -> int:
        """Return the number of points in the sweep (including quarantined)."""
        return len(self.paths) + self.failed

    @property
    def failures_path(self) -> Path:
        """Return the quarantine ledger's path (may not exist)."""
        return self.directory / FAILURES_NAME

    @property
    def index_path(self) -> Path:
        """Return the append-only completion log's path."""
        return self.directory / INDEX_NAME

    @property
    def manifest_path(self) -> Path:
        """Return the canonical manifest's path."""
        return self.directory / MANIFEST_NAME


class SweepStream:
    """One streamed sweep directory: durable writes, resumable reads.

    ``compress`` selects gzip artifact encoding for new writes.  ``None``
    (the default) auto-detects from what the directory already records —
    resuming a compressed sweep keeps compressing without being told — and
    falls back to uncompressed for a fresh directory.  An explicit value
    that contradicts the directory's recorded format is an error: mixing
    encodings within one sweep would break byte-identity with a serial run.

    Writes go to ``index.jsonl``; reads — :meth:`completed`, compression
    detection — also merge any ``index-<worker>.jsonl`` shards an older
    fleet run left in the directory.
    """

    def __init__(self, directory: str | Path, compress: bool | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        detected = detect_compression(self.directory)
        require(
            compress is None or detected is None or compress == detected,
            f"{self.directory} already records "
            f"{'compressed' if detected else 'uncompressed'} artifacts; "
            f"compress={compress} would mix encodings within one sweep",
        )
        self.compress = detected if compress is None else compress
        if self.compress is None:
            self.compress = False
        self._index_handle = None
        self._failures_handle = None
        # Entries recorded by *this* stream object — trusted without
        # re-reading the files back (we just wrote and fsync'd them), so
        # finalizing a fresh run never rescans the directory.
        self._recorded: dict[str, dict] = {}
        # Failures quarantined by *this* stream object (fingerprint -> ledger
        # entry); superseded by a later successful record of the same point.
        self._failed: dict[str, dict] = {}

    @property
    def index_path(self) -> Path:
        """Return the index file this stream appends to."""
        return self.directory / INDEX_NAME

    def index_paths(self) -> list[Path]:
        """Return every index file present, in deterministic merge order."""
        return index_paths(self.directory)

    @property
    def manifest_path(self) -> Path:
        """Return the path of the canonical manifest file."""
        return self.directory / MANIFEST_NAME

    @property
    def failures_path(self) -> Path:
        """Return the path of the append-only quarantine ledger."""
        return self.directory / FAILURES_NAME

    # -- writing --------------------------------------------------------------

    def record(self, index: int, record: RunRecord, wall_clock_s: float | None = None) -> Path:
        """Durably persist one finished point; return its artifact path.

        Appends nothing until the artifact itself is safely on disk — see the
        module docstring for the crash-ordering argument.  ``wall_clock_s``
        is the point's measured execution time; it lands in the index (and
        later the manifest) as the ``wall_clock_s`` / ``step_cost_s`` cost
        columns, never in the artifact itself — artifact bytes stay a pure
        function of the spec.
        """
        fingerprint = record.spec.fingerprint()
        path = self.directory / artifact_name(index, record.spec.label, self.compress)
        data = run_bytes(record, compress=self.compress)
        _write_durable(path, data)
        # Cost accounting divides by the steps the run *executed* (the
        # summary's ``steps`` column), not the steps the spec requested: a
        # run truncated early (an adversary that ran out of events, a
        # min-nodes stop) would otherwise under-report its per-step cost.
        # A run that stopped at step 0 executed nothing divisible — its
        # step cost is None, never a ZeroDivisionError or inf.
        timesteps = record.summary.get("steps")
        if not (
            isinstance(timesteps, int)
            and not isinstance(timesteps, bool)
            and timesteps >= 0
        ):
            timesteps = record.spec.timesteps
        entry = {
            "index": index,
            "fingerprint": fingerprint,
            "artifact": path.name,
            "label": record.spec.label,
            "sha256": hashlib.sha256(data).hexdigest(),
            "replicate": split_replicate(record.spec.label)[1],
            "wall_clock_s": wall_clock_s,
            "timesteps": timesteps,
            "step_cost_s": (
                wall_clock_s / timesteps if wall_clock_s is not None and timesteps else None
            ),
        }
        if self._index_handle is None:
            self._index_handle = self.index_path.open("a", encoding="utf-8")
        self._index_handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._index_handle.flush()
        os.fsync(self._index_handle.fileno())
        self._recorded[fingerprint] = entry
        return path

    def record_failure(self, index: int, spec, attempts: int, error: BaseException) -> dict:
        """Durably quarantine one point that exhausted its retries.

        Appends one fsync'd line to ``failures.jsonl`` — fingerprint, label,
        attempt count, exception repr and wall clock — and returns the
        entry.  The wall clock is observational (it never reaches the
        manifest); everything else is deterministic under a seeded fault
        schedule, so the manifest's ``failed`` section participates in
        identity comparisons the way :func:`strip_costs` entries do.
        """
        entry = {
            "index": index,
            "fingerprint": spec.fingerprint(),
            "label": spec.label,
            "attempts": attempts,
            "error": repr(error),
            "wall_clock": time.time(),
        }
        if self._failures_handle is None:
            self._failures_handle = self.failures_path.open("a", encoding="utf-8")
        self._failures_handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._failures_handle.flush()
        os.fsync(self._failures_handle.fileno())
        self._failed[entry["fingerprint"]] = entry
        return entry

    def close(self) -> None:
        """Close the index and failure-ledger handles (idempotent)."""
        if self._index_handle is not None:
            self._index_handle.close()
            self._index_handle = None
        if self._failures_handle is not None:
            self._failures_handle.close()
            self._failures_handle = None

    def __enter__(self) -> "SweepStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- resuming -------------------------------------------------------------

    def completed(self, entries=None) -> dict:
        """Return ``fingerprint -> index entry`` for every verified point.

        A point counts as completed only if its index line parses and its
        artifact passes :func:`artifact_matches` — so deleting or tampering
        with an artifact (any line of it) re-runs exactly that point.  Torn
        index lines (from a crash) are ignored.  The scan merges
        ``index.jsonl`` with any older worker shard
        (:func:`iter_all_index_entries`, or ``entries`` already read from
        it), the last verified entry per fingerprint winning
        deterministically.
        """
        if entries is None:
            entries = iter_all_index_entries(self.directory)
        return {
            entry["fingerprint"]: entry
            for entry in entries
            if artifact_matches(self.directory, entry)
        }

    # -- finishing ------------------------------------------------------------

    def finalize(self, specs, verified: dict | None = None, failed: dict | None = None) -> dict:
        """Write ``MANIFEST.json`` for a fully recorded sweep; return the manifest.

        The manifest lists every successful point in submission order with
        its fingerprint, artifact name, replicate id and cost columns, plus
        a ``failed`` section listing every quarantined point (index,
        fingerprint, label, attempts, exception repr — no wall clock, so
        under a deterministic fault schedule the section is byte-stable).
        Everything except the cost columns is a deterministic function of
        the spec list and the failure history, so serial, parallel and
        resumed runs of the same sweep produce manifests identical under
        :func:`strip_costs`.  Raises if any point is neither recorded nor
        quarantined (the sweep is not actually finished).

        ``verified`` is the ``fingerprint -> entry`` map of pre-existing
        points already checked by :meth:`completed` (the resume path passes
        the map it scanned before executing); ``failed`` is the carried-over
        quarantine map from :func:`read_failures`.  Entries recorded or quarantined
        by this stream object are trusted as-is and win over carried maps;
        a success always supersedes a failure.  When ``verified`` is
        omitted the directory is scanned — only then does finalizing
        re-read artifacts.
        """
        completed = dict(self.completed() if verified is None else verified)
        completed.update(self._recorded)
        failed_map = dict(failed or {})
        failed_map.update(self._failed)
        entries = []
        failed_entries = []
        missing = []
        for index, spec in enumerate(specs):
            fingerprint = spec.fingerprint()
            if fingerprint in completed:
                # The recorded artifact name normally equals
                # artifact_name(index, spec.label); it differs only when a
                # resume reordered the spec list, and then the recorded name
                # is the one that exists on disk.
                recorded = completed[fingerprint]
                entries.append(
                    {
                        "index": index,
                        "fingerprint": fingerprint,
                        "artifact": recorded["artifact"],
                        "label": spec.label,
                        "sha256": recorded.get("sha256"),
                        "replicate": split_replicate(spec.label)[1],
                        "wall_clock_s": recorded.get("wall_clock_s"),
                        "step_cost_s": recorded.get("step_cost_s"),
                    }
                )
                continue
            if fingerprint in failed_map:
                quarantined = failed_map[fingerprint]
                failed_entries.append(
                    {
                        "index": index,
                        "fingerprint": fingerprint,
                        "label": spec.label,
                        "attempts": quarantined.get("attempts"),
                        "error": quarantined.get("error"),
                    }
                )
                continue
            missing.append(index)
        require(
            not missing,
            f"cannot finalize sweep stream at {self.directory}: "
            f"points {missing} have no recorded artifact",
        )
        manifest = {
            "points": len(entries),
            "compressed": self.compress,
            "entries": entries,
            "failed": failed_entries,
        }
        _write_durable(
            self.manifest_path,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        return manifest


# -- cost-aware resume scheduling ---------------------------------------------

#: Above this many (missing x completed) pairs the neighbor scan would cost
#: more than it saves; scheduling falls back to submission order.
_NEIGHBOR_SCAN_LIMIT = 1_000_000


def order_most_expensive_first(spec_list, fingerprints, completed, todo):
    """Order the missing point indices by estimated cost, descending.

    Each missing point's wall clock is estimated from its *neighbors along
    the varying axes* — completed points whose flattened specs differ from
    it in at most one varying key (``name`` excluded; a replicate's siblings
    differ only in ``seed`` and so count as neighbors).  Points with no
    neighbor fall back to the mean completed cost.  Ties keep submission
    order, so the schedule is deterministic; execution order only affects
    ``index.jsonl``, never artifact bytes.
    """
    known: dict[int, float] = {}
    for index, fingerprint in enumerate(fingerprints):
        entry = completed.get(fingerprint)
        cost = entry.get("wall_clock_s") if entry else None
        # A torn or hand-edited index line can carry any JSON number — NaN,
        # inf, or a negative — and a single such entry would otherwise poison
        # every neighbor estimate (NaN propagates through the mean; -inf
        # pins its neighbors last).  Costs are wall clocks: finite and
        # non-negative, or ignored.
        if (
            isinstance(cost, (int, float))
            and not isinstance(cost, bool)
            and math.isfinite(cost)
            and cost >= 0.0
        ):
            known[index] = float(cost)
    todo = list(todo)
    if not known or not todo:
        return todo
    if len(known) * len(todo) > _NEIGHBOR_SCAN_LIMIT:
        return todo
    flats = {index: flatten_dotted(spec_list[index].to_dict()) for index in (*known, *todo)}
    for flat in flats.values():
        flat.pop("name", None)
    indices = sorted(flats)
    keys = sorted({key for flat in flats.values() for key in flat})
    # Keys that take identical value-partitions across the grid are one
    # effective axis (e.g. a kappa sweep moves both healer_kwargs.kappa and
    # the synced run-parameter kappa) — count them as a single difference.
    signatures: dict[tuple, str] = {}
    for key in keys:
        signature = tuple(
            json.dumps(flats[index].get(key), sort_keys=True) for index in indices
        )
        if len(set(signature)) > 1:
            signatures.setdefault(signature, key)
    axes = list(signatures.values())
    mean_cost = sum(known.values()) / len(known)

    def estimate(missing: int) -> float:
        target = flats[missing]
        neighbors = [
            cost
            for index, cost in known.items()
            if sum(1 for key in axes if flats[index].get(key) != target.get(key)) <= 1
        ]
        return sum(neighbors) / len(neighbors) if neighbors else mean_cost

    return sorted(todo, key=lambda index: (-estimate(index), index))
