"""The JSONL churn-trace format: recorded workloads as first-class scenarios.

A churn trace is a plain-text JSONL file — one adversarial event per line —
that the ``trace-replay`` adversary (:mod:`repro.adversary.correlated`) can
play back deterministically.  Line schema::

    {"neighbors": [...], "node": 7, "step": 3, "type": "delete"}

``type``/``node``/``neighbors`` are exactly the artifact trace dialect of
:func:`repro.scenarios.runner.event_to_dict`; the optional ``step`` is the
1-based timestep the event belonged to in the recording run.  Consecutive
lines sharing a ``step`` value form one atomic batch on replay (a correlated
domain kill stays a domain kill); lines without ``step`` replay one per
timestep.  Each line is a :class:`~repro.scenarios.runner.ChurnEvent`.

Encoding is canonical — sorted keys, compact separators, ``\\n`` line
endings, trailing newline — so a trace's bytes are a pure function of its
events: record → replay → re-record round-trips byte-identically, which is
what the hypothesis suite pins.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.adversary.base import AdversaryEvent
from repro.scenarios.runner import ChurnEvent, event_to_dict
from repro.util.validation import read_jsonl, require


def encode_churn_line(event: AdversaryEvent, step: int | None = None) -> str:
    """Return one event's canonical churn-trace line (no trailing newline)."""
    data = event_to_dict(event)
    if step is not None:
        data["step"] = int(step)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def churn_trace_bytes(
    events: Sequence[AdversaryEvent], steps: Sequence[int] | None = None
) -> bytes:
    """Serialize a whole trace to its canonical bytes.

    ``steps``, when given, must parallel ``events`` (one timestep per event);
    pass :attr:`~repro.harness.experiment.ExperimentResult.event_steps` to
    preserve a batched run's grouping.
    """
    if steps is not None:
        require(
            len(steps) == len(events),
            f"steps ({len(steps)}) must parallel events ({len(events)})",
        )
        lines = [encode_churn_line(event, step) for event, step in zip(events, steps)]
    else:
        lines = [encode_churn_line(event) for event in events]
    return ("".join(line + "\n" for line in lines)).encode("utf-8")


def write_churn_trace(
    events: Sequence[AdversaryEvent],
    path: str | Path,
    steps: Sequence[int] | None = None,
) -> Path:
    """Write a churn trace to ``path`` in canonical form; returns the path."""
    path = Path(path)
    path.write_bytes(churn_trace_bytes(events, steps))
    return path


def read_churn_trace(path: str | Path) -> tuple[list[AdversaryEvent], list[int | None]]:
    """Parse a churn trace into ``(events, steps)`` (steps entries may be None).

    Blank lines are ignored so hand-edited traces stay valid; a malformed
    line raises ``ValueError`` naming the path, the line number and the field.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    parsed = list(read_jsonl(lines, path, ChurnEvent.from_dict))
    return [line.event() for line in parsed], [line.step for line in parsed]


def group_into_batches(
    events: Sequence[AdversaryEvent], steps: Sequence[int | None]
) -> list[tuple[AdversaryEvent, ...]]:
    """Group a parsed trace into replay batches.

    Consecutive events sharing a (non-``None``) ``step`` value form one
    batch; a ``None`` step always starts its own singleton batch.  Only
    *consecutive* runs group — a trace is a timeline, so a step value
    reappearing later is a new timestep, not a merge.
    """
    require(len(steps) == len(events), "steps must parallel events")
    batches: list[tuple[AdversaryEvent, ...]] = []
    current: list[AdversaryEvent] = []
    current_step: int | None = None
    for event, step in zip(events, steps):
        if current and step is not None and step == current_step:
            current.append(event)
            continue
        if current:
            batches.append(tuple(current))
        current = [event]
        current_step = step
    if current:
        batches.append(tuple(current))
    return batches
