"""Property-based tests (hypothesis) for the streaming/replicates layer.

ISSUE 5 satellite: for random specs and sweeps,

* a compressed artifact's bytes decompress to exactly the uncompressed
  artifact's bytes (compression is an encoding, never a different document),
* replicate expansion produces pairwise-distinct fingerprints that are
  stable under axis (re)ordering, and
* the index's cost columns survive a JSON round-trip exactly (what resume
  reads back is what the writer measured).
"""

from __future__ import annotations

import gzip
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import ScenarioSpec, SweepSpec
from repro.scenarios.artifacts import (
    GZIP_MAGIC,
    iter_artifact,
    run_bytes,
    save_run,
)
from repro.scenarios.runner import RunRecord

FAST = settings(max_examples=40, deadline=None)

BASE = ScenarioSpec(
    name="prop-stream",
    healer="xheal",
    adversary="random",
    topology="random-regular",
    topology_kwargs={"n": 12, "degree": 4},
    timesteps=5,
    seed=1,
)

# JSON-native scalars that round-trip json.dumps/loads exactly.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_row = st.dictionaries(st.text(min_size=1, max_size=8), _scalars, max_size=4)
# A timeline line's data is a TimelineRow: its snapshots are objects.
_timeline_row = st.fixed_dictionaries(
    {
        "timestep": st.integers(min_value=0),
        "worst_degree_ratio": _scalars,
        "healed": _row,
        "ghost": _row,
    }
)


@st.composite
def run_records(draw) -> RunRecord:
    """Random (not necessarily executable) records — serialization is what's
    under test, and it must be exact regardless of content."""
    spec = BASE.with_overrides(
        name=draw(st.none() | st.text(max_size=12)),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        timesteps=draw(st.integers(min_value=1, max_value=100)),
    )
    return RunRecord(
        spec=spec,
        summary=draw(_row),
        timeline=draw(st.lists(_timeline_row, max_size=3)),
        trace=draw(st.lists(_row, max_size=3)),
        cache_stats=draw(_row),
    )


@st.composite
def replicate_sweeps(draw) -> SweepSpec:
    """Valid sweeps over the real registries with replicates >= 2."""
    axes = draw(
        st.dictionaries(
            st.sampled_from(["timesteps", "metric_every", "healer_kwargs.kappa"]),
            st.lists(
                st.integers(min_value=1, max_value=50), min_size=1, max_size=3, unique=True
            ),
            max_size=2,
        )
    )
    return SweepSpec(
        base=BASE,
        axes=axes,
        name=draw(st.none() | st.text(max_size=10)),
        replicates=draw(st.integers(min_value=2, max_value=4)),
    )


@FAST
@given(run_records())
def test_compressed_artifact_decompresses_to_the_uncompressed_bytes(record):
    plain = run_bytes(record, compress=False)
    packed = run_bytes(record, compress=True)
    assert packed[:2] == GZIP_MAGIC
    assert gzip.decompress(packed) == plain
    # Deterministic: the same record always compresses to the same bytes.
    assert run_bytes(record, compress=True) == packed


@FAST
@given(record=run_records())
def test_gz_and_plain_artifacts_read_back_identically(tmp_path_factory, record):
    tmp = tmp_path_factory.mktemp("artifacts")
    plain = save_run(record, tmp / "run.jsonl")
    packed = save_run(record, tmp / "run.jsonl.gz")
    assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
    assert list(iter_artifact(packed)) == list(iter_artifact(plain))


@FAST
@given(replicate_sweeps(), st.integers(min_value=0, max_value=10**6))
def test_replicate_fingerprints_distinct_and_stable_under_axis_reordering(
    sweep, shuffle_seed
):
    import random

    fingerprints = [spec.fingerprint() for spec in sweep.expand()]
    assert len(set(fingerprints)) == len(fingerprints), "replicates must not collide"

    keys = list(sweep.axes)
    random.Random(shuffle_seed).shuffle(keys)
    permuted = SweepSpec(
        base=sweep.base,
        axes={key: sweep.axes[key] for key in keys},
        name=sweep.name,
        replicates=sweep.replicates,
    )
    assert [spec.fingerprint() for spec in permuted.expand()] == fingerprints
    # And stable full stop: expansion is a pure function of the document.
    assert [spec.fingerprint() for spec in sweep.expand()] == fingerprints


@FAST
@given(replicate_sweeps())
def test_replicate_ids_and_names_are_canonical(sweep):
    from repro.scenarios.sweep import split_replicate

    specs = sweep.expand()
    assert len(specs) % sweep.replicates == 0
    for position, spec in enumerate(specs):
        base_label, rep = split_replicate(spec.name)
        assert rep == position % sweep.replicates  # replicate id varies fastest
        assert spec.name == f"{base_label}[rep={rep}]"
    # Replicates of one base point differ only in name and seed.
    first, second = specs[0].to_dict(), specs[1].to_dict()
    differing = {key for key in first if first[key] != second[key]}
    assert differing == {"name", "seed"}


@FAST
@given(
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_index_cost_columns_round_trip_json_exactly(wall_clock, timesteps, index):
    entry = {
        "index": index,
        "timesteps": timesteps,
        "wall_clock_s": wall_clock,
        "step_cost_s": wall_clock / timesteps,
        "replicate": None,
    }
    rebuilt = json.loads(json.dumps(entry, sort_keys=True))
    assert rebuilt == entry
    assert type(rebuilt["wall_clock_s"]) is type(entry["wall_clock_s"])
    # A second round-trip is a fixed point (no drift over resume cycles).
    assert json.loads(json.dumps(rebuilt, sort_keys=True)) == rebuilt
