"""Property-based tests (hypothesis) for the scenario spec layer.

ISSUE 3 satellite: random ``ScenarioSpec``/``SweepSpec`` values round-trip
``to_json``/``from_json`` exactly, fingerprints are canonical (stable across
dict insertion orders, sensitive to every field value), and ``derive_seed``
separates roles — the healer, adversary, topology and sweep streams derived
from one base seed never collide.  Every JSON document and JSONL line class
round-trips, and a document with one field of the wrong JSON type is refused
with a ``ValidationError`` naming that field's dotted path.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    AdaptiveSpec,
    ChaosSpec,
    HalvingSchedule,
    PointPolicy,
    ScenarioSpec,
    StoppingRule,
    SweepSpec,
    list_adversaries,
    list_executors,
    list_healers,
    list_topologies,
)
from repro.scenarios.artifacts import ArtifactLine
from repro.scenarios.runner import ChurnEvent
from repro.scenarios.spec import canonical_fingerprint
from repro.scenarios.stream import (
    AdaptiveRound,
    ArmScore,
    FailureEntry,
    HalvingBudget,
    IndexEntry,
    Manifest,
    StopDecision,
)
from repro.util.rng import derive_seed
from repro.util.validation import ValidationError

FAST = settings(max_examples=60, deadline=None)

#: Roles the spec layer derives independent seeds for (see
#: ScenarioSpec.component_kwargs and SweepSpec.expand).
SEED_ROLES = ("healer", "adversary", "topology", "sweep")

# JSON-native scalars whose Python values round-trip json.dumps/loads
# exactly (NaN breaks equality; floats otherwise round-trip via repr).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=8,
)
_kwargs = st.dictionaries(st.text(min_size=1, max_size=10), _json_values, max_size=4)


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    """Random specs over the real registries (not necessarily *valid* ones —
    serialization must be exact regardless of component signatures)."""
    return ScenarioSpec(
        healer=draw(st.sampled_from(list_healers())),
        adversary=draw(st.sampled_from(list_adversaries())),
        topology=draw(st.sampled_from(list_topologies())),
        healer_kwargs=draw(_kwargs),
        adversary_kwargs=draw(_kwargs),
        topology_kwargs=draw(_kwargs),
        name=draw(st.none() | st.text(max_size=12)),
        timesteps=draw(st.integers(min_value=1, max_value=10**6)),
        metric_every=draw(st.integers(min_value=0, max_value=100)),
        kappa=draw(st.integers(min_value=1, max_value=64)),
        check_invariants_every=draw(st.integers(min_value=0, max_value=100)),
        exact_expansion_limit=draw(st.integers(min_value=0, max_value=30)),
        stretch_sample_pairs=draw(st.none() | st.integers(min_value=1, max_value=1000)),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        snapshot_every=draw(st.none() | st.integers(min_value=0, max_value=100)),
    )


@st.composite
def sweep_specs(draw) -> SweepSpec:
    axes = draw(
        st.dictionaries(
            st.sampled_from(
                ["timesteps", "kappa", "seed", "healer_kwargs.kappa", "topology_kwargs.n"]
            ),
            st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    return SweepSpec(
        base=draw(scenario_specs()),
        axes=axes,
        name=draw(st.none() | st.text(max_size=12)),
        derive_seeds=draw(st.booleans()),
    )


_names = st.text(min_size=1, max_size=8)
_fractions = st.floats(min_value=0.0, max_value=1.0)
policies = st.builds(
    PointPolicy,
    timeout_s=st.none() | st.integers(1, 100) | st.floats(min_value=0.001, max_value=1e4),
    max_retries=st.integers(0, 5),
    backoff=st.integers(0, 3) | st.floats(min_value=0.0, max_value=10.0),
)
stopping_rules = st.builds(
    StoppingRule,
    metric=_names,
    target_half_width=st.floats(min_value=1e-6, max_value=1e3),
    min_replicates=st.integers(2, 5),
    max_replicates=st.integers(5, 20),
    batch=st.integers(1, 4),
)
halving_schedules = st.builds(
    HalvingSchedule,
    axis=_names,
    objective=_names,
    minimize=st.booleans(),
    keep=st.floats(min_value=0.01, max_value=0.99),
    replicates=st.integers(1, 4),
    timesteps=st.none() | st.integers(1, 50),
    growth=st.integers(1, 3),
    rounds=st.none() | st.integers(1, 5),
)
adaptive_specs = st.builds(AdaptiveSpec, stopping=stopping_rules) | st.builds(
    AdaptiveSpec, halving=halving_schedules
)
chaos_specs = st.builds(
    ChaosSpec,
    crash_prob=_fractions,
    hang_prob=_fractions,
    hang_s=st.floats(min_value=0.0, max_value=5.0),
    torn_write_prob=_fractions,
    raise_prob=_fractions,
    seed=st.integers(0, 2**32),
)


@st.composite
def full_sweep_specs(draw) -> SweepSpec:
    """Sweeps carrying the operational and adaptive blocks too."""
    return dataclasses.replace(
        draw(sweep_specs()),
        replicates=draw(st.integers(1, 4)),
        policy=draw(st.none() | policies),
        executor=draw(st.none() | st.sampled_from(list_executors())),
        adaptive=draw(st.none() | adaptive_specs),
    )


# The line classes: churn-trace and artifact lines, and a sweep directory's
# index, failure and round ledgers and manifest.
_counts = st.integers(0, 2**31)
_maybe_counts = st.none() | _counts
_maybe_names = st.none() | st.text(max_size=8)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_maybe_finite = st.none() | _finite
churn_events = st.builds(
    ChurnEvent,
    type=st.sampled_from(["insert", "delete"]),
    node=_counts,
    neighbors=st.lists(_counts, max_size=3),
    step=_maybe_counts,
)
artifact_lines = (
    st.builds(ArtifactLine, kind=st.just("spec"), data=scenario_specs().map(ScenarioSpec.to_dict))
    | st.builds(ArtifactLine, kind=st.just("event"), data=churn_events.map(ChurnEvent.to_dict))
    | st.builds(
        ArtifactLine, kind=st.sampled_from(["summary", "timeline", "cache_stats"]), data=_kwargs
    )
)
index_entries = st.builds(
    IndexEntry,
    artifact=st.from_regex(r"[0-9]{4}-[a-z]{1,6}\.jsonl(\.gz)?", fullmatch=True),
    index=_maybe_counts,
    fingerprint=_maybe_names,
    label=_maybe_names,
    sha256=_maybe_names,
    replicate=_maybe_counts,
    timesteps=_maybe_counts,
    wall_clock_s=_json_values,
    step_cost_s=_json_values,
)
failure_entries = st.builds(
    FailureEntry,
    fingerprint=st.text(max_size=8),
    index=_counts,
    label=_maybe_names,
    attempts=_maybe_counts,
    error=_maybe_names,
    wall_clock=_maybe_finite,
)
manifests = st.builds(
    Manifest,
    entries=st.lists(index_entries, max_size=2),
    points=_maybe_counts,
    compressed=st.none() | st.booleans(),
    failed=st.lists(failure_entries, max_size=2),
)
adaptive_rounds = st.builds(
    AdaptiveRound,
    round=_counts,
    mode=st.sampled_from(["halving", "stopping"]),
    axis=_maybe_names,
    objective=_maybe_names,
    minimize=st.booleans(),
    budget=st.builds(HalvingBudget, replicates=_maybe_counts, timesteps=_maybe_counts),
    scores=st.lists(
        st.builds(ArmScore, arm=_json_values, score=_finite, points=_maybe_counts), max_size=2
    ),
    survivors=st.lists(_json_values, max_size=2),
    metric=_maybe_names,
    target_half_width=_maybe_finite,
    decisions=st.lists(
        st.builds(
            StopDecision,
            status=st.sampled_from(["converged", "exhausted", "continue"]),
            half_width=_finite,
            point=_maybe_names,
            replicates=_maybe_counts,
            mean=_maybe_finite,
            ci_low=_maybe_finite,
            ci_high=_maybe_finite,
        ),
        max_size=2,
    ),
)

#: Every JSON document class: a full sweep nests the scenario, policy and
#: adaptive classes; ChaosSpec (the ``REPRO_CHAOS`` value) nests in no other
#: document, so it is drawn on its own, as is each line class (a manifest
#: nests index and failure entries, a round its budget, scores and decisions).
documents = st.one_of(
    scenario_specs(),
    full_sweep_specs(),
    chaos_specs,
    churn_events,
    artifact_lines,
    index_entries,
    failure_entries,
    manifests,
    adaptive_rounds,
)


@FAST
@given(scenario_specs())
def test_scenario_spec_round_trips_exactly(spec):
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    # And through a second parse of the canonical document (idempotent).
    rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec
    assert rebuilt.to_json() == spec.to_json()


@FAST
@given(sweep_specs())
def test_sweep_spec_round_trips_exactly(sweep):
    assert SweepSpec.from_json(sweep.to_json()) == sweep


@FAST
@given(documents)
def test_every_document_round_trips_exactly(document):
    text = document.to_json()
    rebuilt = type(document).from_json(text)
    assert rebuilt == document
    assert rebuilt.to_json() == text


def _annotated_fields(document, prefix: str = ""):
    """Yield ``(dotted path, annotation kind, optional)`` for every field, nested ones too."""
    for spec_field in dataclasses.fields(document):
        kind, _, optional = spec_field.type.partition(" | ")
        path = prefix + spec_field.name
        yield path, kind, bool(optional)
        value = getattr(document, spec_field.name)
        if dataclasses.is_dataclass(value):
            yield from _annotated_fields(value, f"{path}.")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if dataclasses.is_dataclass(item):
                    yield from _annotated_fields(item, f"{path}[{i}].")


def _any_array(value) -> bool:
    return isinstance(value, list)


#: Which JSON values each scalar annotation accepts; a ``dict`` field or a
#: nested document accepts any object, and a list of documents any array (a
#: nested document's own fields are fuzzed separately).
_ACCEPTS = {
    "str": lambda value: isinstance(value, str),
    "int": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "float": lambda value: (
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    ),
    "bool": lambda value: isinstance(value, bool),
    "object": lambda value: True,
    "list": _any_array,
    "list[int]": lambda value: _any_array(value) and all(map(_ACCEPTS["int"], value)),
    "list[IndexEntry]": _any_array,
    "list[FailureEntry]": _any_array,
    "list[ArmScore]": _any_array,
    "list[StopDecision]": _any_array,
}
#: Python's json parses NaN and Infinity, which JSON numbers exclude.
_JSON_VALUES = ["x", 5, 2.5, float("inf"), float("nan"), True, None, [1], {"k": 1}]


def _mistypings(document):
    """Yield ``(dotted path, wrong values)`` for every field some JSON value mistypes."""
    for path, kind, optional in _annotated_fields(document):
        accepts = _ACCEPTS.get(kind, lambda value: isinstance(value, dict))
        wrong = [
            value
            for value in _JSON_VALUES
            if not accepts(value) and not (value is None and optional)
        ]
        if wrong:
            yield path, wrong


@FAST
@given(documents, st.data())
def test_one_mistyped_field_is_refused_by_its_dotted_name(document, data):
    path, wrong_values = data.draw(st.sampled_from(list(_mistypings(document))))
    wrong = data.draw(st.sampled_from(wrong_values))
    payload = document.to_dict()
    # ``scores[0].score`` -> ["scores", 0, "score"]
    *parents, leaf = [
        int(key) if key.isdigit() else key for key in re.split(r"[.\[\]]+", path) if key
    ]
    target = payload
    for key in parents:
        target = target[key]
    target[leaf] = wrong
    with pytest.raises(ValidationError) as caught:
        type(document).from_dict(payload).validate()
    assert str(caught.value).startswith(f"{path} must be ")


@FAST
@given(scenario_specs(), st.integers(min_value=0, max_value=10**6))
def test_fingerprint_is_stable_across_kwargs_orderings(spec, shuffle_seed):
    import random

    def reordered(mapping: dict) -> dict:
        keys = list(mapping)
        random.Random(shuffle_seed).shuffle(keys)
        return {key: mapping[key] for key in keys}

    permuted = spec.with_overrides(
        healer_kwargs=reordered(spec.healer_kwargs),
        adversary_kwargs=reordered(spec.adversary_kwargs),
        topology_kwargs=reordered(spec.topology_kwargs),
    )
    assert permuted == spec  # dict equality ignores insertion order...
    assert permuted.fingerprint() == spec.fingerprint()  # ...and so must identity


@FAST
@given(sweep_specs(), st.integers(min_value=0, max_value=10**6))
def test_sweep_fingerprint_is_stable_across_axis_orderings(sweep, shuffle_seed):
    import random

    keys = list(sweep.axes)
    random.Random(shuffle_seed).shuffle(keys)
    permuted = SweepSpec(
        base=sweep.base,
        axes={key: sweep.axes[key] for key in keys},
        name=sweep.name,
        derive_seeds=sweep.derive_seeds,
    )
    assert permuted.fingerprint() == sweep.fingerprint()
    # Point order is canonical too (sorted axis keys), so the expanded grids
    # — and hence the streamed artifact sets — are identical.  (Random specs
    # need not pass component validation; expansion only applies to those
    # that do.)
    try:
        expected = [s.to_json() for s in sweep.expand()]
    except ValidationError:
        return
    assert [s.to_json() for s in permuted.expand()] == expected


@FAST
@given(scenario_specs())
def test_fingerprint_changes_with_any_field(spec):
    assert spec.fingerprint() == ScenarioSpec.from_json(spec.to_json()).fingerprint()
    perturbed = [
        spec.with_overrides(seed=spec.seed + 1),
        spec.with_overrides(timesteps=spec.timesteps + 1),
        spec.with_overrides(name=(spec.name or "") + "x"),
        spec.with_overrides(healer_kwargs={**spec.healer_kwargs, "kappa": -1}),
    ]
    fingerprints = {spec.fingerprint()} | {other.fingerprint() for other in perturbed}
    assert len(fingerprints) == 1 + len(perturbed)


@FAST
@given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=3))
def test_canonical_fingerprint_ignores_key_order(mapping):
    reversed_order = dict(reversed(list(mapping.items())))
    assert canonical_fingerprint(reversed_order) == canonical_fingerprint(mapping)


@FAST
@given(st.integers(min_value=0, max_value=2**63))
def test_derive_seed_never_collides_across_roles(base_seed):
    derived = [derive_seed(base_seed, role) for role in SEED_ROLES]
    assert len(set(derived)) == len(SEED_ROLES)
    # Roles are independent of the base stream itself too.
    assert base_seed not in derived


@FAST
@given(st.integers(min_value=0, max_value=2**63), st.text(max_size=10))
def test_derive_seed_sweep_assignments_do_not_collide_with_roles(base_seed, canonical):
    point_seed = derive_seed(base_seed, "sweep", canonical)
    for role in SEED_ROLES:
        assert point_seed != derive_seed(base_seed, role)
