"""Tests for the declarative scenario API: registries, specs, sweeps."""

from __future__ import annotations

import json

import networkx as nx
import pytest

from repro.harness.experiment import ExperimentConfig
from repro.harness.workloads import WORKLOADS
from repro.scenarios import (
    ADVERSARIES,
    HEALERS,
    TOPOLOGIES,
    ScenarioSpec,
    SweepSpec,
    UnknownNameError,
    list_adversaries,
    list_healers,
    list_topologies,
)
from repro.util.rng import derive_seed
from repro.util.validation import ValidationError

#: Small-but-valid kwargs per topology (several generators have required args).
TOPOLOGY_KWARGS = {
    "star": {"n": 12},
    "random-regular": {"n": 12, "degree": 4},
    "erdos-renyi": {"n": 12},
    "grid": {"rows": 4},
    "ring": {"n": 12},
    "power-law": {"n": 12, "m": 2},
    "two-cliques": {"n": 12},
    "racked-clos": {"racks": 3, "nodes_per_rack": 4},
    "pod-mesh": {"pods": 3, "nodes_per_pod": 4},
}


def test_registries_are_populated():
    assert "xheal" in list_healers()
    assert {"forgiving-tree", "forgiving-graph", "line-heal", "no-heal"} <= set(list_healers())
    assert {"random", "max-degree", "cascade", "deletion-only"} <= set(list_adversaries())
    assert set(list_topologies()) == set(TOPOLOGY_KWARGS)


def test_workloads_is_a_live_view_of_the_topology_registry():
    # Single source of truth: the harness mapping IS the registry table.
    assert dict(WORKLOADS) == {name: TOPOLOGIES.get(name) for name in list_topologies()}
    with pytest.raises(TypeError):
        WORKLOADS["injected"] = lambda: None  # read-only


def test_unknown_names_raise_with_suggestions():
    with pytest.raises(UnknownNameError, match="did you mean 'xheal'"):
        ScenarioSpec(healer="xhea", topology="ring").validate()
    with pytest.raises(UnknownNameError, match="registered adversary names"):
        ScenarioSpec(healer="xheal", adversary="nope", topology="ring").validate()
    with pytest.raises(UnknownNameError, match="did you mean 'ring'"):
        ScenarioSpec(healer="xheal", topology="rng").validate()


def test_aliases_resolve():
    assert ADVERSARIES.get("hub-attack") is ADVERSARIES.get("max-degree")
    assert HEALERS.get("cycle-heal") is HEALERS.get("line-heal")


def test_bad_kwargs_name_the_accepted_parameters():
    spec = ScenarioSpec(healer="xheal", topology="ring", healer_kwargs={"kapa": 3})
    with pytest.raises(ValidationError, match="accepted parameters.*kappa"):
        spec.validate()
    spec = ScenarioSpec(healer="xheal", topology="ring", topology_kwargs={"nodes": 9})
    with pytest.raises(ValidationError, match="accepted parameters"):
        spec.validate()


class _UnhashableRing:
    """A topology component that is a callable instance and cannot be hashed."""

    __hash__ = None

    def __call__(self, n: int, seed: int = 0):
        return nx.cycle_graph(n)


def test_an_unhashable_component_is_still_signature_checked(monkeypatch):
    monkeypatch.setitem(TOPOLOGIES._entries, "unhashable-ring", _UnhashableRing())
    spec = ScenarioSpec(healer="xheal", topology="unhashable-ring", topology_kwargs={"nodes": 9})
    with pytest.raises(ValidationError, match=r"accepted parameters: \['n', 'seed'\]"):
        spec.validate()
    spec = spec.with_overrides(topology_kwargs={"n": 9})
    assert spec.validate().component_kwargs("topology")["seed"] == derive_seed(0, "topology")


def test_run_kappa_reaches_kappa_aware_healers():
    # healer_kwargs omit kappa: the run-parameter kappa drives the healer, so
    # a top-level "kappa" sweep axis actually changes the algorithm that runs.
    spec = ScenarioSpec(healer="xheal", topology="ring", topology_kwargs={"n": 10}, kappa=8)
    assert spec.component_kwargs("healer")["kappa"] == 8
    assert spec.compile().healer_factory().kappa == 8
    # Baselines without a kappa parameter are untouched.
    baseline = spec.with_overrides(healer="forgiving-tree")
    assert "kappa" not in baseline.component_kwargs("healer")
    baseline.compile()


def test_mismatched_kappa_is_rejected():
    spec = ScenarioSpec(healer="xheal", topology="ring", topology_kwargs={"n": 10},
                        healer_kwargs={"kappa": 8}, kappa=4)
    with pytest.raises(ValidationError, match="disagrees with the run parameter"):
        spec.validate()
    assert spec.with_overrides(kappa=8).validate()


def test_non_json_kwargs_are_rejected():
    spec = ScenarioSpec(healer="xheal", topology="ring", topology_kwargs={"n": (1, 2)})
    with pytest.raises(ValidationError, match="round-trip"):
        spec.validate()


def test_every_registered_combination_round_trips_and_compiles(tmp_path):
    """Property-style sweep: all healer x adversary x topology combos survive
    ScenarioSpec -> JSON -> ScenarioSpec -> ExperimentConfig."""
    from repro.adversary.base import AdversaryEvent, EventType
    from repro.adversary.traces import write_churn_trace

    trace = write_churn_trace(
        [AdversaryEvent(EventType.INSERT, 999, (0,))], tmp_path / "churn.jsonl"
    )
    # Adversaries with required constructor arguments beyond a seed.
    adversary_kwargs = {"trace-replay": {"path": str(trace)}}
    for healer in list_healers():
        for adversary in list_adversaries():
            for topology in list_topologies():
                spec = ScenarioSpec(
                    healer=healer,
                    adversary=adversary,
                    adversary_kwargs=adversary_kwargs.get(adversary, {}),
                    topology=topology,
                    topology_kwargs=TOPOLOGY_KWARGS[topology],
                    timesteps=5,
                    seed=1,
                )
                round_tripped = ScenarioSpec.from_json(spec.to_json())
                assert round_tripped == spec
                # Canonical JSON is byte-stable through a round trip.
                assert round_tripped.to_json() == spec.to_json()
                config = round_tripped.compile()
                assert isinstance(config, ExperimentConfig)
                assert isinstance(config.initial_graph, nx.Graph)
                assert config.initial_graph.number_of_nodes() >= 2
                healer_obj = config.healer_factory()
                adversary_obj = config.adversary_factory()
                assert HEALERS.get(healer) is type(healer_obj)
                assert ADVERSARIES.get(adversary) is type(adversary_obj)


def test_seed_derivation_is_deterministic_and_per_role():
    spec = ScenarioSpec(healer="xheal", topology="random-regular",
                        topology_kwargs={"n": 12, "degree": 4}, seed=9)
    healer_kwargs = spec.component_kwargs("healer")
    adversary_kwargs = spec.component_kwargs("adversary")
    topology_kwargs = spec.component_kwargs("topology")
    # Derived, reproducible, and independent between roles.
    assert healer_kwargs["seed"] != adversary_kwargs["seed"]
    assert spec.component_kwargs("healer") == healer_kwargs
    assert topology_kwargs["seed"] != healer_kwargs["seed"]
    # Explicit seeds win over derivation.
    pinned = spec.with_overrides(healer_kwargs={"seed": 123})
    assert pinned.component_kwargs("healer")["seed"] == 123


def test_compile_produces_runnable_config():
    spec = ScenarioSpec(
        healer="xheal",
        healer_kwargs={"kappa": 4},
        adversary="deletion-only",
        topology="random-regular",
        topology_kwargs={"n": 16, "degree": 4},
        timesteps=4,
        seed=3,
    )
    from repro.harness.experiment import run_experiment

    result = run_experiment(spec.compile())
    assert result.timesteps_executed == 4
    assert result.healer_name == "xheal"
    assert result.adversary_name == "deletion-only"


def test_sweep_expands_cross_product_in_canonical_order():
    base = ScenarioSpec(healer="xheal", topology="ring", topology_kwargs={"n": 10},
                        timesteps=5, seed=4)
    sweep = SweepSpec(base=base, axes={"timesteps": [5, 10], "healer_kwargs.kappa": [2, 4]})
    specs = sweep.expand()
    assert len(specs) == 4
    # Sorted axis order: "healer_kwargs.kappa" < "timesteps", so timesteps
    # varies fastest.
    assert [s.healer_kwargs.get("kappa") for s in specs] == [2, 2, 4, 4]
    assert [s.timesteps for s in specs] == [5, 10, 5, 10]
    # Sweeping the healer's kappa moves the run-parameter kappa with it, so
    # the Theorem-2 bounds always describe the healer that actually ran.
    assert [s.kappa for s in specs] == [2, 2, 4, 4]
    assert all(s.validate() for s in specs)
    # By default every point inherits the base seed: only the axes vary.
    assert {s.seed for s in specs} == {base.seed}
    assert specs[0].name.endswith("[healer_kwargs.kappa=2,timesteps=5]")
    # derive_seeds=True gives deterministic but per-point independent seeds.
    replicated = SweepSpec(base=base, axes=dict(sweep.axes), derive_seeds=True).expand()
    assert len({s.seed for s in replicated}) == 4
    assert [s.seed for s in replicated] == [
        s.seed for s in SweepSpec(base=base, axes=dict(sweep.axes), derive_seeds=True).expand()
    ]


def test_sweep_round_trips_through_json():
    base = ScenarioSpec(healer="xheal", topology="ring", topology_kwargs={"n": 10})
    sweep = SweepSpec(base=base, axes={"timesteps": [5, 10]}, name="demo")
    parsed = SweepSpec.from_json(sweep.to_json())
    assert parsed == sweep
    assert [s.to_json() for s in parsed.expand()] == [s.to_json() for s in sweep.expand()]


def test_sweep_rejects_bad_axes():
    base = ScenarioSpec(healer="xheal", topology="ring", topology_kwargs={"n": 10})
    with pytest.raises(ValidationError, match="sweepable"):
        SweepSpec(base=base, axes={"healer_name": ["xheal"]}).validate()
    with pytest.raises(ValidationError, match="dotted"):
        SweepSpec(base=base, axes={"bogus_kwargs.x": [1]}).validate()
    with pytest.raises(ValidationError, match="non-empty"):
        SweepSpec(base=base, axes={"timesteps": []}).validate()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValidationError, match="unknown ScenarioSpec fields"):
        ScenarioSpec.from_dict({"healer": "xheal", "topology": "ring", "healerr_kwargs": {}})
    data = json.loads(ScenarioSpec(healer="xheal", topology="ring").to_json())
    assert ScenarioSpec.from_dict(data) == ScenarioSpec(healer="xheal", topology="ring")
