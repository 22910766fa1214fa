"""The serializable scenario specification and its compilation to the harness.

A :class:`ScenarioSpec` names every component of an experiment — healer,
adversary, initial topology, each with keyword arguments — plus the run
parameters of :class:`~repro.harness.experiment.ExperimentConfig`.  It is
plain data: two specs are equal iff they describe the same experiment, and
``from_json(spec.to_json()) == spec`` exactly.  Parsing, type checks and
serialization go through :class:`~repro.util.validation.Document`, whose
schema is the field annotations: unknown keys are refused and a mistyped
field is named (``timesteps must be an integer, got 'abc'``);
:meth:`ScenarioSpec.validate` adds the spec's own rules.

Compilation (:meth:`ScenarioSpec.compile`) resolves the names through the
:mod:`repro.scenarios.registry` registries and produces the
``ExperimentConfig`` today's :func:`~repro.harness.experiment.run_experiment`
consumes — the old imperative path stays the single execution engine.

Seeds are derived, not shared: a component whose kwargs omit ``seed`` gets
``derive_seed(spec.seed, <role>)``, so the healer's and the adversary's
random streams are independent (the model's obliviousness assumption) yet
the whole scenario is reproducible from the single ``seed`` field.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.harness.experiment import ExperimentConfig
from repro.scenarios.registry import ADVERSARIES, HEALERS, TOPOLOGIES
from repro.util.rng import derive_seed
from repro.util.validation import Document, ValidationError, require


def _check_json_exact(kwargs: dict, what: str) -> None:
    """Require ``kwargs`` to survive a JSON round-trip unchanged."""
    try:
        round_tripped = json.loads(json.dumps(kwargs))
    except (TypeError, ValueError) as error:
        raise ValidationError(f"{what} are not JSON-serializable: {error}") from None
    require(
        round_tripped == kwargs,
        f"{what} do not round-trip through JSON exactly "
        f"(use only JSON-native types: str/int/float/bool/None/list/dict); got {kwargs!r}",
    )


def canonical_fingerprint(data: dict) -> str:
    """Return the SHA-256 hex digest of ``data``'s canonical JSON form.

    Canonical means sorted keys and compact separators, so two dicts that
    differ only in key insertion order fingerprint identically.  This is the
    identity resumable sweeps key on: a point already recorded under a
    fingerprint is never re-executed.
    """
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_cached_signature = lru_cache(maxsize=None)(inspect.signature)


def _signature(component) -> inspect.Signature:
    """Return ``inspect.signature(component)``, memoized per component.

    Validation asks for a point's three component signatures several times,
    in the parent and again in the worker that compiles it.  An unhashable
    component is inspected uncached: the cache's ``TypeError`` would read as
    a component without a signature and skip its check.
    """
    try:
        hash(component)
    except TypeError:
        return inspect.signature(component)
    return _cached_signature(component)


def _check_signature(component, kwargs: dict, what: str, seed_injected: bool) -> None:
    """Require ``component(**kwargs)`` to be callable; name the accepted params."""
    try:
        signature = _signature(component)
    except (TypeError, ValueError):  # builtins without introspectable signatures
        return
    trial = dict(kwargs)
    if seed_injected and "seed" not in trial and _accepts_seed(component):
        trial["seed"] = 0
    try:
        signature.bind(**trial)
    except TypeError as error:
        accepted = sorted(signature.parameters)
        raise ValidationError(
            f"invalid {what} kwargs {sorted(kwargs)}: {error}; "
            f"accepted parameters: {accepted}"
        ) from None


def _accepts_param(component, name: str) -> bool:
    """Return whether ``component`` takes an explicit keyword named ``name``."""
    try:
        return name in _signature(component).parameters
    except (TypeError, ValueError):
        return False


def _accepts_seed(component) -> bool:
    """Return whether ``component`` takes an explicit ``seed`` keyword."""
    return _accepts_param(component, "seed")


@dataclass(frozen=True)
class ScenarioSpec(Document):
    """A named, serializable description of one experiment.

    Attributes
    ----------
    healer / adversary / topology:
        Registry names (see ``python -m repro list``); each comes with a
        kwargs dict forwarded to the registered class / generator.
    name:
        Optional human-readable label (defaults to
        ``"<healer>@<topology>/<adversary>"``); sweep expansion appends the
        axis assignment.
    timesteps / metric_every / kappa / check_invariants_every /
    exact_expansion_limit / stretch_sample_pairs / seed / snapshot_every:
        Run parameters, mirrored onto
        :class:`~repro.harness.experiment.ExperimentConfig` verbatim.
        ``snapshot_every`` is ``None`` by default (final Theorem-2 snapshot
        always taken); ``0`` opts a sweep point out of full snapshots
        entirely — the big per-point cost when nobody reads the spectral
        columns.  The default is omitted from :meth:`to_dict`, so the
        fingerprints of every pre-existing spec are unchanged.
    """

    _omit_none = ("snapshot_every",)

    healer: str
    topology: str
    adversary: str = "random"
    healer_kwargs: dict = field(default_factory=dict)
    adversary_kwargs: dict = field(default_factory=dict)
    topology_kwargs: dict = field(default_factory=dict)
    name: str | None = None
    timesteps: int = 100
    metric_every: int = 0
    kappa: int = 4
    check_invariants_every: int = 0
    exact_expansion_limit: int = 22
    stretch_sample_pairs: int | None = 100
    seed: int = 0
    snapshot_every: int | None = None

    # -- identity -------------------------------------------------------------

    @property
    def label(self) -> str:
        """Return the explicit name, or a generated one."""
        return self.name or f"{self.healer}@{self.topology}/{self.adversary}"

    # -- validation -----------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Check names, kwargs and run parameters; return self for chaining.

        Unknown component names raise
        :class:`~repro.scenarios.registry.UnknownNameError` with the list of
        registered names and a nearest-match suggestion; kwargs that do not
        fit the component's signature name the accepted parameters.  Every
        field must have its annotated type (``int`` fields reject ``bool``):
        sweep axes assign values after the document was parsed.
        """
        self.check_types()
        healer_cls = HEALERS.get(self.healer)
        adversary_cls = ADVERSARIES.get(self.adversary)
        topology_fn = TOPOLOGIES.get(self.topology)
        _check_json_exact(self.healer_kwargs, "healer_kwargs")
        _check_json_exact(self.adversary_kwargs, "adversary_kwargs")
        _check_json_exact(self.topology_kwargs, "topology_kwargs")
        _check_signature(healer_cls, self.healer_kwargs, "healer", seed_injected=True)
        _check_signature(adversary_cls, self.adversary_kwargs, "adversary", seed_injected=True)
        _check_signature(topology_fn, self.topology_kwargs, "topology", seed_injected=True)
        require(self.timesteps >= 1, "timesteps must be at least 1")
        require(self.kappa >= 1, "kappa must be at least 1")
        # The run-parameter kappa drives the Theorem-2 degree bound and the
        # Lemma-5/Theorem-5 cost accounting; letting it silently disagree
        # with the healer's own kappa would make the reported verdicts
        # describe a different algorithm than the one that ran.
        healer_kappa = self.healer_kwargs.get("kappa")
        require(
            healer_kappa is None or healer_kappa == self.kappa,
            f"healer_kwargs['kappa']={healer_kappa} disagrees with the run parameter "
            f"kappa={self.kappa} (used for Theorem-2 bounds and cost accounting); "
            f"set both to the same value",
        )
        require(self.metric_every >= 0, "metric_every must be non-negative")
        require(self.check_invariants_every >= 0, "check_invariants_every must be non-negative")
        require(self.exact_expansion_limit >= 0, "exact_expansion_limit must be non-negative")
        require(
            self.stretch_sample_pairs is None or self.stretch_sample_pairs >= 1,
            "stretch_sample_pairs must be None or at least 1",
        )
        require(
            self.snapshot_every is None or self.snapshot_every >= 0,
            "snapshot_every must be None or non-negative",
        )
        return self

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """Return a copy with the given fields replaced (sweeps/CLI helper)."""
        return replace(self, **overrides)

    def fingerprint(self) -> str:
        """Return the spec's canonical-JSON SHA-256 identity.

        Two specs fingerprint identically iff they are equal as dataclasses
        — kwargs key order does not matter, every field value does.  Streamed
        sweep directories index completed points by this value, which is what
        makes resumption safe: a changed spec is a different point.
        """
        return canonical_fingerprint(self.to_dict())

    # -- compilation and execution -------------------------------------------

    def component_kwargs(self, role: str) -> dict:
        """Return the effective kwargs for ``role`` (seed derivation applied).

        ``role`` is one of ``"healer"``, ``"adversary"``, ``"topology"``.
        When the component accepts a ``seed`` and the spec's kwargs omit it,
        the seed is derived from ``spec.seed`` and the role label so the
        three components get independent, reproducible random streams.
        Likewise a kappa-aware healer whose kwargs omit ``kappa`` receives
        the spec's run-parameter ``kappa`` — the healer that runs is always
        the one the Theorem-2 bounds and cost accounting describe.
        """
        component = {
            "healer": HEALERS.get(self.healer),
            "adversary": ADVERSARIES.get(self.adversary),
            "topology": TOPOLOGIES.get(self.topology),
        }[role]
        kwargs = dict(getattr(self, f"{role}_kwargs"))
        if "seed" not in kwargs and _accepts_seed(component):
            kwargs["seed"] = derive_seed(self.seed, role)
        if role == "healer" and "kappa" not in kwargs and _accepts_param(component, "kappa"):
            kwargs["kappa"] = self.kappa
        return kwargs

    def build_initial_graph(self):
        """Instantiate the initial topology ``G_0`` from the registry."""
        return TOPOLOGIES.get(self.topology)(**self.component_kwargs("topology"))

    def compile(self) -> ExperimentConfig:
        """Validate and lower the spec to an :class:`ExperimentConfig`.

        The factories capture the resolved class and kwargs, so the config is
        self-contained: sweeps and replays can re-instantiate components
        without touching the spec again.
        """
        self.validate()
        healer_cls = HEALERS.get(self.healer)
        adversary_cls = ADVERSARIES.get(self.adversary)
        healer_kwargs = self.component_kwargs("healer")
        adversary_kwargs = self.component_kwargs("adversary")
        return ExperimentConfig(
            healer_factory=lambda: healer_cls(**healer_kwargs),
            adversary_factory=lambda: adversary_cls(**adversary_kwargs),
            initial_graph=self.build_initial_graph(),
            timesteps=self.timesteps,
            metric_every=self.metric_every,
            kappa=self.kappa,
            check_invariants_every=self.check_invariants_every,
            exact_expansion_limit=self.exact_expansion_limit,
            stretch_sample_pairs=self.stretch_sample_pairs,
            seed=self.seed,
            snapshot_every=self.snapshot_every,
        )

    def run(self):
        """Execute the scenario; return a :class:`~repro.scenarios.runner.RunRecord`."""
        from repro.scenarios.runner import execute_spec

        return execute_spec(self)

    @classmethod
    def replay(cls, path):
        """Re-execute a persisted run artifact bit-identically.

        Loads the spec and adversarial trace from the JSONL artifact at
        ``path``, runs the compiled spec through
        :func:`~repro.harness.experiment.run_experiment` with the recorded
        trace as its adversary (see
        :func:`~repro.scenarios.artifacts.replay_artifact`) and returns a
        :class:`~repro.scenarios.artifacts.ReplayReport` whose ``identical``
        flag compares the replayed ``summary_row()`` against the recorded
        one.  An event that cannot apply raises a ``ValidationError``.
        """
        from repro.scenarios.artifacts import replay_artifact

        return replay_artifact(path)
