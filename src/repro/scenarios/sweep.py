"""Grid/matrix sweep expansion over scenario parameter axes.

A :class:`SweepSpec` is a base :class:`~repro.scenarios.spec.ScenarioSpec`
plus named axes, each a list of values.  ``expand()`` cross-products the axes
into one concrete spec per grid point — the declarative replacement for the
hand-rolled loops :mod:`repro.harness.sweeps` used to require.

Axis keys address either a run parameter (``"timesteps"``) or a component
keyword through a dotted path (``"healer_kwargs.kappa"``).  By default every
point inherits the base seed, so the only thing varying along an axis is the
axis itself (a kappa sweep compares the same initial graph and the same
churn trace); set ``derive_seeds=True`` for replicate-style sweeps, where
each point gets a deterministic seed derived from its axis assignment.
``replicates=N`` goes further: every grid point expands into ``N`` specs,
each with a seed derived from the axis assignment *and* the replicate id, so
the paper's statistical claims can be estimated over independent RNG draws
at every point (``repro report`` aggregates them back per base point).
Either way expansion is a pure function of the sweep document — independent
of execution order and worker count — so
``run_scenarios(sweep.expand(), workers=4)`` is bit-identical to
``workers=1``.

A sweep file parses through :class:`~repro.util.validation.Document` like
every other document: unknown keys are refused and every field, down to the
nested ``base``, ``policy`` and ``adaptive`` blocks, is type-checked with
the dotted field named (``adaptive.halving.keep must be a finite number,
got 'x'``).  :meth:`SweepSpec.validate` adds the sweep's own rules.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields

from repro.scenarios.policy import PointPolicy
from repro.scenarios.spec import ScenarioSpec, canonical_fingerprint
from repro.util.rng import derive_seed
from repro.util.validation import Document, require

#: Axis prefixes that address component kwargs via a dotted path.
_KWARGS_FIELDS = ("healer_kwargs", "adversary_kwargs", "topology_kwargs")

#: The trailing replicate marker ``expand()`` bakes into point names when
#: ``replicates > 1`` — the single format the stream index and the report's
#: per-base-point aggregation parse back out.
_REPLICATE_SUFFIX = re.compile(r"\[rep=(\d+)\]$")


def flatten_dotted(mapping: dict, prefix: str = "") -> dict:
    """Flatten nested dicts to dotted keys; non-dict values pass through.

    This is the single definition of the dotted axis-key space a spec spans
    (``healer_kwargs.kappa``): axis inference in the report generator and
    cost-neighbor detection in the resume scheduler both flatten through
    here, so they can never disagree about what counts as an axis key.
    """
    flat: dict = {}
    for key, value in mapping.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_dotted(value, prefix=f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


def split_replicate(label: str | None) -> tuple[str | None, int | None]:
    """Split a point label into ``(base label, replicate id)``.

    Labels without a trailing ``[rep=N]`` marker return ``(label, None)`` —
    they are single-shot points, not members of a replicate group.
    """
    if not label:
        return label, None
    match = _REPLICATE_SUFFIX.search(label)
    if match is None:
        return label, None
    return label[: match.start()], int(match.group(1))


def assignment_canonical(assignment: dict) -> str:
    """Return the canonical JSON encoding of one axis assignment.

    This string is the seed-derivation label shared by :meth:`SweepSpec.expand`
    and the adaptive round driver (:mod:`repro.scenarios.adaptive`), so a
    replicate's seed never depends on which of the two materialized it.
    """
    return json.dumps(assignment, sort_keys=True)


def point_label(label: str, assignment: dict) -> str:
    """Return the base (replicate-free) name of one grid point."""
    suffix = ",".join(f"{key}={assignment[key]}" for key in sorted(assignment))
    return f"{label}[{suffix}]" if suffix else label


def replicate_spec(base: ScenarioSpec, label: str, assignment: dict, rep: int) -> ScenarioSpec:
    """Materialize replicate ``rep`` of one grid point.

    The single definition of replicate identity: the name carries the
    ``[rep=N]`` marker and the seed derives from the base seed, the canonical
    assignment and the replicate id — so an ``expand()`` grid and an adaptive
    round that reach the same ``(assignment, rep)`` produce the same
    fingerprint and can resume each other's recorded artifacts.
    """
    spec = base
    for key in sorted(assignment):
        spec = apply_axis(spec, key, assignment[key])
    return spec.with_overrides(
        name=f"{point_label(label, assignment)}[rep={rep}]",
        seed=derive_seed(
            base.seed, "sweep", assignment_canonical(assignment), "replicate", rep
        ),
    )


def _axis_targets() -> set[str]:
    """Return the top-level spec fields an axis may address directly."""
    return {f.name for f in fields(ScenarioSpec)} - set(_KWARGS_FIELDS) - {"name"}


def apply_axis(spec: ScenarioSpec, key: str, value) -> ScenarioSpec:
    """Return ``spec`` with one axis assignment applied.

    ``key`` is either a ScenarioSpec field name or
    ``"<component>_kwargs.<param>"``.
    """
    if "." in key:
        prefix, _, param = key.partition(".")
        require(
            prefix in _KWARGS_FIELDS,
            f"axis {key!r}: dotted axes must start with one of {list(_KWARGS_FIELDS)}",
        )
        kwargs = dict(getattr(spec, prefix))
        kwargs[param] = value
        updated = spec.with_overrides(**{prefix: kwargs})
        # The healer's kappa and the run-parameter kappa (Theorem-2 bounds,
        # Lemma-5 accounting) must agree — sweeping one moves the other.
        if prefix == "healer_kwargs" and param == "kappa" and isinstance(value, int):
            updated = updated.with_overrides(kappa=value)
        return updated
    require(
        key in _axis_targets(),
        f"axis {key!r} is not a sweepable field; choose a run parameter from "
        f"{sorted(_axis_targets())} or a dotted kwargs path like 'healer_kwargs.kappa'",
    )
    if key == "kappa" and "kappa" in spec.healer_kwargs:
        kwargs = dict(spec.healer_kwargs)
        kwargs["kappa"] = value
        return spec.with_overrides(kappa=value, healer_kwargs=kwargs)
    return spec.with_overrides(**{key: value})


@dataclass(frozen=True)
class SweepSpec(Document):
    """A base scenario crossed with parameter axes.

    Attributes
    ----------
    base:
        The scenario every grid point starts from.
    axes:
        ``axis key -> list of values``; the cross product of all axes is the
        grid.  Axes iterate in sorted key order (the lexicographically last
        axis varies fastest), so the grid order is canonical — independent of
        authoring order and stable across JSON round-trips.
    name:
        Optional sweep label (defaults to the base label).
    derive_seeds:
        When false (default), every point inherits ``base.seed`` — the same
        initial graph and adversary stream at every grid point, so axis
        effects are not confounded with RNG changes.  When true, each
        point's ``seed`` is ``derive_seed(base.seed, "sweep", <canonical
        assignment>)`` — deterministic but independent per point (use for
        replicate-style sweeps).  Ignored when an axis sweeps ``seed``
        itself.
    replicates:
        How many independently-seeded copies of each grid point to expand
        (default 1 — the pre-replicate behavior, byte-for-byte).  With
        ``N > 1`` every point becomes ``N`` specs named
        ``<point>[rep=0] .. <point>[rep=N-1]``, each seeded
        ``derive_seed(base.seed, "sweep", <canonical assignment>,
        "replicate", rep)`` — so replicate fingerprints are pairwise
        distinct yet stable under axis reordering.  Incompatible with a
        ``seed`` axis (sweep the seed or replicate, not both).
    policy:
        Optional :class:`~repro.scenarios.policy.PointPolicy` bounding each
        point's execution (timeout, retries, backoff).  Purely operational:
        it never enters the expanded specs or their fingerprints, so
        changing the policy on a resume still matches every recorded
        artifact.  CLI flags (``--timeout`` / ``--max-retries`` /
        ``--backoff``) override it field-wise.
    executor:
        Optional name of the execution backend the sweep prefers
        (``serial``, ``process-pool``, ``subprocess-fleet``, or a
        third-party ``repro.executors`` entry point).  Operational like
        ``policy``: it never enters the expanded specs or their
        fingerprints, so any backend can resume a sweep started under any
        other.  ``repro sweep --executor`` overrides it.
    adaptive:
        Optional :class:`~repro.scenarios.adaptive.AdaptiveSpec` declaring a
        round-structured schedule (CI-driven replicate stopping, or
        successive halving over one axis).  Like ``policy``/``executor`` it
        is omitted from :meth:`to_dict` when unset, so pre-existing sweep
        documents keep their schema and fingerprints; unlike them it *does*
        change what runs — ``repro sweep`` routes an adaptive sweep through
        :func:`~repro.scenarios.adaptive.run_adaptive` instead of expanding
        the full grid.  Adaptive sweeps manage per-point replicate counts
        themselves, so ``replicates`` must stay 1 and a ``seed`` axis is
        rejected.

    A sweep file must carry ``base`` and ``axes``; ``axes`` defaults to
    empty only for sweeps built in code (``SweepSpec(base=..., replicates=N)``).
    """

    _required = ("axes",)
    _omit_none = ("policy", "executor", "adaptive")

    base: ScenarioSpec
    axes: dict = field(default_factory=dict)
    name: str | None = None
    derive_seeds: bool = False
    replicates: int = 1
    policy: PointPolicy | None = None
    executor: str | None = None
    adaptive: AdaptiveSpec | None = None

    @property
    def label(self) -> str:
        """Return the sweep's name (or the base scenario's label)."""
        return self.name or self.base.label

    def validate(self) -> "SweepSpec":
        """Check the base spec, every axis, the replicate count and the nested blocks."""
        for key, values in self.axes.items():
            require(
                isinstance(values, (list, tuple)) and len(values) > 0,
                f"axis {key!r} must map to a non-empty list of values",
            )
        self.base.validate()
        require(self.replicates >= 1, "replicates must be at least 1")
        require(
            bool(self.axes) or self.replicates > 1 or self.adaptive is not None,
            "a sweep needs at least one axis (or replicates > 1)",
        )
        require(
            not (self.replicates > 1 and "seed" in self.axes),
            "replicates > 1 derives a seed per replicate; it cannot be combined "
            "with a 'seed' axis — sweep the seed or replicate, not both",
        )
        if self.adaptive is not None:
            require(
                self.replicates == 1,
                "adaptive sweeps manage per-point replicate counts themselves; "
                "leave replicates at 1",
            )
            require(
                "seed" not in self.axes,
                "adaptive sweeps derive replicate seeds; they cannot be combined "
                "with a 'seed' axis",
            )
            self.adaptive.validate(self)
        if self.policy is not None:
            self.policy.validate()
        if self.executor is not None:
            # Resolve the name now (typo -> did-you-mean error at load time,
            # not after the grid has been half-executed).
            from repro.scenarios.registry import EXECUTORS

            EXECUTORS.get(self.executor)
        for key, values in self.axes.items():
            # Surface bad keys now rather than at expansion time.
            apply_axis(self.base, key, values[0])
        return self

    def points(self) -> list[dict]:
        """Return the grid as a list of ``{axis: value}`` assignments."""
        self.validate()
        assignments: list[dict] = [{}]
        for key in sorted(self.axes):
            values = self.axes[key]
            assignments = [
                {**assignment, key: value} for assignment in assignments for value in values
            ]
        return assignments

    def expand(self) -> list[ScenarioSpec]:
        """Cross-product the axes into concrete, individually-seeded specs.

        With ``replicates > 1`` the replicate id varies fastest: the grid is
        ``point0[rep=0..N-1], point1[rep=0..N-1], ...``, so a resumed run's
        artifact indices stay aligned with the un-replicated grid order.
        """
        specs: list[ScenarioSpec] = []
        sweeps_seed = any(key == "seed" for key in self.axes)
        for assignment in self.points():
            if self.replicates > 1:
                specs.extend(
                    replicate_spec(self.base, self.label, assignment, rep)
                    for rep in range(self.replicates)
                )
                continue
            spec = self.base
            for key, value in assignment.items():
                spec = apply_axis(spec, key, value)
            overrides: dict = {"name": point_label(self.label, assignment)}
            if self.derive_seeds and not sweeps_seed:
                overrides["seed"] = derive_seed(
                    self.base.seed, "sweep", assignment_canonical(assignment)
                )
            specs.append(spec.with_overrides(**overrides))
        return specs

    def fingerprint(self) -> str:
        """Return the sweep's canonical-JSON SHA-256 identity.

        Stable across axis *authoring* order (dict key order is canonicalized
        away); axis *value* order is semantic — it sets the grid order and
        point names — and therefore changes the fingerprint.
        """
        return canonical_fingerprint(self.to_dict())


# ``SweepSpec.adaptive``'s annotation names a class that module defines, and
# it imports this one: import it last, once every name above exists.
import repro.scenarios.adaptive  # noqa: E402,F401
