"""Declarative scenario specifications and the composition algebra.

A :class:`ScenarioSpec` names a scenario *family* (a parameterized builder
registered in :mod:`repro.workloads.scenarios`) plus the parameter values
that select one member of that family — mirroring the conventions of
:class:`~repro.datagen.spec.CorpusSpec`: frozen, picklable, canonically
hashable (:meth:`ScenarioSpec.config_hash`) and JSON round-trippable
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`), so specs
can be embedded in corpus specs, evaluation configs and sweep manifests and
covered by their hashes.

Three *composite* families form the composition algebra; arbitrarily many
workload variants derive from few primitives by nesting them:

* :func:`overlay` — activities of the children are summed (events stack);
* :func:`concat`  — the trace is split into consecutive segments, one per
  child (phases follow each other);
* :func:`mix`     — a weighted average of the children's activities.

Composites are ordinary specs (``family`` is ``"overlay"`` / ``"concat"`` /
``"mix"`` with child specs attached), so they serialize, hash and pickle
like any leaf spec and can be nested to any depth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

__all__ = [
    "COMPOSITE_FAMILIES",
    "ParamValue",
    "ScenarioLike",
    "ScenarioSpec",
    "scenario_spec",
    "normalize_scenario",
    "composite_weights",
    "overlay",
    "concat",
    "mix",
]

#: Families with child specs instead of a registered builder.
COMPOSITE_FAMILIES = ("overlay", "concat", "mix")

#: Types a scenario parameter value may take (scalars, or a tuple of floats
#: for vector-valued parameters such as mix weights).
ParamValue = Union[bool, int, float, str, tuple]

#: Anything accepted where a scenario is expected: a family name (meaning
#: "that family at its default parameters") or a full spec.
ScenarioLike = Union[str, "ScenarioSpec"]


def _canonical_value(key: str, value) -> ParamValue:
    """Validate and canonicalise one parameter value."""
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        items = tuple(value)
        if not all(isinstance(item, (bool, int, float)) for item in items):
            raise TypeError(f"parameter {key!r}: tuple values must be numeric, got {value!r}")
        return items
    raise TypeError(
        f"parameter {key!r} must be a bool/int/float/str or a numeric tuple, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One parameterized workload scenario (family + parameters + children).

    Attributes
    ----------
    family:
        A scenario family registered in :mod:`repro.workloads.scenarios`,
        or one of :data:`COMPOSITE_FAMILIES`.
    params:
        Canonical ``(key, value)`` pairs, sorted by key.  Omitted parameters
        take the family's registered defaults; the constructor helper
        :func:`scenario_spec` accepts them as keyword arguments.
    children:
        Child specs (composite families only).
    """

    family: str
    params: tuple = ()
    children: tuple = ()

    def __post_init__(self) -> None:
        if not self.family or not isinstance(self.family, str):
            raise ValueError(f"family must be a non-empty string, got {self.family!r}")
        pairs = []
        for entry in self.params:
            key, value = entry
            if not isinstance(key, str) or not key:
                raise ValueError(f"parameter names must be non-empty strings, got {key!r}")
            pairs.append((key, _canonical_value(key, value)))
        keys = [key for key, _ in pairs]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate parameter names in {keys}")
        object.__setattr__(self, "params", tuple(sorted(pairs)))
        children = tuple(
            child if isinstance(child, ScenarioSpec) else normalize_scenario(child)
            for child in self.children
        )
        object.__setattr__(self, "children", children)
        if self.family in COMPOSITE_FAMILIES:
            if not children:
                raise ValueError(f"composite family {self.family!r} needs at least one child")
        elif children:
            raise ValueError(
                f"family {self.family!r} is not composite and cannot have children"
            )

    @property
    def is_composite(self) -> bool:
        """Whether this spec composes child specs rather than a builder."""
        return self.family in COMPOSITE_FAMILIES

    def param_dict(self) -> dict:
        """The explicit parameters as a plain dict."""
        return dict(self.params)

    def param(self, name: str, default=None):
        """One explicit parameter value, or ``default`` when unset."""
        return self.param_dict().get(name, default)

    @property
    def label(self) -> str:
        """Short human-readable identifier, stable across processes.

        The bare family name for an all-defaults leaf spec (so legacy named
        scenarios keep their old labels in sweep manifests), otherwise the
        family plus the first 8 hex digits of :meth:`config_hash`.
        """
        if not self.params and not self.children:
            return self.family
        return f"{self.family}[{self.config_hash()[:8]}]"

    def to_dict(self) -> dict:
        """JSON-serialisable representation (params as a plain mapping)."""
        payload: dict = {"family": self.family}
        if self.params:
            payload["params"] = {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in self.params
            }
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: Union[Mapping, str]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a bare name)."""
        if isinstance(payload, str):
            return cls(family=payload)
        params = tuple(
            (key, tuple(value) if isinstance(value, list) else value)
            for key, value in dict(payload.get("params", {})).items()
        )
        children = tuple(
            cls.from_dict(child) for child in payload.get("children", ())
        )
        return cls(family=payload["family"], params=params, children=children)

    def config_hash(self) -> str:
        """Canonical SHA-256 of the spec.

        Two specs hash equally iff their canonical JSON forms match —
        parameter order never matters, explicit parameters always do (a spec
        that spells out a default hashes differently from one that omits it,
        exactly like the corpus spec convention).
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def scenario_spec(family: str, **params) -> ScenarioSpec:
    """Build a leaf :class:`ScenarioSpec` from keyword parameters."""
    return ScenarioSpec(family=family, params=tuple(params.items()))


def normalize_scenario(scenario: ScenarioLike) -> ScenarioSpec:
    """Coerce a scenario reference (name or spec) into a :class:`ScenarioSpec`."""
    if isinstance(scenario, ScenarioSpec):
        return scenario
    if isinstance(scenario, str):
        return ScenarioSpec(family=scenario)
    raise TypeError(
        f"expected a scenario name or ScenarioSpec, got {type(scenario).__name__}"
    )


def composite_weights(spec: ScenarioSpec) -> Optional[tuple]:
    """Validate a composite spec's parameters; return the ``mix`` weights.

    The :func:`overlay`/:func:`concat`/:func:`mix` constructors build
    well-formed specs, but :meth:`ScenarioSpec.from_dict` (and direct
    construction) can produce composites with misspelled or invalid
    parameters; both the eager container validation and the build path run
    every composite through this check so such specs fail loudly instead
    of being silently ignored or dividing by zero.

    Returns
    -------
    The explicit ``mix`` weights as a tuple, or ``None`` (no weights set /
    not a ``mix``).

    Raises
    ------
    ValueError
        When the spec is not composite, sets a parameter its family does
        not define, or sets malformed weights (wrong count, negative, or a
        non-positive sum).
    """
    if not spec.is_composite:
        raise ValueError(f"{spec.family!r} is not a composite family")
    params = spec.param_dict()
    allowed = {"weights"} if spec.family == "mix" else set()
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ValueError(
            f"composite family {spec.family!r} has no parameter(s) {unknown}"
        )
    weights = params.get("weights")
    if weights is None:
        return None
    if not isinstance(weights, tuple):
        weights = (weights,)
    if not all(isinstance(w, (int, float)) for w in weights):
        raise ValueError(f"mix weights must be numeric, got {weights!r}")
    if len(weights) != len(spec.children):
        raise ValueError(
            f"mix needs one weight per child, got {len(weights)} "
            f"for {len(spec.children)} children"
        )
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError(
            f"weights must be non-negative with a positive sum, got {weights}"
        )
    return weights


def overlay(*scenarios: ScenarioLike) -> ScenarioSpec:
    """Compose scenarios by summing their activities (events stack).

    The overlaid activity is the element-wise sum of the children's
    activities; the shared ``[0, max_activity]`` clamp still applies when
    the composed spec is built into a trace.
    """
    return ScenarioSpec(
        family="overlay", children=tuple(normalize_scenario(s) for s in scenarios)
    )


def concat(*scenarios: ScenarioLike) -> ScenarioSpec:
    """Compose scenarios as consecutive phases of one trace.

    The trace's ``num_steps`` is split into one contiguous segment per child
    (balanced to within one stamp); each child is built at its segment
    length.  Building requires ``num_steps >= len(children)``.
    """
    return ScenarioSpec(
        family="concat", children=tuple(normalize_scenario(s) for s in scenarios)
    )


def mix(
    scenarios: Sequence[ScenarioLike], weights: Optional[Sequence[float]] = None
) -> ScenarioSpec:
    """Compose scenarios as a weighted average of their activities.

    Parameters
    ----------
    scenarios:
        The child scenarios.
    weights:
        One non-negative weight per child (normalised to sum to 1 at build
        time); uniform when omitted.
    """
    children = tuple(normalize_scenario(s) for s in scenarios)
    params: tuple = ()
    if weights is not None:
        params = (("weights", tuple(float(w) for w in weights)),)
    spec = ScenarioSpec(family="mix", params=params, children=children)
    composite_weights(spec)
    return spec
