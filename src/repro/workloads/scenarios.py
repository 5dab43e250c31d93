"""The scenario library: registered workload families and trace building.

The example applications, the corpus factory, the eval sweep and the
screening gateway want recognisable, repeatable workloads rather than fully
random vectors.  Each scenario *family* registered here is a parameterized
builder that produces a deterministic cluster-activity profile
``(T, num_clusters + 1)``; a :class:`~repro.workloads.specs.ScenarioSpec`
selects one family member, and :func:`build_scenario_trace` turns it into a
:class:`~repro.sim.waveform.CurrentTrace` under the shared activity contract
of :mod:`repro.workloads.activity` (non-negative, clamped to the design
maximum — exactly like random vectors).

Registered families (see ``docs/workloads.md`` for the full catalogue):

* ``idle_to_turbo`` — all clusters ramp from near-idle to full activity,
  the classic DVFS ramp that excites both IR drop and resonance.
* ``power_virus`` — everything switches hard with a resonance-rate
  clock-gating pattern; an upper bound stress vector.
* ``clock_gating_storm`` — clusters toggle at staggered random phases,
  producing repeated di/dt events across the die.
* ``single_core_sprint`` — one cluster sprints while the rest idle (the
  localised-hotspot generator); on a design without clusters everything
  stays idle, because there is no single core to sprint.
* ``steady_state`` — constant medium activity; the near-DC reference.
* ``staggered_dvfs`` — clusters ramp up one after another at a fixed
  stagger, the multi-core DVFS rollout.
* ``thermal_throttle`` — sawtooth activity: heat up towards peak, throttle,
  recover — repeated over the trace.
* ``memory_phase`` — compute-bound and memory-bound phases alternate, with
  neighbouring clusters in antiphase.
* ``resonance_chirp`` — a clock-gating square wave whose period sweeps
  through the die-package resonance (finds the worst coupling frequency).
* ``didt_step_train`` — a train of sharp load steps with idle gaps, the
  classic di/dt qualification pattern.
* ``cluster_migration`` — one task's worth of activity hops from cluster to
  cluster (OS-level task migration).
* ``duty_cycle_sweep`` — resonance-rate clock gating whose duty cycle
  sweeps across the trace.
* ``mixed_criticality`` — a steady base load with periodic critical bursts
  on a random subset of clusters.

An all-defaults spec of one of the original five families builds a trace
bit-identical to the original hard-coded scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.pdn.designs import Design
from repro.sim.waveform import CurrentTrace
from repro.utils import check_positive
from repro.utils.random import RandomState, ensure_rng, spawn_rngs
from repro.workloads.activity import (
    DEFAULT_MAX_ACTIVITY,
    clamp_activity,
    cluster_activity_to_currents,
    num_activity_profiles,
    resonance_steps,
)
from repro.workloads.specs import (
    COMPOSITE_FAMILIES,
    ScenarioLike,
    ScenarioSpec,
    composite_weights,
    normalize_scenario,
)

#: Signature of a registered family builder: ``(design, num_steps, dt, rng,
#: **params) -> activity (num_steps, num_clusters + 1)``.
ScenarioBuilder = Callable[..., np.ndarray]


@dataclass(frozen=True)
class ScenarioFamily:
    """One registered scenario family: builder plus parameter defaults."""

    name: str
    builder: ScenarioBuilder
    defaults: tuple

    def resolve_params(self, spec: ScenarioSpec) -> dict:
        """Merge a spec's explicit params over the family defaults.

        Raises
        ------
        ValueError
            When the spec sets a parameter the family does not define.
        """
        params = dict(self.defaults)
        for key, value in spec.params:
            if key not in params:
                raise ValueError(
                    f"scenario family {self.name!r} has no parameter {key!r}; "
                    f"expected one of {sorted(params)}"
                )
            params[key] = value
        return params


_FAMILIES: Dict[str, ScenarioFamily] = {}


def register_scenario_family(name: str, **defaults) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Decorator registering a scenario family under ``name``.

    The keyword arguments are the family's parameters and their default
    values; a :class:`~repro.workloads.specs.ScenarioSpec` may override any
    subset of them (unknown names are rejected at build time).
    """
    if name in COMPOSITE_FAMILIES:
        raise ValueError(f"{name!r} is reserved for the composition algebra")

    def register(builder: ScenarioBuilder) -> ScenarioBuilder:
        if name in _FAMILIES:
            raise ValueError(f"scenario family {name!r} is already registered")
        _FAMILIES[name] = ScenarioFamily(
            name=name, builder=builder, defaults=tuple(defaults.items())
        )
        return builder

    return register


def scenario_families() -> tuple[str, ...]:
    """Names of the registered (leaf) scenario families, sorted."""
    return tuple(sorted(_FAMILIES))


def family_defaults(name: str) -> dict:
    """The parameter defaults of one registered family."""
    if name not in _FAMILIES:
        raise ValueError(
            f"unknown scenario family {name!r}; expected one of {scenario_families()}"
        )
    return dict(_FAMILIES[name].defaults)


def validate_scenario(scenario: ScenarioLike) -> ScenarioSpec:
    """Normalise a scenario reference and eagerly validate it.

    Walks the spec tree: every leaf family must be registered and every
    explicit leaf parameter must exist in its family.  Containers that
    embed specs (corpus specs, evaluation configs) call this at
    construction time, so a misspelled family fails where the spec is
    written rather than minutes later inside a worker process.  Families
    registered *after* the container is constructed are consequently not
    usable in it — register custom families at import time.

    Returns
    -------
    The normalised :class:`~repro.workloads.specs.ScenarioSpec`.

    Raises
    ------
    ValueError
        On an unknown family or parameter name anywhere in the tree.
    """
    spec = normalize_scenario(scenario)
    if spec.is_composite:
        composite_weights(spec)
        for child in spec.children:
            validate_scenario(child)
        return spec
    if spec.family not in _FAMILIES:
        raise ValueError(
            f"unknown scenario {spec.family!r}; expected one of {scenario_families()}"
        )
    _FAMILIES[spec.family].resolve_params(spec)
    return spec


# --------------------------------------------------------------------- #
# legacy families (defaults are bit-identical to the original closures)
# --------------------------------------------------------------------- #


@register_scenario_family("idle_to_turbo", base=0.1, swing=1.1, ramp_start=0.2, ramp_end=0.5)
def _idle_to_turbo(design, num_steps, dt, rng, base, swing, ramp_start, ramp_end):
    """DVFS ramp: every profile climbs from ``base`` to ``base + swing``."""
    num_profiles = num_activity_profiles(design)
    time_index = np.arange(num_steps)
    start = int(ramp_start * num_steps)
    end = int(ramp_end * num_steps)
    activity = np.full((num_steps, num_profiles), float(base))
    ramp = np.clip((time_index - start) / max(end - start, 1), 0.0, 1.0)
    activity += swing * ramp[:, np.newaxis]
    return activity


@register_scenario_family("power_virus", base=0.3, swing=1.5, period_scale=1.0, duty=0.5)
def _power_virus(design, num_steps, dt, rng, base, swing, period_scale, duty):
    """Everything gates at (scaled) resonance rate between ``base`` and peak."""
    num_profiles = num_activity_profiles(design)
    time_index = np.arange(num_steps)
    period = max(2, int(round(period_scale * 2 * resonance_steps(design, dt))))
    on_steps = int(round(duty * period))
    gate = ((time_index % period) < on_steps).astype(float)
    activity = base + swing * gate
    return np.tile(activity[:, np.newaxis], (1, num_profiles))


@register_scenario_family("clock_gating_storm", base=0.2, swing=1.2, period_scale=1.0, duty=0.5)
def _clock_gating_storm(design, num_steps, dt, rng, base, swing, period_scale, duty):
    """Every profile gates at the same rate but at a random phase."""
    num_profiles = num_activity_profiles(design)
    time_index = np.arange(num_steps)
    period = max(2, int(round(period_scale * 2 * resonance_steps(design, dt))))
    on_steps = int(round(duty * period))
    activity = np.empty((num_steps, num_profiles))
    for profile in range(num_profiles):
        phase = int(rng.integers(0, period))
        gate = (((time_index + phase) % period) < on_steps).astype(float)
        activity[:, profile] = base + swing * gate
    return activity


@register_scenario_family(
    "single_core_sprint", base=0.15, swing=1.6, center=0.55, width_scale=1.5
)
def _single_core_sprint(design, num_steps, dt, rng, base, swing, center, width_scale):
    """One randomly chosen cluster sprints while everything else idles.

    On a design without activity clusters there is no single core to
    sprint, so the trace stays at the idle baseline — the background loads
    must *not* all sprint together (that would be a power virus, not a
    sprint).
    """
    num_profiles = num_activity_profiles(design)
    num_clusters = design.loads.num_clusters
    time_index = np.arange(num_steps)
    activity = np.full((num_steps, num_profiles), float(base))
    if num_clusters == 0:
        return activity
    sprinting = int(rng.integers(0, num_clusters))
    burst_center = center * num_steps
    burst_width = max(2.0, width_scale * resonance_steps(design, dt))
    activity[:, sprinting] += swing * np.exp(
        -0.5 * ((time_index - burst_center) / burst_width) ** 2
    )
    return activity


@register_scenario_family("steady_state", level=0.6)
def _steady_state(design, num_steps, dt, rng, level):
    """Constant activity everywhere — the near-DC reference."""
    return np.full((num_steps, num_activity_profiles(design)), float(level))


# --------------------------------------------------------------------- #
# new parameterized families
# --------------------------------------------------------------------- #


@register_scenario_family(
    "staggered_dvfs", base=0.1, swing=1.2, start=0.1, stagger=0.08, ramp=0.2
)
def _staggered_dvfs(design, num_steps, dt, rng, base, swing, start, stagger, ramp):
    """Clusters ramp up one after another; background stays at ``base``."""
    num_profiles = num_activity_profiles(design)
    num_clusters = design.loads.num_clusters
    time_index = np.arange(num_steps)
    activity = np.full((num_steps, num_profiles), float(base))
    for cluster in range(num_clusters):
        ramp_start = (start + cluster * stagger) * num_steps
        ramp_steps = max(ramp * num_steps, 1.0)
        rise = np.clip((time_index - ramp_start) / ramp_steps, 0.0, 1.0)
        activity[:, cluster] += swing * rise
    return activity


@register_scenario_family(
    "thermal_throttle", base=0.3, peak=1.5, throttle=0.6, period=0.25
)
def _thermal_throttle(design, num_steps, dt, rng, base, peak, throttle, period):
    """Sawtooth: climb towards ``peak``, throttle back, climb again."""
    num_profiles = num_activity_profiles(design)
    time_index = np.arange(num_steps)
    period_steps = max(2, int(round(period * num_steps)))
    phase = (time_index % period_steps) / period_steps
    first = time_index < period_steps
    level = np.where(
        first, base + (peak - base) * phase, throttle + (peak - throttle) * phase
    )
    return np.tile(level[:, np.newaxis], (1, num_profiles))


@register_scenario_family(
    "memory_phase", compute=1.3, memory=0.25, phase=0.15, antiphase=True
)
def _memory_phase(design, num_steps, dt, rng, compute, memory, phase, antiphase):
    """Compute-bound and memory-bound phases alternate per profile."""
    num_profiles = num_activity_profiles(design)
    time_index = np.arange(num_steps)
    phase_steps = max(2, int(round(phase * num_steps)))
    block = (time_index // phase_steps) % 2
    activity = np.empty((num_steps, num_profiles))
    for profile in range(num_profiles):
        flipped = block ^ 1 if (antiphase and profile % 2 == 1) else block
        activity[:, profile] = np.where(flipped == 0, compute, memory)
    return activity


@register_scenario_family(
    "resonance_chirp", base=0.2, swing=1.4, start_scale=0.5, stop_scale=2.0
)
def _resonance_chirp(design, num_steps, dt, rng, base, swing, start_scale, stop_scale):
    """Square-wave gating whose period sweeps through the resonance period."""
    num_profiles = num_activity_profiles(design)
    full_period = 2 * resonance_steps(design, dt)
    periods = np.maximum(np.linspace(start_scale, stop_scale, num_steps) * full_period, 2.0)
    phase = np.cumsum(1.0 / periods)
    gate = ((phase % 1.0) < 0.5).astype(float)
    activity = base + swing * gate
    return np.tile(activity[:, np.newaxis], (1, num_profiles))


@register_scenario_family(
    "didt_step_train", base=0.2, swing=1.5, events=4, hold=0.06
)
def _didt_step_train(design, num_steps, dt, rng, base, swing, events, hold):
    """Evenly spaced sharp load steps with idle gaps (di/dt qualification)."""
    num_profiles = num_activity_profiles(design)
    events = max(1, int(events))
    hold_steps = max(1, int(round(hold * num_steps)))
    gate = np.zeros(num_steps)
    for event in range(events):
        start = int((event + 0.5) * num_steps / events) - hold_steps // 2
        start = max(0, start)
        gate[start:start + hold_steps] = 1.0
    activity = base + swing * gate
    return np.tile(activity[:, np.newaxis], (1, num_profiles))


@register_scenario_family("cluster_migration", base=0.15, swing=1.5, dwell=0.2)
def _cluster_migration(design, num_steps, dt, rng, base, swing, dwell):
    """One task's activity hops between clusters every ``dwell`` fraction."""
    num_profiles = num_activity_profiles(design)
    num_clusters = design.loads.num_clusters
    time_index = np.arange(num_steps)
    activity = np.full((num_steps, num_profiles), float(base))
    if num_clusters == 0:
        return activity
    dwell_steps = max(1, int(round(dwell * num_steps)))
    start_cluster = int(rng.integers(0, num_clusters))
    active = (start_cluster + time_index // dwell_steps) % num_clusters
    for cluster in range(num_clusters):
        activity[active == cluster, cluster] += swing
    return activity


@register_scenario_family(
    "duty_cycle_sweep", base=0.2, swing=1.3, period_scale=1.0, duty_start=0.1, duty_stop=0.9
)
def _duty_cycle_sweep(design, num_steps, dt, rng, base, swing, period_scale, duty_start, duty_stop):
    """Resonance-rate gating whose duty cycle sweeps across the trace."""
    num_profiles = num_activity_profiles(design)
    time_index = np.arange(num_steps)
    period = max(2, int(round(period_scale * 2 * resonance_steps(design, dt))))
    duty = np.linspace(duty_start, duty_stop, num_steps)
    gate = ((time_index % period) < duty * period).astype(float)
    activity = base + swing * gate
    return np.tile(activity[:, np.newaxis], (1, num_profiles))


@register_scenario_family(
    "mixed_criticality", base=0.45, swing=1.2, critical_fraction=0.5,
    period_scale=4.0, duty=0.25,
)
def _mixed_criticality(design, num_steps, dt, rng, base, swing, critical_fraction, period_scale, duty):
    """Steady base load plus periodic critical bursts on a cluster subset.

    The critical clusters are a random subset (``critical_fraction`` of the
    design's clusters, at least one); on a design without clusters the
    background profile carries the critical bursts.
    """
    num_profiles = num_activity_profiles(design)
    num_clusters = design.loads.num_clusters
    time_index = np.arange(num_steps)
    activity = np.full((num_steps, num_profiles), float(base))
    if num_clusters > 0:
        count = max(1, int(round(critical_fraction * num_clusters)))
        critical = rng.permutation(num_clusters)[:count]
    else:
        critical = np.array([0])
    period = max(2, int(round(period_scale * 2 * resonance_steps(design, dt))))
    on_steps = max(1, int(round(duty * period)))
    for profile in critical:
        phase = int(rng.integers(0, period))
        gate = (((time_index + phase) % period) < on_steps).astype(float)
        activity[:, int(profile)] += swing * gate
    return activity


# --------------------------------------------------------------------- #
# building specs into activities and traces
# --------------------------------------------------------------------- #


def _concat_bounds(num_steps: int, parts: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[start, stop)`` segments of a trace."""
    if num_steps < parts:
        raise ValueError(
            f"cannot split {num_steps} steps into {parts} concatenated scenarios"
        )
    edges = [round(part * num_steps / parts) for part in range(parts + 1)]
    return [(edges[part], edges[part + 1]) for part in range(parts)]


def build_scenario_activity(
    scenario: ScenarioLike,
    design: Design,
    num_steps: int,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Build a spec's raw (unclamped) activity matrix, recursively.

    Composite specs derive one child generator per child via
    :func:`~repro.utils.random.spawn_rngs`, so a composition is exactly as
    deterministic as its parts.

    Parameters
    ----------
    scenario:
        A family name or :class:`~repro.workloads.specs.ScenarioSpec`.
    design:
        Target design.
    num_steps / dt:
        Trace length and time step.
    rng:
        Generator for the scenario's (small) random choices.

    Returns
    -------
    Activity matrix of shape ``(num_steps, num_clusters + 1)``.
    """
    spec = normalize_scenario(scenario)
    if spec.is_composite:
        explicit_weights = composite_weights(spec)
        child_rngs = spawn_rngs(rng, len(spec.children))
        if spec.family == "concat":
            parts = []
            for child, (start, stop), child_rng in zip(
                spec.children, _concat_bounds(num_steps, len(spec.children)), child_rngs
            ):
                parts.append(
                    build_scenario_activity(child, design, stop - start, dt, child_rng)
                )
            return np.vstack(parts)
        stacked = np.stack(
            [
                build_scenario_activity(child, design, num_steps, dt, child_rng)
                for child, child_rng in zip(spec.children, child_rngs)
            ]
        )
        if spec.family == "overlay":
            return stacked.sum(axis=0)
        if explicit_weights is None:
            explicit_weights = (1.0,) * len(spec.children)
        weights = np.asarray(explicit_weights, dtype=float)
        weights = weights / weights.sum()
        return np.einsum("c,cij->ij", weights, stacked)
    if spec.family not in _FAMILIES:
        raise ValueError(
            f"unknown scenario {spec.family!r}; expected one of {scenario_families()}"
        )
    family = _FAMILIES[spec.family]
    return family.builder(design, num_steps, dt, rng, **family.resolve_params(spec))


def build_scenario_trace(
    scenario: ScenarioLike,
    design: Design,
    num_steps: int = 400,
    dt: float = 1e-11,
    seed: RandomState = 0,
    max_activity: float = DEFAULT_MAX_ACTIVITY,
    name: Optional[str] = None,
) -> CurrentTrace:
    """Build a scenario spec into a :class:`~repro.sim.waveform.CurrentTrace`.

    The activity is clamped to ``[0, max_activity]`` before it becomes
    currents — scenarios obey the same physical activity contract as random
    vectors (see :mod:`repro.workloads.activity`), no matter how many
    overlays stack up.

    Parameters
    ----------
    scenario:
        A family name (defaults) or a :class:`~repro.workloads.specs.
        ScenarioSpec` (family + parameters, possibly composite).
    design:
        Target design.
    num_steps / dt:
        Trace length and time step.
    seed:
        Seed for the scenario's (small) random choices, e.g. which cluster
        sprints.
    max_activity:
        Upper activity clamp (fraction of nominal current).
    name:
        Trace name; defaults to ``"<design>-<scenario label>"``.
    """
    spec = normalize_scenario(scenario)
    if num_steps < 2:
        raise ValueError(f"num_steps must be >= 2, got {num_steps}")
    check_positive(dt, "dt")
    rng = ensure_rng(seed)
    activity = build_scenario_activity(spec, design, num_steps, dt, rng)
    currents = cluster_activity_to_currents(
        design, clamp_activity(activity, max_activity)
    )
    return CurrentTrace(currents, dt, name=name or f"{design.name}-{spec.label}")
