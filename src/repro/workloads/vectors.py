"""Random test-vector (switching-current trace) generation.

For sign-off, the paper randomly generates 500 groups of test vectors per
design and simulates each one with the commercial tool (Sec. 4.1).  A test
vector here is a :class:`~repro.sim.waveform.CurrentTrace`: per-load currents
over time.  The generator composes each vector from cluster-level activity
profiles so that traces look like real workloads rather than white noise:

* a baseline activity level (leakage plus background switching),
* a handful of activity *events* per cluster — bursts, steps, ramps and
  clock-gated square waves,
* optional resonance-tuned bursts whose width matches the die-package
  resonance period, the mechanism that actually produces worst-case dynamic
  noise,
* per-load, per-stamp toggling jitter on top of the cluster profile.

The same generator drives the training-set creation and the evaluation
vectors, mirroring the paper's "small set of randomly produced test vectors".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pdn.designs import Design
from repro.sim.waveform import CurrentTrace
from repro.utils import check_positive
from repro.utils.random import RandomState, ensure_rng, spawn_rngs
from repro.workloads.activity import clamp_activity, resonance_steps

#: Event kinds the generator can compose into an activity profile.
EVENT_KINDS = ("burst", "step", "ramp", "clock_gate")

#: Range of the per-cluster baseline activity (fraction of nominal current).
BASELINE_RANGE = (0.05, 0.25)

#: Range of the per-event peak activity.
PEAK_RANGE = (0.6, 1.6)

#: Inclusive range of the number of activity events per cluster.
EVENTS_PER_CLUSTER = (1, 4)

#: Probability that a burst event is tuned to the die-package resonance
#: period (these are the vectors that produce the deepest droops).
RESONANCE_PROBABILITY = 0.5

#: Relative per-load, per-stamp jitter applied on top of the cluster
#: activity (models instance-level toggling randomness).
TOGGLE_JITTER = 0.35

#: Probability that a cluster stays idle (baseline only) for the whole
#: vector, which keeps the dataset from saturating every tile every time.
IDLE_PROBABILITY = 0.15


@dataclass(frozen=True)
class VectorConfig:
    """Parameters of the random test-vector generator.

    The activity shape is fixed by the module constants above; cluster
    activity is clamped to
    :data:`~repro.workloads.activity.DEFAULT_MAX_ACTIVITY`, the bound the
    scenario builders share.

    Attributes
    ----------
    num_steps:
        Number of time stamps per vector.
    dt:
        Time step in seconds (the paper uses 1 ps; the default here is 10 ps
        to keep the scaled designs' traces short while still resolving the
        die-package resonance of the synthetic designs).
    """

    num_steps: int = 400
    dt: float = 1e-11

    def __post_init__(self) -> None:
        if self.num_steps < 2:
            raise ValueError(f"num_steps must be >= 2, got {self.num_steps}")
        check_positive(self.dt, "dt")


class TestVectorGenerator:
    """Generates random switching-current traces for one design.

    Parameters
    ----------
    design:
        The design whose loads (and clusters) the vectors excite.
    config:
        Generator parameters.
    """

    # Tell pytest this is library code, not a test class, despite the name.
    __test__ = False

    def __init__(self, design: Design, config: VectorConfig = VectorConfig()):
        self._design = design
        self._config = config
        # Width (in time stamps) of a half resonance period: a burst of this
        # width couples most strongly into the resonance.
        self._resonance_steps = resonance_steps(design, config.dt)

    @property
    def config(self) -> VectorConfig:
        """Generator configuration."""
        return self._config

    @property
    def resonance_steps(self) -> int:
        """Burst width (time stamps) matched to the die-package resonance."""
        return self._resonance_steps

    def generate(self, seed: RandomState = None, name: str = "") -> CurrentTrace:
        """Generate one random test vector."""
        rng = ensure_rng(seed)
        config = self._config
        design = self._design
        num_steps = config.num_steps
        num_loads = design.num_loads

        cluster_ids = design.loads.cluster_id
        num_clusters = design.loads.num_clusters
        time_index = np.arange(num_steps)

        # Activity profile per cluster, plus one profile (index -1 -> last row)
        # for the background loads.
        profiles = np.empty((num_clusters + 1, num_steps))
        for cluster in range(num_clusters + 1):
            profiles[cluster] = self._cluster_profile(rng, time_index)

        # Map loads to their profile row.
        profile_row = np.where(cluster_ids >= 0, cluster_ids, num_clusters)
        activity = profiles[profile_row, :].T  # (T, L)

        # Per-load toggling jitter.
        jitter = rng.uniform(1.0 - TOGGLE_JITTER, 1.0 + TOGGLE_JITTER, size=activity.shape)
        activity = activity * jitter

        currents = activity * design.loads.nominal_currents[np.newaxis, :]
        currents = np.clip(currents, 0.0, None)
        return CurrentTrace(currents, config.dt, name=name)

    def generate_suite(self, count: int, seed: RandomState = None) -> list[CurrentTrace]:
        """Generate ``count`` independent vectors (reproducible from one seed)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rngs = spawn_rngs(seed, count)
        return [
            self.generate(rng, name=f"{self._design.name}-v{i:04d}") for i, rng in enumerate(rngs)
        ]

    # ------------------------------------------------------------------ #
    # profile construction
    # ------------------------------------------------------------------ #

    def _cluster_profile(self, rng: np.random.Generator, time_index: np.ndarray) -> np.ndarray:
        """Activity profile (fraction of nominal current) for one cluster."""
        num_steps = time_index.shape[0]
        baseline = rng.uniform(*BASELINE_RANGE)
        profile = np.full(num_steps, baseline)
        if rng.random() < IDLE_PROBABILITY:
            return profile

        num_events = int(rng.integers(EVENTS_PER_CLUSTER[0], EVENTS_PER_CLUSTER[1] + 1))
        for _ in range(num_events):
            kind = EVENT_KINDS[int(rng.integers(0, len(EVENT_KINDS)))]
            peak = rng.uniform(*PEAK_RANGE)
            profile += self._event(rng, time_index, kind, peak)
        return clamp_activity(profile)

    def _event(
        self,
        rng: np.random.Generator,
        time_index: np.ndarray,
        kind: str,
        peak: float,
    ) -> np.ndarray:
        """One activity event of the given kind and peak amplitude."""
        num_steps = time_index.shape[0]
        center = rng.uniform(0.1, 0.9) * num_steps
        if kind == "burst":
            if rng.random() < RESONANCE_PROBABILITY:
                width = self._resonance_steps
            else:
                width = rng.uniform(0.02, 0.15) * num_steps
            return peak * np.exp(-0.5 * ((time_index - center) / max(width, 1.0)) ** 2)
        if kind == "step":
            start = int(rng.uniform(0.1, 0.8) * num_steps)
            profile = np.zeros(num_steps)
            profile[start:] = peak
            return profile
        if kind == "ramp":
            start = int(rng.uniform(0.05, 0.6) * num_steps)
            length = max(2, int(rng.uniform(0.1, 0.4) * num_steps))
            end = min(num_steps, start + length)
            profile = np.zeros(num_steps)
            if end - start < 2:
                # Degenerate ramp (num_steps == 2 can truncate the ramp to a
                # single stamp): linspace(0, peak, 1) would contribute
                # nothing, so jump straight to the peak instead.
                profile[start:end] = peak
            else:
                profile[start:end] = np.linspace(0.0, peak, end - start)
            profile[end:] = peak
            return profile
        if kind == "clock_gate":
            period = max(2, int(rng.uniform(1.0, 4.0) * self._resonance_steps))
            duty = rng.uniform(0.3, 0.7)
            phase = rng.integers(0, period)
            on = ((time_index + phase) % period) < duty * period
            start = int(rng.uniform(0.0, 0.5) * num_steps)
            end = int(rng.uniform(0.6, 1.0) * num_steps)
            window = (time_index >= start) & (time_index < end)
            return peak * (on & window)
        raise ValueError(f"unknown event kind {kind!r}")


def generate_test_vectors(
    design: Design,
    count: int,
    config: VectorConfig = VectorConfig(),
    seed: RandomState = 0,
) -> list[CurrentTrace]:
    """Convenience wrapper: build a generator and produce ``count`` vectors."""
    return TestVectorGenerator(design, config).generate_suite(count, seed)
