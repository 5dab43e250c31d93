"""The cluster-activity contract shared by every workload generator.

Both the random test-vector generator (:mod:`repro.workloads.vectors`) and
the scenario library (:mod:`repro.workloads.scenarios`) describe a workload
the same way: a per-cluster *activity* matrix of shape
``(num_steps, num_clusters + 1)`` — one column per activity cluster plus a
final column for the background loads — expressed as a fraction of each
load's nominal current.  This module holds the pieces of that contract that
must agree between the two generators:

* :data:`DEFAULT_MAX_ACTIVITY` / :func:`clamp_activity` — the physical
  activity bounds.  A circuit cannot draw negative current, and it cannot
  switch harder than its design maximum no matter how many events or
  scenario overlays stack up, so *every* activity profile is clamped to
  ``[0, DEFAULT_MAX_ACTIVITY]`` before it becomes currents.
* :func:`resonance_steps` — the half die-package resonance period expressed
  in time stamps, the width at which bursts couple most strongly into the
  resonance.  Previously duplicated between the scenario builders and
  ``TestVectorGenerator``; this is now the single definition.
* :func:`cluster_activity_to_currents` — the expansion from cluster
  activity to per-load currents via the design's cluster map.
"""

from __future__ import annotations

import numpy as np

from repro.pdn.designs import Design
from repro.utils import check_positive

#: Upper clamp on cluster activity (fraction of nominal current).  Shared by
#: :class:`~repro.workloads.vectors.TestVectorGenerator` and the scenario
#: builders so random vectors and scenarios obey the same physical bound.
DEFAULT_MAX_ACTIVITY = 2.0


def resonance_steps(design: Design, dt: float) -> int:
    """Half die-package resonance period in time stamps (always >= 2).

    A current burst of this width couples most strongly into the die-package
    resonance — the mechanism that produces the deepest dynamic droops.

    Parameters
    ----------
    design:
        The design whose package and total die decap set the resonance.
    dt:
        Time-step in seconds.
    """
    check_positive(dt, "dt")
    resonance = design.spec.package.resonance_frequency(max(design.grid.total_decap, 1e-15))
    return max(2, int(round(0.5 / (resonance * dt))))


def num_activity_profiles(design: Design) -> int:
    """Columns of a design's activity matrix: one per cluster plus background."""
    return design.loads.num_clusters + 1


def clamp_activity(activity: np.ndarray) -> np.ndarray:
    """Clamp an activity profile to ``[0, DEFAULT_MAX_ACTIVITY]``.

    Parameters
    ----------
    activity:
        Activity values (any shape), as fractions of nominal current.

    Returns
    -------
    A new clipped array.
    """
    return np.clip(activity, 0.0, DEFAULT_MAX_ACTIVITY)


def cluster_activity_to_currents(design: Design, activity: np.ndarray) -> np.ndarray:
    """Expand cluster activity ``(T, num_clusters + 1)`` to per-load currents.

    Loads follow the column of their activity cluster; background loads
    (``cluster_id == -1``) follow the final column.

    Parameters
    ----------
    design:
        The design whose loads the activity drives.
    activity:
        Activity matrix of shape ``(T, num_clusters + 1)``.

    Returns
    -------
    Per-load currents in amperes, shape ``(T, num_loads)``.
    """
    activity = np.asarray(activity, dtype=float)
    expected = num_activity_profiles(design)
    if activity.ndim != 2 or activity.shape[1] != expected:
        raise ValueError(
            f"activity must have shape (T, {expected}) for {design.name}, "
            f"got {activity.shape}"
        )
    cluster_ids = design.loads.cluster_id
    num_clusters = design.loads.num_clusters
    profile_row = np.where(cluster_ids >= 0, cluster_ids, num_clusters)
    per_load_activity = activity[:, profile_row]
    return per_load_activity * design.loads.nominal_currents[np.newaxis, :]
