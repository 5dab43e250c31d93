"""Transient labels against pinned golden values (repro.sim.transient, repro.sim.rom).

``data/golden_transient.npz`` holds the labels of the first four tiny-fixture
traces, captured before the transient layer dropped its trapezoidal rule and
its zero start: full-order and reduced-order (gate off, so every label comes
from the reduced path), as one lockstep block and as blocks of one.
Full-order values are pinned at the ``golden_float64.npz`` tolerance and
``worst_time_index`` exactly; reduced-order maxima are reconstructed in
float32, so they are pinned at single-precision rounding.  Regenerate (only
for an intended label change) by calling :func:`capture` from ``tests/sim``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.pdn import small_test_design
from repro.sim.rom import ROMOptions
from repro.sim.transient import TransientEngine, TransientOptions
from repro.workloads import generate_test_vectors
from repro.workloads.vectors import VectorConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_transient.npz"
FIELDS = ("max_droop_per_node", "worst_droop", "worst_time_index", "final_droop")
SOLVERS = {
    "full": TransientOptions(),
    "rom": TransientOptions(solver_mode="rom", rom=ROMOptions(validate_vectors=0)),
}
LAYOUTS = {"block": None, "single": 1}


def labels(design, traces) -> dict[str, np.ndarray]:
    """Every pinned field, keyed ``"<solver>/<layout>/<field>"``."""
    out = {}
    for solver, options in SOLVERS.items():
        engine = TransientEngine(design.mna, traces[0].dt, options)
        for layout, batch_size in LAYOUTS.items():
            results = engine.run_many(traces, batch_size=batch_size)
            for field in FIELDS:
                out[f"{solver}/{layout}/{field}"] = np.array([getattr(r, field) for r in results])
    return out


def capture() -> None:
    """Write the golden file from the current code on the tiny fixture."""
    design = small_test_design(tile_rows=8, tile_cols=8, num_loads=48, seed=0)
    traces = generate_test_vectors(design, 10, VectorConfig(num_steps=80, dt=1e-11), seed=3)
    np.savez(GOLDEN_PATH, **labels(design, traces[:4]))


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return dict(data)


@pytest.fixture(scope="module")
def actual(tiny_design, tiny_traces):
    return labels(tiny_design, tiny_traces[:4])


def test_golden_covers_every_label(golden, actual):
    assert sorted(golden) == sorted(actual)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_labels_unchanged(golden, actual, solver, layout):
    tolerance = {"rtol": 1e-12, "atol": 1e-12} if solver == "full" else {"rtol": 1e-6}
    for field in ("max_droop_per_node", "worst_droop", "final_droop"):
        key = f"{solver}/{layout}/{field}"
        np.testing.assert_allclose(actual[key], golden[key], **tolerance)
    if solver == "full":
        key = f"full/{layout}/worst_time_index"
        np.testing.assert_array_equal(actual[key], golden[key])
