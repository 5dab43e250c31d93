"""Memory regression tests of the labelling stages (trace -> solve -> features).

Each stage must hold at most one copy of a block of currents (or, for the
ROM build, of the Krylov moment stack) on top of what it returns.  Peaks are
``tracemalloc`` peaks counted above the memory that was live when the stage
began; numpy reports its array buffers to ``tracemalloc``, so every dense
temporary counts.  The budgets are sums of the arrays a stage legitimately
holds; a second stacked or transposed copy of the block overshoots them.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.features.extraction import extract_vector_features_batch
from repro.pdn import small_test_design
from repro.sim.rom import ReducedOrderStrategy, ROMOptions
from repro.sim.transient import FullOrderStrategy, TransientOptions
from repro.workloads import generate_test_vectors
from repro.workloads.vectors import VectorConfig

DT = 1e-11
NUM_TRACES = 8
NUM_STEPS = 200
ROM_RANK = 8
FLOAT = np.dtype(np.float64).itemsize


def traced_peak(fn):
    """``(peak_bytes, result)`` of ``fn()``; the peak is above live memory."""
    tracemalloc.start()
    try:
        live, _ = tracemalloc.get_traced_memory()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture(scope="module")
def load_heavy_design():
    """Many loads on a small mesh, so a block of currents dwarfs the state."""
    return small_test_design(tile_rows=4, tile_cols=4, num_loads=200, seed=0)


@pytest.fixture(scope="module")
def block(load_heavy_design):
    return generate_test_vectors(
        load_heavy_design, NUM_TRACES, VectorConfig(num_steps=NUM_STEPS, dt=DT), seed=3
    )


@pytest.fixture(scope="module")
def full_strategy(load_heavy_design, block):
    strategy = FullOrderStrategy(load_heavy_design.mna, DT, TransientOptions())
    strategy.run_block(block[:1])  # builds the lazy DC solver outside the measurement
    return strategy


def block_bytes(traces) -> int:
    """Bytes of one copy of the block's currents."""
    return sum(trace.currents.nbytes for trace in traces)


def state_bytes(mna, num_traces: int) -> int:
    """A dozen ``(N, V)`` arrays: droop, RHS, solve output and result columns."""
    return 12 * mna.num_nodes * num_traces * FLOAT


def test_feature_batch_holds_no_copy_of_the_block(load_heavy_design, block):
    peak, features = traced_peak(
        lambda: extract_vector_features_batch(block, load_heavy_design, compression_rate=None)
    )
    outputs = sum(item.current_maps.nbytes for item in features)
    assert peak <= block_bytes(block) + outputs, (peak, block_bytes(block), outputs)


def test_full_order_block_stacks_its_currents_once(load_heavy_design, block, full_strategy):
    peak, _ = traced_peak(lambda: full_strategy.run_block(block))
    budget = block_bytes(block) + state_bytes(load_heavy_design.mna, len(block))
    assert peak <= budget, (peak, budget)


def test_rom_block_frees_its_currents_before_reconstruction(
    load_heavy_design, block, full_strategy
):
    mna = load_heavy_design.mna
    rom = ReducedOrderStrategy.build(full_strategy, ROMOptions(rank=ROM_RANK))
    rom.run_block(block[:1])
    peak, _ = traced_peak(lambda: rom.run_block(block))
    # Drive, pending states and their stacked float64 + float32 chunk.
    reduced = 4 * rom.rank * NUM_STEPS * len(block) * FLOAT
    # One float32 reconstruction chunk of every stamp (the chunk cap is far
    # above this fixture).
    frames = mna.num_nodes * (NUM_STEPS - 1) * len(block) * np.dtype(np.float32).itemsize
    budget = max(block_bytes(block), frames) + reduced + state_bytes(mna, len(block))
    assert peak <= budget, (peak, budget)


def test_rom_build_holds_one_moment_stack():
    # Many nodes, few ports: the moment stack dwarfs the Gram eigenproblem.
    design = small_test_design(tile_rows=24, tile_cols=24, num_loads=60, seed=0)
    mna = design.mna
    full = FullOrderStrategy(mna, DT, TransientOptions())
    options = ROMOptions(rank=16)
    ReducedOrderStrategy.build(full, options)  # warm-up: LAPACK/BLAS first-call state
    peak, rom = traced_peak(lambda: ReducedOrderStrategy.build(full, options))
    ports = mna.num_loads + mna.num_inductors
    width = ports + (options.order - 1) * min(ports, options.rank)
    stack = mna.num_nodes * width * FLOAT
    # The stack, the stack-sized square ``np.linalg.norm`` takes of it, the
    # Gram matrix with LAPACK's copy and its eigenvectors, and the basis
    # with its QR polish.
    budget = 2 * stack + 3 * width**2 * FLOAT + 2 * mna.num_nodes * options.rank * FLOAT
    assert rom.rank == options.rank
    assert peak <= budget, (peak, budget)
