"""Memory regression tests of the labelling stages (trace -> solve -> features).

The full-order solve holds one chunk of a block's currents, the ROM solve
one chunk of stamps (drive, reduced states, reconstructed frames), and the
ROM build one Krylov moment stack, on top of what each returns.  Peaks are
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
from repro.sim import rom as rom_module
from repro.sim import transient
from repro.sim.rom import ReducedOrderStrategy, ROMOptions
from repro.sim.transient import FullOrderStrategy, TransientOptions
from repro.sim.waveform import CurrentTrace
from repro.workloads import generate_test_vectors
from repro.workloads.vectors import VectorConfig

DT = 1e-11
NUM_TRACES = 8
NUM_STEPS = 200
LONG_STEPS = 1600
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


def test_full_order_block_holds_one_chunk_of_currents(load_heavy_design, block, full_strategy):
    peak, _ = traced_peak(lambda: full_strategy.run_block(block))
    chunk = min(transient._STAMP_CHUNK, NUM_STEPS) * load_heavy_design.mna.num_loads
    budget = chunk * len(block) * FLOAT + state_bytes(load_heavy_design.mna, len(block))
    assert peak <= budget, (peak, budget)


@pytest.mark.parametrize("offset", [-1, 0, 1, transient._STAMP_CHUNK + 1])
def test_full_order_chunks_match_stacking_every_stamp_once(
    load_heavy_design, block, full_strategy, monkeypatch, offset
):
    # Chunk boundaries fall just before, on and just after the trace end,
    # and inside a third chunk.
    steps = transient._STAMP_CHUNK + offset
    traces = [CurrentTrace(trace.currents[:steps], trace.dt) for trace in block]
    chunked = full_strategy.run_block(traces)
    # Oracle: every stamp's currents stacked once, in one (T, L, V) array.
    monkeypatch.setattr(
        transient,
        "_stamp_currents",
        lambda traces: iter(np.stack([trace.currents for trace in traces], axis=2)),
    )
    stacked = full_strategy.run_block(traces)
    for ours, oracle in zip(chunked, stacked):
        np.testing.assert_array_equal(ours.max_droop_per_node, oracle.max_droop_per_node)
        np.testing.assert_array_equal(ours.final_droop, oracle.final_droop)
        assert ours.worst_droop == oracle.worst_droop
        assert ours.worst_time_index == oracle.worst_time_index


def test_rom_block_holds_one_reconstruction_chunk(load_heavy_design, full_strategy):
    mna = load_heavy_design.mna
    # Long enough that the reconstruction chunk cap splits the block into
    # several chunks, and the block's currents dwarf one chunk.
    traces = generate_test_vectors(
        load_heavy_design, NUM_TRACES, VectorConfig(num_steps=LONG_STEPS, dt=DT), seed=4
    )
    rom = ReducedOrderStrategy.build(full_strategy, ROMOptions(rank=ROM_RANK))
    rom.run_block(traces[:1])
    peak, _ = traced_peak(lambda: rom.run_block(traces))
    itemsize = np.dtype(np.float32).itemsize
    chunk_steps = rom_module._CHUNK_TARGET_BYTES // (itemsize * mna.num_nodes * NUM_TRACES)
    assert chunk_steps < LONG_STEPS - 1
    # The chunk's float64 drive, its float32 reduced states and the float32
    # frames reconstructed from them.
    chunk = chunk_steps * NUM_TRACES * (rom.rank * FLOAT + (rom.rank + mna.num_nodes) * itemsize)
    budget = chunk + state_bytes(mna, NUM_TRACES)
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
    # The final truncation's Gram matrix and its top-rank eigenvectors.
    eigen = (width + options.rank) * width * FLOAT
    # One chunk of a level's right-hand sides and the solver's copy of it.
    chunk = 2 * mna.num_nodes * rom_module._CHUNK_COLUMNS * FLOAT
    # Levels are solved chunk by chunk into the stack, the Gram eigenproblem
    # computes the top-rank eigenpairs only, and the stack is freed before
    # the polish QR, so nothing else of stack size lives beside it.
    budget = stack + eigen + chunk
    assert rom.rank == options.rank
    assert peak <= budget, (peak, budget)
