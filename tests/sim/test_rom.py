"""Tests for repro.sim.rom — the reduced-order strategy and its error gate."""

import numpy as np
import pytest

import scipy.linalg

from repro.sim.rom import _CHUNK_COLUMNS, ReducedOrderStrategy, ROMOptions, ROMRunStats
from repro.sim.transient import (
    FullOrderStrategy,
    TransientEngine,
    TransientOptions,
)
from repro.workloads import generate_test_vectors
from repro.workloads.vectors import VectorConfig


def rom_options(**overrides) -> TransientOptions:
    base = {"solver_mode": "rom", "rom": ROMOptions(**overrides)}
    return TransientOptions(**base)


@pytest.fixture(scope="module")
def traces(tiny_design):
    return generate_test_vectors(
        tiny_design, 8, VectorConfig(num_steps=80, dt=1e-11), seed=11
    )


@pytest.fixture(scope="module")
def full_engine(tiny_design):
    return TransientEngine(tiny_design.mna, 1e-11, TransientOptions())


class TestROMOptions:
    def test_defaults_validate(self):
        options = ROMOptions()
        assert options.rank == 0 and options.tolerance == 0.08

    @pytest.mark.parametrize(
        "field, value",
        [
            ("order", 0),
            ("rank", -1),
            ("tolerance", 0.0),
            ("validate_vectors", -1),
            ("droop_floor", 0.0),
            ("reconstruct_dtype", "float16"),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            ROMOptions(**{field: value})

    def test_round_trips_through_dict(self):
        options = ROMOptions(order=4, rank=96, tolerance=0.05, reconstruct_dtype="float64")
        assert ROMOptions.from_dict(options.to_dict()) == options

    def test_rom_options_require_rom_mode(self):
        with pytest.raises(ValueError):
            TransientOptions(rom=ROMOptions())

    def test_rom_mode_autofills_default_options(self):
        options = TransientOptions(solver_mode="rom")
        assert options.rom == ROMOptions()


class TestStrategySelection:
    def test_full_mode_uses_full_order_strategy(self, full_engine):
        assert isinstance(full_engine.strategy, FullOrderStrategy)
        assert full_engine.rom_stats is None

    def test_rom_mode_uses_reduced_order_strategy(self, tiny_design):
        engine = TransientEngine(tiny_design.mna, 1e-11, rom_options())
        assert isinstance(engine.strategy, ReducedOrderStrategy)
        assert isinstance(engine.rom_stats, ROMRunStats)
        assert 1 <= engine.strategy.rank <= tiny_design.mna.num_nodes

    def test_explicit_rank_is_honoured(self, tiny_design):
        engine = TransientEngine(tiny_design.mna, 1e-11, rom_options(rank=48))
        assert engine.strategy.rank <= 48


class TestGatedRunMany:
    def test_labels_match_full_order_on_tiny_design(self, tiny_design, full_engine, traces):
        # A tiny design's ROM basis spans nearly the whole space — labels
        # are close to exact, far inside the default gate tolerance.
        engine = TransientEngine(tiny_design.mna, 1e-11, rom_options())
        reference = full_engine.run_many(traces)
        results = engine.run_many(traces)
        for rom, full in zip(results, reference):
            assert rom.worst_droop == pytest.approx(full.worst_droop, rel=1e-2)
        assert engine.rom_stats.fallbacks == 0

    def test_validated_sample_returns_full_order_results(self, tiny_design, traces):
        engine = TransientEngine(tiny_design.mna, 1e-11, rom_options())
        results = engine.run_many(traces)
        # validate_vectors=2 spreads over the call: first and last trace.
        assert results[0].solver == "full"
        assert results[-1].solver == "full"
        assert all(result.solver == "rom" for result in results[1:-1])
        stats = engine.rom_stats
        assert stats.calls == 1
        assert stats.validated == 2
        assert stats.rom_vectors == len(traces) - 2
        assert stats.full_vectors == 2

    def test_gate_falls_back_wholesale_on_tolerance_miss(self, tiny_design, traces):
        # An absurdly tight tolerance turns the ROM's (tiny) error into a
        # gate miss: the whole call must come back full-order labelled.
        engine = TransientEngine(
            tiny_design.mna, 1e-11, rom_options(tolerance=1e-15)
        )
        results = engine.run_many(traces)
        assert all(result.solver == "full" for result in results)
        stats = engine.rom_stats
        assert stats.fallbacks == 1
        assert stats.full_vectors == len(traces)
        assert stats.rom_vectors == 0
        assert stats.max_rel_error > 1e-15

    def test_zero_validate_vectors_disables_gate(self, tiny_design, traces):
        engine = TransientEngine(
            tiny_design.mna, 1e-11, rom_options(validate_vectors=0)
        )
        results = engine.run_many(traces)
        assert all(result.solver == "rom" for result in results)
        assert engine.rom_stats.validated == 0

    def test_single_trace_run_is_a_gated_block_of_one(self, tiny_design, full_engine, traces):
        engine = TransientEngine(tiny_design.mna, 1e-11, rom_options())
        result = engine.run(traces[0])
        # The lone trace is the validation sample: its label is full-order.
        assert result.solver == "full"
        assert engine.rom_stats.calls == 1
        assert engine.rom_stats.validated == 1
        np.testing.assert_allclose(
            result.max_droop_per_node,
            full_engine.run(traces[0]).max_droop_per_node,
            rtol=1e-12,
            atol=1e-16,
        )

    def test_gated_run_is_deterministic(self, tiny_design, traces):
        first = TransientEngine(tiny_design.mna, 1e-11, rom_options()).run_many(traces)
        second = TransientEngine(tiny_design.mna, 1e-11, rom_options()).run_many(traces)
        for a, b in zip(first, second):
            assert a.solver == b.solver
            np.testing.assert_array_equal(a.max_droop_per_node, b.max_droop_per_node)
            assert a.worst_droop == b.worst_droop
            assert a.worst_time_index == b.worst_time_index


class TestValidationIndices:
    @pytest.fixture(scope="class")
    def engine(self, tiny_design):
        return TransientEngine(tiny_design.mna, 1e-11, rom_options(validate_vectors=3))

    def test_indices_are_spread_and_deterministic(self, engine):
        indices = engine._validation_indices(10)
        assert indices == engine._validation_indices(10)
        assert indices[0] == 0 and indices[-1] == 9
        assert len(indices) == 3

    def test_sample_never_exceeds_count(self, engine):
        assert engine._validation_indices(2) == [0, 1]
        assert engine._validation_indices(1) == [0]


class TestReducedIntegration:
    def test_waveform_reconstruction(self, tiny_design, traces):
        full = TransientEngine(
            tiny_design.mna, 1e-11, TransientOptions(store_waveform=True)
        )
        rom = TransientEngine(
            tiny_design.mna,
            1e-11,
            TransientOptions(
                store_waveform=True,
                solver_mode="rom",
                rom=ROMOptions(validate_vectors=0),
            ),
        )
        reference = full.run(traces[1])
        result = rom.run(traces[1])
        assert result.solver == "rom"
        assert result.waveform is not None
        assert result.waveform.droops.shape == reference.waveform.droops.shape
        scale = float(np.max(np.abs(reference.waveform.droops)))
        error = float(np.max(np.abs(result.waveform.droops - reference.waveform.droops)))
        assert error <= 0.02 * scale

    def test_float64_reconstruction_available(self, tiny_design, traces):
        f32 = TransientEngine(tiny_design.mna, 1e-11, rom_options(validate_vectors=0))
        f64 = TransientEngine(
            tiny_design.mna,
            1e-11,
            rom_options(validate_vectors=0, reconstruct_dtype="float64"),
        )
        a = f32.run_many(traces)[1]
        b = f64.run_many(traces)[1]
        # Same subspace, different reconstruction precision: results agree
        # to single-precision rounding of the droop magnitudes.
        assert a.worst_droop == pytest.approx(b.worst_droop, rel=1e-5)

    def test_final_droop_matches_full_order(self, tiny_design, full_engine, traces):
        rom = TransientEngine(tiny_design.mna, 1e-11, rom_options(validate_vectors=0))
        reference = full_engine.run_many(traces)
        results = rom.run_many(traces)
        scale = max(float(np.max(np.abs(r.final_droop))) for r in reference)
        for ours, theirs in zip(results, reference):
            assert float(np.max(np.abs(ours.final_droop - theirs.final_droop))) <= 0.02 * scale


def _normalised(block):
    norms = np.linalg.norm(block, axis=0, keepdims=True)
    return block / np.where(norms > 0.0, norms, 1.0)


def _ports(mna):
    return np.concatenate(
        [mna.load_incidence().toarray(), mna.inductor_incidence().toarray()], axis=1
    )


def _top_subspace(block, rank, subset):
    """Orthonormal dominant subspace of unit-norm columns via the Gram matrix.

    ``subset`` asks LAPACK for the top ``rank`` eigenpairs only; otherwise
    every eigenpair is computed and the top ones are selected afterwards.
    """
    gram = block.T @ block
    width = gram.shape[0]
    if subset:
        values, vectors = scipy.linalg.eigh(
            gram.T, subset_by_index=(max(0, width - rank), width - 1)
        )
    else:
        values, vectors = scipy.linalg.eigh(gram.T)
    keep = min(rank, int((values > values[-1] * 1e-13).sum()))
    values, vectors = values[len(values) - keep:], vectors[:, len(values) - keep:]
    polished, _ = scipy.linalg.qr(block @ (vectors / np.sqrt(values)), mode="economic")
    return np.ascontiguousarray(polished)


def chunked_basis(full, rank, order):
    """The recursion the build runs: each level solved ``_CHUNK_COLUMNS`` at a time
    from the previous *normalised* level, stacked column-major, truncated once."""
    cap = full.cap_companion[:, np.newaxis]

    def solve(rhs):
        return np.concatenate(
            [
                full.solver.solve_many(rhs[:, start:start + _CHUNK_COLUMNS])
                for start in range(0, rhs.shape[1], _CHUNK_COLUMNS)
            ],
            axis=1,
        )

    level = _normalised(solve(_ports(full.mna)))
    levels = [level]
    for _ in range(order - 1):
        if level.shape[1] > rank:
            level = _top_subspace(level, rank, subset=True)
        level = _normalised(solve(cap * level))
        levels.append(level)
    return _top_subspace(np.asfortranarray(np.concatenate(levels, axis=1)), rank, subset=True)


def wide_basis(full, rank, order):
    """The earlier recursion: each level one wide solve from the previous
    *unnormalised* level, every truncation a full eigendecomposition."""
    cap = full.cap_companion[:, np.newaxis]
    moment = full.solver.solve_many(_ports(full.mna))
    levels = [_normalised(moment)]
    for _ in range(order - 1):
        if moment.shape[1] > rank:
            moment = _top_subspace(_normalised(moment), rank, subset=False)
        moment = full.solver.solve_many(cap * moment)
        levels.append(_normalised(moment))
    return _top_subspace(np.concatenate(levels, axis=1), rank, subset=False)


class TestBasisConstruction:
    # Rank 16 truncates every level; rank 64 exceeds the port count and
    # truncates none.
    @pytest.mark.parametrize("rank", [16, 64])
    def test_moment_stack_matches_concatenated_levels(self, tiny_design, rank):
        # Column norms and the Gram product sum in an order that follows
        # memory layout, so a moment stack laid out unlike the concatenated
        # levels, or levels solved in other chunks, would move basis bits.
        full = FullOrderStrategy(tiny_design.mna, 1e-11, TransientOptions())
        options = ROMOptions(rank=rank)
        reference = chunked_basis(full, rank, options.order)
        rom = ReducedOrderStrategy.build(full, options)
        np.testing.assert_array_equal(rom._basis, reference)

    @pytest.mark.parametrize("rank", [16, 64])
    def test_basis_spans_the_wide_solve_subspace(self, tiny_design, rank):
        full = FullOrderStrategy(tiny_design.mna, 1e-11, TransientOptions())
        options = ROMOptions(rank=rank)
        old = wide_basis(full, rank, options.order)
        new = ReducedOrderStrategy.build(full, options)._basis
        assert new.shape == old.shape
        residual = old - new @ (new.T @ old)
        assert float(np.max(np.abs(residual))) <= 1e-12
