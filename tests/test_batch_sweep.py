"""Columnar batch evaluator: equivalence, grids, Pareto reduction, executor.

The headline property: the struct-of-arrays path of
:class:`repro.analysis.batch.BatchDesignEvaluator` is numerically identical
to the scalar per-point path (``DesignSpaceExplorer`` over the analytical
engine) on randomized design grids.  CI refuses skips in this module — the
equivalence guarantee is what licenses dispatching sweeps to the fast path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batch import (
    DEFAULT_OBJECTIVES,
    BatchDesignEvaluator,
    BatchSweepResult,
    DesignGrid,
    worst_case_utilization_array,
)
from repro.analysis.pareto import (
    objective_matrix,
    pareto_mask,
    top_k_indices,
)
from repro.analysis.sweep import DesignSpaceExplorer
from repro.cnn.zoo import alexnet, lenet5
from repro.core.config import ChainConfig
from repro.engine import RunCache, SweepExecutor, create_engine
from repro.engine.adapters import worst_case_utilization
from repro.errors import ConfigurationError

RESULT_FIELDS = (
    "peak_gops",
    "fps",
    "total_time_per_batch_s",
    "achieved_gops",
    "power_w",
    "gops_per_watt",
    "worst_case_utilization",
    "total_gates",
)


def random_grid(rng: np.random.Generator, n: int, min_pes: int = 121) -> DesignGrid:
    """An arbitrary (non-product) set of design points."""
    return DesignGrid(
        num_pes=rng.integers(min_pes, 1300, size=n),
        frequency_hz=rng.integers(100, 1300, size=n).astype(np.float64) * 1e6,
        batch=rng.integers(1, 256, size=n),
        word_bits=rng.choice([8, 16, 32], size=n).astype(np.int64),
    )


def assert_matches_scalar_engine(result: BatchSweepResult, network, engine) -> None:
    """Every column equals the per-point scalar evaluation (<= 1e-9 rel)."""
    grid = result.grid
    for index in range(grid.n_points):
        record = engine.evaluate(network, grid.config_at(index),
                                 batch=int(grid.batch[index]))
        for field in RESULT_FIELDS:
            scalar = record.metric(field)
            assert float(getattr(result, field)[index]) == pytest.approx(
                scalar, rel=1e-9
            ), f"{field} diverges at point {index}: {grid.config_at(index).describe()}"


class TestGridParsing:
    def test_product_and_inclusive_ranges(self):
        grid = DesignGrid.parse("pe=128:1152:32,freq=200:1000:50", base=ChainConfig())
        assert grid.n_points == 33 * 17
        assert grid.num_pes.min() == 128 and grid.num_pes.max() == 1152
        assert grid.frequency_hz.min() == 200e6 and grid.frequency_hz.max() == 1000e6

    def test_defaults_come_from_base_config(self):
        base = ChainConfig().with_pes(288)
        grid = DesignGrid.parse("freq=500", base=base, default_batch=32)
        assert grid.n_points == 1
        assert int(grid.num_pes[0]) == 288
        assert int(grid.batch[0]) == 32
        assert int(grid.word_bits[0]) == base.word_bits

    def test_scalar_and_two_part_ranges(self):
        grid = DesignGrid.parse("batch=2:5,pe=576", base=ChainConfig())
        assert sorted(grid.batch.tolist()) == [2, 3, 4, 5]

    def test_ranges_never_overshoot_the_stop(self):
        grid = DesignGrid.parse("pe=128:1150:32,freq=200:999:50", base=ChainConfig())
        assert grid.num_pes.max() == 1120  # not 1152 > 1150
        assert grid.frequency_hz.max() == 950e6  # not 1000 > 999

    @pytest.mark.parametrize("spec", [
        "", "volt=1:2", "pe=", "pe=1:2:0", "pe=10:5", "pe=1:2:3:4", "pe=abc",
        "pe=100.5",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            DesignGrid.parse(spec, base=ChainConfig())

    def test_invalid_point_values_rejected(self):
        with pytest.raises(ConfigurationError, match="word_bits"):
            DesignGrid.parse("bits=12", base=ChainConfig())
        with pytest.raises(ConfigurationError, match="batch"):
            DesignGrid(
                num_pes=np.array([576]), frequency_hz=np.array([7e8]),
                batch=np.array([0]), word_bits=np.array([16]),
            )

    def test_round_trips_through_json(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, 17)
        clone = DesignGrid.from_json_dict(grid.to_json_dict())
        assert np.array_equal(clone.num_pes, grid.num_pes)
        assert np.array_equal(clone.frequency_hz, grid.frequency_hz)


class TestScalarEquivalence:
    """The acceptance property: columnar == scalar on randomized grids."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_grid_matches_scalar_engine_lenet(self, seed):
        rng = np.random.default_rng(2017 + seed)
        network = lenet5()
        grid = random_grid(rng, 24, min_pes=25)
        result = BatchDesignEvaluator(network, base=ChainConfig()).evaluate_grid(grid)
        assert_matches_scalar_engine(result, network, create_engine("analytical"))

    def test_randomized_grid_matches_scalar_engine_alexnet(self):
        rng = np.random.default_rng(42)
        network = alexnet()
        grid = random_grid(rng, 16, min_pes=121)
        result = BatchDesignEvaluator(network, base=ChainConfig()).evaluate_grid(grid)
        assert_matches_scalar_engine(result, network, create_engine("analytical"))

    def test_detailed_mode_matches_scalar_engine(self):
        rng = np.random.default_rng(3)
        network = lenet5()
        grid = random_grid(rng, 8, min_pes=25)
        result = BatchDesignEvaluator(network, base=ChainConfig(),
                                      mode="detailed").evaluate_grid(grid)
        assert_matches_scalar_engine(result, network,
                                     create_engine("analytical-detailed"))

    def test_matches_design_space_explorer_sweep_points(self):
        """Same numbers as the SweepPoint rows of the per-point explorer."""
        network = alexnet()
        explorer = DesignSpaceExplorer(network, batch=16, engine="analytical")
        pe_counts = (144, 288, 576, 1152)
        points = explorer.sweep_chain_length(pe_counts)
        grid = DesignGrid.from_axes(pe_counts=pe_counts, batches=(16,))
        result = BatchDesignEvaluator(network, base=ChainConfig()).evaluate_grid(grid)
        for index, point in enumerate(points):
            assert result.fps[index] == pytest.approx(point.fps, rel=1e-9)
            assert result.power_w[index] == pytest.approx(point.power_w, rel=1e-9)
            assert result.gops_per_watt[index] == pytest.approx(
                point.gops_per_watt, rel=1e-9)
            assert result.peak_gops[index] == pytest.approx(point.peak_gops, rel=1e-9)
            assert result.worst_case_utilization[index] == pytest.approx(
                point.worst_case_utilization, rel=1e-9)
            assert result.total_gates[index] == pytest.approx(
                point.total_gates, rel=1e-9)

    def test_dual_channel_strawman_supported(self):
        network = lenet5()
        base = ChainConfig().single_channel()
        grid = DesignGrid.from_axes(pe_counts=(144, 576), batches=(4,))
        result = BatchDesignEvaluator(network, base=base).evaluate_grid(grid)
        engine = create_engine("analytical", config=base)
        for index in range(grid.n_points):
            record = engine.evaluate(network, grid.config_at(index, base=base),
                                     batch=4)
            assert result.fps[index] == pytest.approx(record.metric("fps"), rel=1e-9)

    def test_grid_too_small_for_kernels_rejected(self):
        grid = DesignGrid.from_axes(pe_counts=(100,))  # AlexNet conv1 needs 121
        with pytest.raises(ConfigurationError, match="at least 121"):
            BatchDesignEvaluator(alexnet()).evaluate_grid(grid)

    def test_worst_case_utilization_array_matches_scalar(self):
        pes = np.arange(1, 1300, 7)
        vector = worst_case_utilization_array(pes)
        for index, num_pes in enumerate(pes):
            assert vector[index] == pytest.approx(
                worst_case_utilization(ChainConfig(num_pes=int(num_pes))), abs=0.0)


class TestPareto:
    @staticmethod
    def brute_force_mask(costs: np.ndarray) -> np.ndarray:
        n = costs.shape[0]
        mask = np.ones(n, dtype=bool)
        for i in range(n):
            for j in range(n):
                if (np.all(costs[j] <= costs[i]) and np.any(costs[j] < costs[i])):
                    mask[i] = False
                    break
        return mask

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mask_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        costs = rng.integers(0, 6, size=(60, 3)).astype(float)  # many ties
        assert np.array_equal(pareto_mask(costs), self.brute_force_mask(costs))

    @staticmethod
    def reference_mask(costs: np.ndarray) -> np.ndarray:
        """All-pairs dominance as one broadcast: ``[j, i]`` is "j dominates i"."""
        below = costs[:, None, :] <= costs[None, :, :]
        strictly = costs[:, None, :] < costs[None, :, :]
        return ~np.any(below.all(axis=2) & strictly.any(axis=2), axis=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 240), d=st.integers(1, 4), levels=st.integers(1, 6),
           floats=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_mask_matches_vectorised_reference(self, n, d, levels, floats, seed):
        rng = np.random.default_rng(seed)
        costs = (rng.standard_normal((n, d)) if floats
                 else rng.integers(0, levels, size=(n, d)).astype(float))
        if n:  # exact duplicates of random rows, up to 300 rows in all
            costs = np.concatenate([costs, costs[rng.integers(0, n, size=n // 4)]])
        mask = pareto_mask(costs)
        assert np.array_equal(mask, self.reference_mask(costs))

        perm = rng.permutation(len(costs))
        assert np.array_equal(pareto_mask(costs[perm]), mask[perm])

        names = tuple(f"c{k}" for k in range(d))
        flipped = names[::2]
        columns = {name: -costs[:, k] if name in flipped else costs[:, k]
                   for k, name in enumerate(names)}
        assert np.array_equal(
            pareto_mask(objective_matrix(columns, names, maximize=flipped)), mask)

    def test_alexnet_request_grid_frontier_matches_reference(self):
        result = BatchDesignEvaluator(alexnet()).evaluate_grid(
            DesignGrid.parse("pe=248:2288:8,freq=200:1000:200", base=ChainConfig()))
        costs = objective_matrix(result.columns(), DEFAULT_OBJECTIVES)
        mask = pareto_mask(costs)
        assert result.n_points == 1280 and int(mask.sum()) == 1185
        assert np.array_equal(mask, self.reference_mask(costs))

    def test_duplicates_of_efficient_points_all_survive(self):
        costs = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        assert pareto_mask(costs).tolist() == [True, True, True, False]

    def test_single_objective_is_argmin(self):
        costs = np.array([[3.0], [1.0], [2.0], [1.0]])
        assert pareto_mask(costs).tolist() == [False, True, False, True]

    def test_non_finite_costs_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            pareto_mask(np.array([[1.0, np.nan]]))

    def test_top_k_stable_and_bounded(self):
        values = np.array([5.0, 7.0, 7.0, 1.0])
        assert top_k_indices(values, 2).tolist() == [1, 2]
        assert top_k_indices(values, 10, maximize=False).tolist() == [3, 0, 1, 2]

    def test_objective_matrix_negates_maximised_columns(self):
        columns = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        matrix = objective_matrix(columns, ("a", "b"), maximize=("b",))
        assert matrix.tolist() == [[1.0, -3.0], [2.0, -4.0]]
        with pytest.raises(ConfigurationError, match="unknown objective"):
            objective_matrix(columns, ("missing",))

    def test_empty_objectives_rejected(self):
        result = BatchDesignEvaluator(lenet5()).evaluate_grid(
            DesignGrid.from_axes(pe_counts=(144, 288)))
        with pytest.raises(ConfigurationError, match="at least one objective"):
            result.pareto(objectives=())

    def test_alexnet_grid_has_nonempty_frontier(self):
        result = BatchDesignEvaluator(alexnet()).evaluate_grid(
            DesignGrid.parse("pe=128:1152:64,freq=200:1000:100", base=ChainConfig()))
        frontier = result.pareto(DEFAULT_OBJECTIVES)
        assert 0 < frontier.n_points <= result.n_points
        # the frontier contains the cheapest-area and the fastest points
        assert frontier.total_gates.min() == result.total_gates.min()
        assert frontier.total_time_per_batch_s.min() == \
            result.total_time_per_batch_s.min()

    def test_result_top_k_and_rows(self):
        result = BatchDesignEvaluator(lenet5()).evaluate_grid(
            DesignGrid.from_axes(pe_counts=(144, 288, 576)))
        best = result.top_k("fps", 2)
        assert best.n_points == 2
        assert best.fps[0] >= best.fps[1]
        row = best.row(0)
        assert set(row) >= {"PEs", "Freq (MHz)", "fps", "Power (W)", "GOPS/W",
                            "Achieved GOPS", "Time/batch (ms)"}
        assert row["Time/batch (ms)"] == pytest.approx(
            float(best.total_time_per_batch_s[0]) * 1e3)
        with pytest.raises(ConfigurationError, match="unknown metric"):
            result.top_k("nope", 1)


class TestEngineIntegration:
    def test_analytical_batch_engine_registered(self):
        engine = create_engine("analytical-batch")
        assert engine.supports_batch
        assert engine.name == "analytical-batch"
        assert not create_engine("analytical").supports_batch
        detailed = create_engine("analytical-batch-detailed")
        assert detailed.supports_batch
        assert detailed.name == "analytical-batch-detailed"
        assert detailed.mode == "detailed"

    def test_point_evaluation_matches_analytical(self):
        network = lenet5()
        batch_record = create_engine("analytical-batch").evaluate(network, None, 4)
        scalar_record = create_engine("analytical").evaluate(network, None, 4)
        assert batch_record.engine == "analytical-batch"
        assert batch_record.metrics == scalar_record.metrics

    def test_fallback_evaluate_batch_matches_fast_path(self):
        network = lenet5()
        grid = DesignGrid.from_axes(pe_counts=(144, 576), batches=(2, 8))
        fallback = create_engine("analytical").evaluate_batch(network, grid)
        fast = create_engine("analytical-batch").evaluate_batch(network, grid)
        for field in RESULT_FIELDS:
            assert np.allclose(getattr(fallback, field), getattr(fast, field),
                               rtol=1e-9, atol=0.0)

    def test_run_grid_chunking_invariant(self):
        network = lenet5()
        executor = SweepExecutor(engine="analytical-batch", network=network)
        grid = DesignGrid.parse("pe=128:1152:64,freq=300:900:300", base=ChainConfig())
        whole = executor.run_grid(grid)
        chunked = executor.run_grid(grid, chunk_size=7)
        for field in RESULT_FIELDS:
            assert np.array_equal(getattr(whole, field), getattr(chunked, field))
        assert np.array_equal(whole.grid.num_pes, chunked.grid.num_pes)

    def test_run_grid_chunks_served_from_cache(self, tmp_path):
        network = lenet5()
        grid = DesignGrid.parse("pe=128:1152:32", base=ChainConfig())
        first_executor = SweepExecutor(engine="analytical-batch", network=network,
                                       cache=RunCache(tmp_path))
        first = first_executor.run_grid(grid, chunk_size=10)
        assert first_executor.cache.hits == 0
        assert first_executor.cache.misses == 4  # 33 points in chunks of 10
        second_executor = SweepExecutor(engine="analytical-batch", network=network,
                                        cache=RunCache(tmp_path))
        second = second_executor.run_grid(grid, chunk_size=10)
        assert second_executor.cache.hits == 4
        assert second_executor.cache.misses == 0
        for field in RESULT_FIELDS:
            assert np.array_equal(getattr(first, field), getattr(second, field))

    def test_run_grid_cache_distinguishes_grids(self, tmp_path):
        network = lenet5()
        executor = SweepExecutor(engine="analytical-batch", network=network,
                                 cache=RunCache(tmp_path))
        executor.run_grid(DesignGrid.from_axes(pe_counts=(144,)))
        executor.run_grid(DesignGrid.from_axes(pe_counts=(288,)))
        assert executor.cache.misses == 2 and executor.cache.hits == 0

    def test_explorer_sweep_grid_end_to_end(self):
        explorer = DesignSpaceExplorer(lenet5(), batch=8, engine="analytical-batch")
        result = explorer.sweep_grid("pe=128:576:64,freq=350:700:350")
        assert result.n_points == 8 * 2
        assert (result.grid.batch == 8).all()
        assert (result.fps > 0).all()

    def test_batch_result_json_round_trip(self):
        result = BatchDesignEvaluator(lenet5()).evaluate_grid(
            DesignGrid.from_axes(pe_counts=(144, 576)))
        clone = BatchSweepResult.from_json_dict(result.to_json_dict())
        for field in RESULT_FIELDS:
            assert np.array_equal(getattr(clone, field), getattr(result, field))
