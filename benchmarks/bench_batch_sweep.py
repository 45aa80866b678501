"""Benchmark: columnar batch sweep vs the scalar per-point explorer.

The acceptance bar for the columnar design-space PR: on a >= 10k-point grid
the struct-of-arrays path of ``analytical-batch`` must deliver at least 100x
the points/s of the scalar per-point analytical path while staying
numerically identical (the identity is asserted exhaustively in
``tests/test_batch_sweep.py``; here a spot check guards the benchmark
itself).  Measured numbers land in ``BENCH_sweep.json`` at the repo root so
future PRs can track the sweep-throughput trajectory.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _record import merge_benchmark, record_benchmark
from repro.analysis.batch import DEFAULT_OBJECTIVES, BatchDesignEvaluator, DesignGrid
from repro.analysis.pareto import objective_matrix, pareto_mask
from repro.core.config import ChainConfig
from repro.engine import create_engine

#: 129 PE counts x 81 frequencies = 10449 design points (>= the 10k bar)
GRID_SPEC = "pe=128:1152:8,freq=200:1000:10,batch=128"

#: scalar points measured to extrapolate the per-point path's points/s
#: (running all 10k points through Python objects would take minutes)
SCALAR_SAMPLE_POINTS = 64

#: timed frontier reductions (best-of, to shed scheduler noise)
PARETO_ROUNDS = 3


@pytest.fixture(scope="module")
def grid():
    return DesignGrid.parse(GRID_SPEC, base=ChainConfig())


@pytest.fixture(scope="module")
def evaluator(alexnet_network):
    return BatchDesignEvaluator(alexnet_network, base=ChainConfig())


def test_columnar_sweep_100x_faster_than_scalar(benchmark, grid, evaluator,
                                                alexnet_network):
    assert grid.n_points >= 10_000

    # warm the per-precision tile constants so the timed run is steady state
    evaluator.evaluate_grid(grid.take(np.arange(16)))
    start = time.perf_counter()
    result = evaluator.evaluate_grid(grid)
    batch_seconds = time.perf_counter() - start
    batch_pps = grid.n_points / batch_seconds

    scalar_engine = create_engine("analytical")
    sample = np.linspace(0, grid.n_points - 1, SCALAR_SAMPLE_POINTS).astype(int)
    start = time.perf_counter()
    records = [
        scalar_engine.evaluate(alexnet_network, grid.config_at(int(index)),
                               batch=int(grid.batch[index]))
        for index in sample
    ]
    scalar_seconds = time.perf_counter() - start
    scalar_pps = len(sample) / scalar_seconds

    # spot-check numerical identity on the sampled points
    for index, record in zip(sample, records):
        assert result.fps[index] == pytest.approx(record.metric("fps"), rel=1e-9)
        assert result.power_w[index] == pytest.approx(record.metric("power_w"), rel=1e-9)

    speedup = batch_pps / scalar_pps
    record_benchmark("sweep", {
        "grid": GRID_SPEC,
        "n_points": grid.n_points,
        "batch_points_per_s": batch_pps,
        "batch_ns_per_point": 1e9 / batch_pps,
        "scalar_points_per_s": scalar_pps,
        "scalar_sample_points": int(len(sample)),
        "speedup_vs_scalar": speedup,
    })

    # measured ~2000x locally; 100x is the acceptance bar, relaxed only for
    # the CI functional smoke pass on noisy shared runners
    floor = 25.0 if benchmark.disabled else 100.0
    assert speedup >= floor, (
        f"columnar path only {speedup:.0f}x the scalar path "
        f"({batch_pps:,.0f} vs {scalar_pps:,.0f} points/s)"
    )

    benchmark.pedantic(evaluator.evaluate_grid, args=(grid,), rounds=3, iterations=1)


def reference_mask(costs: np.ndarray, rows_per_block: int = 64) -> np.ndarray:
    """All-pairs brute-force dominance, in row blocks to bound memory."""
    keep = np.empty(len(costs), dtype=bool)
    for start in range(0, len(costs), rows_per_block):
        block = costs[start:start + rows_per_block, None, :]
        dominated = (np.all(costs <= block, axis=2)
                     & np.any(costs < block, axis=2))
        keep[start:start + rows_per_block] = ~dominated.any(axis=1)
    return keep


def test_pareto_reduction_on_dense_grid(benchmark, grid, evaluator):
    """The frontier reducer keeps up with dense grids and is exact."""
    result = evaluator.evaluate_grid(grid)
    costs = objective_matrix(result.columns(), DEFAULT_OBJECTIVES)
    seconds = float("inf")
    for _ in range(PARETO_ROUNDS):
        start = time.perf_counter()
        mask = pareto_mask(costs)
        seconds = min(seconds, time.perf_counter() - start)
    frontier_points = int(mask.sum())
    assert 0 < frontier_points < result.n_points
    assert np.array_equal(mask, reference_mask(costs))

    merge_benchmark("sweep", {
        "pareto_points_per_s": grid.n_points / seconds,
        "frontier_points": frontier_points,
    })

    frontier = benchmark.pedantic(result.pareto, rounds=3, iterations=1)
    assert frontier.n_points == frontier_points
