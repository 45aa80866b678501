"""Benchmark: compiled (numba) kernel backend vs the NumPy reference.

With numba installed, the ``repro.kernels`` numba backend must be
**bit-identical** to the NumPy reference on mapping-candidate scoring and
at least 3x faster in timing mode (``repro bench kernels --timing``; the
smoke pass on shared CI runners uses a lower floor).  Without numba the
benchmark still runs — it measures the reference backend, asserts the
cross-backend identity over whatever backends are available, and simply
skips the speedup floor (there is nothing to compare against).  The ofmap
block product is not measured here: it is one BLAS GEMM both backends
share (see :mod:`repro.kernels.numpy_backend`).

Records ``BENCH_kernels.json`` (scorer seconds per backend, speedup, numpy
absolute throughput, numba version) at the repo root.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _record import merge_benchmark
from repro.analysis.batch import MAPPING_RESULT_COLUMNS, MappingBatchEvaluator
from repro.cnn.zoo import vgg16
from repro.core.config import ChainConfig
from repro.kernels import available_backends, numba_version, warmup

BACKENDS = available_backends()

#: timing repeats per backend (best-of, to shed scheduler noise)
REPEATS = 3


def _best_of(fn) -> float:
    return min(_timed(fn) for _ in range(REPEATS))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_scorer_kernel_backend_speedup_on_candidate_batch(benchmark):
    """10^5-candidate mapping scoring: identical columns, >= 3x with numba."""
    layer = vgg16().conv_layer("conv3_1")
    config = ChainConfig()
    evaluators = {
        backend: MappingBatchEvaluator(layer, config, batch=16,
                                       kernel_backend=backend)
        for backend in BACKENDS
    }
    rng = np.random.default_rng(2017)
    n = 100_000
    max_primitives = config.num_pes // (layer.kernel_size ** 2)
    primitives = rng.integers(1, max_primitives + 1, size=n, dtype=np.int64)
    stripes = rng.integers(1, layer.kernel_size + 1, size=n, dtype=np.int64)
    chunk = rng.integers(1, 33, size=n, dtype=np.int64)
    image_major = rng.integers(0, 2, size=n).astype(bool)
    columns = (primitives, stripes, chunk, image_major)

    seconds = {}
    results = {}
    for backend, evaluator in evaluators.items():
        warmup(backend)
        results[backend] = evaluator.evaluate(*columns)
        seconds[backend] = _best_of(lambda ev=evaluator: ev.evaluate(*columns))
    for backend in BACKENDS:
        for column in MAPPING_RESULT_COLUMNS:
            assert np.array_equal(results["numpy"][column],
                                  results[backend][column]), (backend, column)

    benchmark(evaluators[BACKENDS[-1]].evaluate, *columns)

    payload = {
        "backends_available": list(BACKENDS),
        "numba_version": numba_version(),
        "scorer_layer": layer.name,
        "scorer_candidates": n,
        "scorer_numpy_seconds": seconds["numpy"],
        "scorer_numpy_candidates_per_s": n / seconds["numpy"],
    }
    if "numba" in seconds:
        payload["scorer_numba_seconds"] = seconds["numba"]
        payload["scorer_speedup_numba_vs_numpy"] = (
            seconds["numpy"] / seconds["numba"])
    merge_benchmark("kernels", payload)

    if "numba" in seconds:
        speedup = seconds["numpy"] / seconds["numba"]
        floor = 1.2 if benchmark.disabled else 3.0
        assert speedup >= floor, (
            f"numba scorer only {speedup:.1f}x faster "
            f"({seconds['numpy']:.3f}s numpy vs {seconds['numba']:.3f}s numba)"
        )
