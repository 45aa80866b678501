"""Benchmark: the persistent process-pool parallel runtime.

Fanning work over persistent workers must leave every result
**bit-identical** to the serial path — mapping search (schedules) and
design-point sweeps (records) — while the wall-clock is recorded honestly,
including on single-core runners where the speedup is ~1x by construction.
Functional verification is serial by design (it measured slower with
workers) and is benchmarked in ``bench_functional.py``.

Records ``BENCH_parallel.json`` (mapping-search and sweep serial/parallel
timings, CPU count) at the repo root; the "Parallel runtime" section of
EXPERIMENTS.md is regenerated from that file.
"""

from __future__ import annotations

import os
import time

from _record import record_benchmark
from repro.cnn.zoo import get_network
from repro.core.config import ChainConfig
from repro.engine.executor import SweepExecutor
from repro.mapping import ScheduleOptimizer

#: worker count of the parallel runs
WORKERS = 4

#: zoo network the mapping search and the sweep run on
NETWORK = os.environ.get("REPRO_BENCH_NETWORK", "alexnet")


def test_parallel_map_and_sweep(benchmark):
    network = get_network(NETWORK)

    # mapping search: parallel schedules must equal serial ones exactly
    started = time.perf_counter()
    searched = ScheduleOptimizer(objective="latency", strategy="exhaustive",
                                 batch=16).optimize(network)
    map_serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    searched_parallel = ScheduleOptimizer(objective="latency",
                                          strategy="exhaustive", batch=16,
                                          workers=WORKERS).optimize(network)
    map_parallel_seconds = time.perf_counter() - started
    assert searched.to_json_dict() == searched_parallel.to_json_dict()

    # sweeps: the persistent pool returns records identical to serial runs
    configs = [ChainConfig(num_pes=pes) for pes in range(128, 1153, 64)]
    with SweepExecutor(engine="analytical", network=network,
                       max_workers=WORKERS) as executor:
        started = time.perf_counter()
        serial_records = executor.run(configs, parallel=False)
        sweep_serial_seconds = time.perf_counter() - started
        started = time.perf_counter()
        parallel_records = executor.run(configs, parallel=True)
        sweep_parallel_seconds = time.perf_counter() - started
        assert [r.metrics for r in serial_records] == \
            [r.metrics for r in parallel_records]

    record_benchmark("parallel", {
        "network": network.name,
        "cpu_count": os.cpu_count() or 1,
        "workers": WORKERS,
        "map_serial_seconds": map_serial_seconds,
        "map_parallel_seconds": map_parallel_seconds,
        "sweep_serial_seconds": sweep_serial_seconds,
        "sweep_parallel_seconds": sweep_parallel_seconds,
        "bit_identical": True,
    })

    def map_with_pool():
        return ScheduleOptimizer(objective="latency", strategy="exhaustive",
                                 batch=16, workers=WORKERS).optimize(network)

    schedule = benchmark.pedantic(map_with_pool, rounds=1, iterations=1)
    assert schedule.to_json_dict() == searched.to_json_dict()


def test_persistent_pool_amortises_worker_startup():
    """Re-running a sweep on a live executor reuses workers and caches.

    The second parallel call must not rebuild the pool: the broadcast
    network and per-worker engines are already in place, so only the small
    per-point payloads move.  (Timing is recorded by the scaling benchmark;
    here we pin the *behavioural* contract so a regression to per-call pools
    cannot land silently.)
    """
    network = get_network("alexnet")
    configs = [ChainConfig(num_pes=pes) for pes in (144, 288, 432, 576)]
    with SweepExecutor(engine="analytical", network=network,
                       max_workers=2) as executor:
        first = executor.run(configs, parallel=True)
        runtime = executor._pool.runtime
        second = executor.run(configs, parallel=True)
        if runtime is not None:  # platforms with pools: same live pool
            assert executor._pool.runtime is runtime
            assert all(p.is_alive() for p in runtime._processes)
        assert [r.metrics for r in first] == [r.metrics for r in second]
