"""Parallel, cached evaluation of design-point sweeps.

:class:`SweepExecutor` turns a list of :class:`~repro.core.config.ChainConfig`
design points into :class:`~repro.engine.base.RunRecord` results through one
engine, with two orthogonal accelerations:

* **memoisation** — every evaluation is keyed by a content hash (see
  :mod:`repro.engine.cache`); cached points are served from disk without
  touching the engine, so re-running a sweep after adding one point only
  evaluates the new point;
* **parallelism** — uncached points are fanned out over the **persistent**
  :class:`~repro.runtime.ParallelRuntime`.  Workers are created once per
  executor and reused across calls: each worker caches its engine (rebuilt
  from the registry name, so engines themselves never cross the process
  boundary) and the broadcast network, which means a follow-up sweep on the
  same executor pays neither pool construction nor network pickling again.
  When a pool cannot be created (restricted sandboxes, missing semaphores)
  the executor silently degrades to the serial path — results are identical
  either way, only the wall-clock differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cnn.network import Network
from repro.core.config import ChainConfig
from repro.engine.base import Engine, RunRecord
from repro.engine.cache import (
    RunCache,
    canonical_json,
    grid_key,
    run_key,
    workload_fingerprint,
)
from repro.engine.registry import DEFAULT_ENGINES, create_engine
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import ParallelRuntime, WorkerError, shared_runtime

# parent-side sweep throughput counters (also fed when the points actually
# evaluate inside pool workers, so the CLI stats footer needs no shipping)
_M_POINTS = obs_metrics.counter("sweep.points")
_M_POINTS_CACHED = obs_metrics.counter("sweep.points_cached")
_M_POINTS_EVALUATED = obs_metrics.counter("sweep.points_evaluated")
_M_GRID_POINTS = obs_metrics.counter("sweep.grid_points")
_M_GRID_CHUNKS = obs_metrics.counter("sweep.grid_chunks")
_M_GRID_CHUNKS_CACHED = obs_metrics.counter("sweep.grid_chunks_cached")

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.batch import BatchSweepResult, DesignGrid

#: grid points per columnar chunk: 8192 points x ~14 float64 working columns
#: is under 1 MB, so a chunk's whole working set stays cache-resident while
#: still amortising the per-chunk constant-folding overhead
GRID_CHUNK_POINTS = 8192


class SweepExecutor:
    """Evaluates many design points through one engine, cached and parallel."""

    def __init__(
        self,
        engine: str | Engine = "analytical",
        network: Optional[Network] = None,
        batch: int = 128,
        engine_kwargs: Optional[Dict] = None,
        cache: Optional[RunCache] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        if isinstance(engine, Engine):
            # a pre-built engine can be used serially but cannot be shipped to
            # workers by name; parallel runs require a registry name
            self.engine_name = engine.name
            self._engine: Optional[Engine] = engine
            self.engine_kwargs: Dict = {}
            self._parallelizable = False
        else:
            self.engine_name = engine
            self.engine_kwargs = dict(engine_kwargs or {})
            self._engine = None
            # only the built-in engines resolve by name in any worker; custom
            # registrations would be missing under the spawn/forkserver start
            # methods, so those engines stay serial
            self._parallelizable = engine in DEFAULT_ENGINES
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.network = network
        self.batch = batch
        self.cache = cache
        self.max_workers = max_workers
        #: the process-wide worker pool handle, created lazily on the first
        #: parallel call and shared with every other runtime consumer (the
        #: executor's --workers only sizes its own calls)
        self._pool = shared_runtime()
        #: network fingerprints already broadcast, per live pool instance
        #: (a replaced pool has fresh workers that know no networks)
        self._broadcast: set = set()
        self._broadcast_pool: Optional[ParallelRuntime] = None

    # ------------------------------------------------------------------ #
    # engine access
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> Engine:
        """The executor's in-process engine instance (lazily created)."""
        if self._engine is None:
            self._engine = create_engine(self.engine_name, **self.engine_kwargs)
        return self._engine

    # ------------------------------------------------------------------ #
    # runtime lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Detach from the shared pool (idempotent; serial use needs none)."""
        self._pool.release()
        self._broadcast = set()
        self._broadcast_pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, config: Optional[ChainConfig],
                 network: Optional[Network] = None,
                 batch: Optional[int] = None) -> RunRecord:
        """Evaluate a single point (through the cache when one is attached)."""
        return self.run([config], network=network, batch=batch, parallel=False)[0]

    def run(
        self,
        configs: Sequence[Optional[ChainConfig]],
        network: Optional[Network] = None,
        batch: Optional[int] = None,
        parallel: bool = False,
    ) -> List[RunRecord]:
        """Evaluate ``configs`` in order; identical results serial or parallel.

        Cached points never reach a worker.  The returned list is aligned
        with ``configs`` regardless of completion order.
        """
        batch = self.batch if batch is None else batch
        return self.run_points([(config, batch) for config in configs],
                               network=network, parallel=parallel)

    def run_batches(
        self,
        config: Optional[ChainConfig],
        batches: Sequence[int],
        network: Optional[Network] = None,
        parallel: bool = False,
    ) -> List[RunRecord]:
        """Evaluate one configuration at many batch sizes (the Sec. V.B axis)."""
        return self.run_points([(config, batch) for batch in batches],
                               network=network, parallel=parallel)

    def run_points(
        self,
        points: Sequence[Tuple[Optional[ChainConfig], int]],
        network: Optional[Network] = None,
        parallel: bool = False,
    ) -> List[RunRecord]:
        """Evaluate arbitrary (config, batch) points, cached and parallel."""
        network = network or self.network
        if network is None:
            raise ValueError("SweepExecutor needs a network (constructor or run())")

        with obs_trace.span("sweep.run_points", engine=self.engine_name,
                            network=network.name, points=len(points)) as sweep_span:
            keys = [run_key(self.engine, network, config, batch)
                    for config, batch in points]
            records: List[Optional[RunRecord]] = [None] * len(points)
            pending: List[Tuple[int, Optional[ChainConfig], int]] = []
            for index, (point, key) in enumerate(zip(points, keys)):
                cached = self.cache.get(key) if self.cache is not None else None
                if cached is not None:
                    records[index] = cached
                else:
                    pending.append((index, point[0], point[1]))
            _M_POINTS.inc(len(points))
            _M_POINTS_CACHED.inc(len(points) - len(pending))
            _M_POINTS_EVALUATED.inc(len(pending))
            sweep_span.set(cached=len(points) - len(pending))

            if pending:
                fresh = self._run_pending(pending, network, parallel)
                for (index, _, _), record in zip(pending, fresh):
                    record = record.with_cache_info(cache_key=keys[index],
                                                    cached=False)
                    if self.cache is not None:
                        self.cache.put(keys[index], record)
                    records[index] = record
        return [record for record in records if record is not None]

    def run_grid(
        self,
        grid: "DesignGrid",
        network: Optional[Network] = None,
        base: Optional[ChainConfig] = None,
        chunk_size: Optional[int] = None,
    ) -> "BatchSweepResult":
        """Evaluate a design grid through the engine's columnar fast path.

        The grid is split into cache-aware chunks (:data:`GRID_CHUNK_POINTS`
        by default) and each chunk goes through ``engine.evaluate_batch`` —
        the struct-of-arrays fast path for engines that support it, the
        per-point fallback loop otherwise.  With a cache attached, chunks are
        memoised whole (one record per chunk rather than one per point, which
        is what makes 10^5-point grids cacheable at all); re-running a sweep
        after editing one axis only re-evaluates the chunks that changed.
        """
        from repro.analysis.batch import BatchSweepResult

        network = network or self.network
        if network is None:
            raise ValueError("SweepExecutor needs a network (constructor or run_grid())")
        chunk_size = GRID_CHUNK_POINTS if chunk_size is None else chunk_size

        results: List["BatchSweepResult"] = []
        for chunk in grid.chunks(chunk_size):
            key = grid_key(self.engine, network, base, chunk)
            cached = self.cache.get(key) if self.cache is not None else None
            _M_GRID_CHUNKS.inc()
            _M_GRID_POINTS.inc(chunk.n_points)
            if cached is not None and "batch_result" in cached.extra:
                _M_GRID_CHUNKS_CACHED.inc()
                results.append(BatchSweepResult.from_json_dict(cached.extra["batch_result"]))
                continue
            with obs_trace.span("sweep.grid_chunk", engine=self.engine_name,
                                network=network.name, points=chunk.n_points):
                result = self.engine.evaluate_batch(network, chunk, base=base)
            if self.cache is not None:
                record = RunRecord(
                    engine=self.engine.name,
                    network=network.name,
                    batch=0,
                    config_summary=f"grid chunk ({chunk.n_points} points)",
                    metrics={"points": float(chunk.n_points)},
                    extra={"batch_result": result.to_json_dict()},
                )
                self.cache.put(key, record)
            results.append(result)
        if len(results) == 1:
            return results[0]
        return BatchSweepResult.concatenate(results)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _run_pending(
        self,
        pending: Sequence[Tuple[int, Optional[ChainConfig], int]],
        network: Network,
        parallel: bool,
    ) -> List[RunRecord]:
        if parallel and self._parallelizable and len(pending) > 1:
            runtime = self._pool.get(task_hint=len(pending),
                                     workers=self.max_workers)
            if runtime is not None:
                try:
                    if runtime is not self._broadcast_pool:
                        self._broadcast = set()
                        self._broadcast_pool = runtime
                    fingerprint = canonical_json(workload_fingerprint(network))
                    if fingerprint not in self._broadcast:
                        with obs_trace.span("sweep.broadcast_network",
                                            network=network.name):
                            runtime.broadcast("sweep.set_network",
                                              {"fingerprint": fingerprint,
                                               "network": network})
                        self._broadcast.add(fingerprint)
                    return runtime.map("sweep.point", [
                        {
                            "engine": self.engine_name,
                            "engine_kwargs": self.engine_kwargs,
                            "network_fingerprint": fingerprint,
                            "config": config,
                            "batch": batch,
                        }
                        for _, config, batch in pending
                    ])
                except WorkerError:
                    # last rung of the degradation ladder: even the
                    # supervised pool could not complete the call — finish
                    # on the serial path, which is bit-identical (a genuine
                    # engine bug re-raises its original exception below)
                    self._broadcast = set()
                    self._broadcast_pool = None
        return [
            self.engine.evaluate(network, config, batch)
            for _, config, batch in pending
        ]
