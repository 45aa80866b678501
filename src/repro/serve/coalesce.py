"""Request coalescing: merge compatible sweeps into one columnar call.

The batch evaluator's throughput comes from array width — scoring one
point costs nearly as much as scoring thousands.  The coalescer exploits
that without waiting for company: a request on an idle key is scored at
once, and requests that queue behind a batch in flight for their key
(engine fingerprint, network workload, base config and cache schema) are
concatenated into a single
:class:`~repro.analysis.batch.DesignGrid`, scored by **one**
``evaluate_batch`` call, and sliced back per request.

Because the batch evaluator is purely elementwise per design point,
concatenate → evaluate → slice is float-bit-identical to evaluating each
request's grid alone; the scatter step uses
:meth:`~repro.analysis.batch.BatchSweepResult.take` so even column
dtypes survive untouched.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Deque, Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.batch import BatchSweepResult, DesignGrid
from repro.obs import metrics as obs_metrics

__all__ = ["Coalescer", "merge_grids", "scatter_result"]

#: a batch closes once it holds this many points / requests; the rest of
#: the parked bucket goes out in the batches after it
DEFAULT_MAX_POINTS = 262_144
DEFAULT_MAX_REQUESTS = 256

_M_BATCHES = obs_metrics.counter("serve.coalesced_batches")
_M_COALESCED = obs_metrics.counter("serve.coalesced_requests")
_M_BATCH_REQUESTS = obs_metrics.histogram("serve.batch_requests")
_M_BATCH_POINTS = obs_metrics.histogram("serve.batch_points")
_M_QUEUE_WAIT = obs_metrics.histogram("serve.queue_wait_s")


def merge_grids(grids: Sequence[DesignGrid]) -> Tuple[DesignGrid,
                                                      List[Tuple[int, int]]]:
    """Concatenate grids into one; returns ``(merged, [(start, stop)])``."""
    spans: List[Tuple[int, int]] = []
    offset = 0
    for grid in grids:
        spans.append((offset, offset + grid.n_points))
        offset += grid.n_points
    if len(grids) == 1:
        return grids[0], spans
    merged = DesignGrid(
        num_pes=np.concatenate([grid.num_pes for grid in grids]),
        frequency_hz=np.concatenate([grid.frequency_hz for grid in grids]),
        batch=np.concatenate([grid.batch for grid in grids]),
        word_bits=np.concatenate([grid.word_bits for grid in grids]),
    )
    return merged, spans


def scatter_result(result: BatchSweepResult,
                   spans: Sequence[Tuple[int, int]]) -> List[BatchSweepResult]:
    """Slice a merged result back into per-request results, in span order."""
    return [result.take(np.arange(start, stop)) for start, stop in spans]


@dataclass
class _Pending:
    """One awaiting request inside a batch bucket."""

    grid: DesignGrid
    future: "asyncio.Future[BatchSweepResult]"
    enqueued: float


@dataclass
class Coalescer:
    """Zero-wait micro-batcher over an async ``evaluate`` callable.

    ``evaluate(key, merged_grid)`` scores one merged grid (the server
    runs it in a worker thread so the event loop stays responsive).
    ``submit`` parks each request on a future in its key's bucket.  The
    first request of an idle key starts the key's driver task on the
    next loop turn (submits made in the same turn join it, nothing waits
    on a timer); the driver scores the bucket batch after batch within
    the size bounds, requests arriving meanwhile park for the next batch,
    and the key goes idle once its bucket is empty.  Requests with
    different keys never share a batch.
    """

    evaluate: Callable[[str, DesignGrid], Awaitable[BatchSweepResult]]
    max_points: int = DEFAULT_MAX_POINTS
    max_requests: int = DEFAULT_MAX_REQUESTS
    #: raw queue-wait samples for p50/p99 (the metrics histogram keeps
    #: only count/total/min/max)
    queue_waits: Deque[float] = field(default_factory=lambda: deque(maxlen=8192))

    def __post_init__(self) -> None:
        #: parked requests and driver task of every busy key
        self._busy: Dict[str, Tuple[List[_Pending], "asyncio.Task[None]"]] = {}

    async def submit(self, key: str, grid: DesignGrid) -> BatchSweepResult:
        """Queue one request's grid; resolves with its slice of the batch."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[BatchSweepResult]" = loop.create_future()
        if key not in self._busy:
            bucket: List[_Pending] = []
            self._busy[key] = (bucket, loop.create_task(self._drive(key, bucket)))
        self._busy[key][0].append(_Pending(grid, future, loop.time()))
        return await future

    async def _drive(self, key: str, bucket: List[_Pending]) -> None:
        """Score ``key``'s bucket batch after batch until it stays empty."""
        try:
            while bucket:
                points = size = 0
                while (size < len(bucket) and size < self.max_requests
                       and points < self.max_points):
                    points += bucket[size].grid.n_points
                    size += 1
                batch = bucket[:size]
                del bucket[:size]
                await self._flush(key, batch)
        finally:
            del self._busy[key]

    async def _flush(self, key: str, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        for pending in batch:
            wait = now - pending.enqueued
            _M_QUEUE_WAIT.observe(wait)
            self.queue_waits.append(wait)
        try:
            merged, spans = merge_grids([pending.grid for pending in batch])
            _M_BATCHES.inc()
            _M_COALESCED.inc(len(batch))
            _M_BATCH_REQUESTS.observe(len(batch))
            _M_BATCH_POINTS.observe(merged.n_points)
            pieces = scatter_result(await self.evaluate(key, merged), spans)
        except Exception as error:  # noqa: BLE001 - fan the failure out
            # and keep the driver alive for the requests parked behind
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
            return
        for pending, piece in zip(batch, pieces):
            if not pending.future.done():
                pending.future.set_result(piece)

    async def drain(self) -> None:
        """Wait until every parked and in-flight request has been scored."""
        while self._busy:
            await asyncio.gather(*[task for _, task in self._busy.values()],
                                 return_exceptions=True)
