"""Persistent process-pool parallel runtime.

``repro.runtime`` is the process-level parallel substrate axis sweeps and
the mapping search fan out over:

* :class:`~repro.runtime.pool.ParallelRuntime` — persistent worker
  processes with per-worker task queues, ordered result assembly, error
  propagation and graceful serial degradation on platforms without process
  pools;
* :class:`~repro.runtime.supervisor.SupervisedRuntime` — the fault-tolerant
  layer on top: per-task deadlines, dead-worker respawn with broadcast-log
  replay, bounded retry with backoff, poison-task quarantine and a
  parallel → respawn → serial degradation ladder, all bit-identical to the
  serial path;
* :mod:`~repro.runtime.faults` — deterministic, seeded fault injection
  (``$REPRO_FAULT_SPEC``) consulted by workers at task boundaries, so the
  recovery machinery is reproducibly testable;
* :mod:`~repro.runtime.tasks` — the registry of worker-side task functions
  (sweep point evaluation, per-layer mapping search), each reusing
  per-worker cached engines and networks.

Consumers (``SweepExecutor``, ``ScheduleOptimizer``) guarantee **bit-identical results** between
their serial and parallel paths; the runtime only changes wall-clock time —
even when workers crash or hang mid-run.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FAULT_SPEC_ENV": "repro.runtime.faults",
    "FaultPlan": "repro.runtime.faults",
    "FaultRule": "repro.runtime.faults",
    "FaultSpecError": "repro.runtime.faults",
    "LazyRuntime": "repro.runtime.pool",
    "ParallelRuntime": "repro.runtime.pool",
    "shared_runtime": "repro.runtime.pool",
    "RetryPolicy": "repro.runtime.supervisor",
    "SupervisedRuntime": "repro.runtime.supervisor",
    "SupervisionStats": "repro.runtime.supervisor",
    "TASKS": "repro.runtime.tasks",
    "TaskFailure": "repro.runtime.supervisor",
    "WorkerError": "repro.runtime.pool",
    "resolve_workers": "repro.runtime.pool",
    "task": "repro.runtime.tasks",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
