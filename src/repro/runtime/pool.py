"""Persistent process pool with ordered results and serial degradation.

``ProcessPoolExecutor`` pays its construction cost on every sweep call and
re-pickles every payload from scratch; :class:`ParallelRuntime` instead keeps
**persistent workers** alive across calls, so per-worker state (engines,
simulators, broadcast networks) is built once and reused, and large tensors
travel through :mod:`repro.runtime.shm` instead of pickle.

Design points:

* **per-worker inboxes** — tasks are assigned round-robin by index, which
  makes result assembly deterministic and lets :meth:`broadcast` address
  every worker exactly once (context distribution);
* **ordered assembly** — :meth:`map` returns results in submission order
  regardless of completion order;
* **error propagation** — a task exception is re-raised in the parent as
  :class:`WorkerError` carrying the worker-side traceback; a *dead* worker
  (hard crash, ``os._exit``) is detected and reported instead of hanging;
* **graceful degradation** — :meth:`ParallelRuntime.create` returns ``None``
  on platforms that cannot provide process pools (missing semaphores,
  restricted sandboxes); callers fall back to bit-identical serial paths;
* **fault injection** — workers consult a :class:`~repro.runtime.faults.
  FaultPlan` (``$REPRO_FAULT_SPEC``) at every task boundary, so crash/hang
  recovery is reproducibly testable;
* **orphan cleanup** — an :mod:`atexit` hook closes every still-open pool
  when the parent exits without :meth:`close`, so crashed CLIs never leave
  worker processes behind.

This class is the *mechanism* layer: it detects death but treats it as
fatal for the call.  :class:`repro.runtime.supervisor.SupervisedRuntime`
builds retry/respawn/quarantine *policy* on top; :class:`LazyRuntime`
hands consumers a supervised pool by default.
"""

from __future__ import annotations

import atexit
import os
import time
import traceback
import warnings
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY
from repro.runtime.faults import FaultPlan, resolve_fault_plan
from repro.runtime.tasks import TASKS

#: set to force pool creation on single-core hosts (tests, debugging)
FORCE_PARALLEL_ENV = "REPRO_FORCE_PARALLEL"

#: one single-core degradation warning per process, not one per consumer
_warned_single_core = False

#: seconds between worker-liveness checks while draining results
_POLL_SECONDS = 0.1

#: seconds to wait for a worker to exit after the shutdown sentinel
_JOIN_SECONDS = 5.0

#: pools not yet closed — swept by the atexit hook below
_LIVE_RUNTIMES: "weakref.WeakSet[ParallelRuntime]" = weakref.WeakSet()
_atexit_registered = False


def _close_leaked_runtimes() -> None:  # pragma: no cover - exit-path hook
    """Close pools the owner never closed (atexit; owner process only)."""
    for runtime in list(_LIVE_RUNTIMES):
        if runtime._owner_pid != os.getpid():
            continue  # forked child inheriting the set must not reap them
        try:
            runtime.close()
        except Exception:
            pass


def _track_runtime(runtime: "ParallelRuntime") -> None:
    global _atexit_registered
    if not _atexit_registered:
        _atexit_registered = True
        atexit.register(_close_leaked_runtimes)
    _LIVE_RUNTIMES.add(runtime)


class WorkerError(RuntimeError):
    """A task failed (or its worker died) in the parallel runtime."""


def resolve_workers(workers: Optional[int]) -> int:
    """Requested worker count -> effective count (``None`` = CPU count)."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _worker_main(worker_id: int, inbox, writer, fault_spec: Optional[str]) -> None:
    """Worker loop: run registered tasks against a persistent context.

    Results travel over a **per-worker pipe**, not a shared queue.  A shared
    ``multiprocessing.Queue`` writes through a feeder thread holding a lock
    shared by every worker — a worker dying mid-write (``os._exit``, OOM
    kill, supervisor terminate) leaves that lock held forever and wedges
    the whole pool.  With one pipe per worker, a death can only ever
    corrupt that worker's own stream; the parent sees EOF, discards the
    pipe, and the rest of the pool is untouched.  ``Connection.send``
    pickles *before* writing, so a pickling error surfaces through the
    normal error path instead of a torn frame.

    Result messages are 6-tuples ``(worker_id, task_id, attempt, ok,
    value, obs)``: the last slot carries this worker's observability
    payload (completed spans + metrics delta) when tracing is enabled and
    ``None`` otherwise.  Shipping per task (rather than at shutdown) is
    what lets a merged trace survive worker crash/respawn — only the
    in-flight task's spans die with the worker.
    """
    plan = FaultPlan.parse(fault_spec) if fault_spec else FaultPlan.none()
    obs_trace.worker_init(worker_id)
    context: Dict[str, Any] = {"worker_id": worker_id}
    while True:
        message = inbox.get()
        if message is None:
            break
        task_id, attempt, name, payload = message
        try:
            # fault injection happens at the task boundary, before any work:
            # a crash here models an OOM-kill, a hang models a wedged worker,
            # and neither can leave a half-written result behind
            plan.inject(task_id, attempt)
            fn = TASKS[name]
            with obs_trace.span("task:" + name, task_id=task_id,
                                attempt=attempt):
                result = fn(payload, context)
            writer.send((worker_id, task_id, attempt, True, result,
                         obs_trace.ship()))
        except BaseException as error:  # noqa: BLE001 - forwarded to parent
            detail = f"{type(error).__name__}: {error}\n{traceback.format_exc()}"
            try:
                writer.send((worker_id, task_id, attempt, False, detail,
                             obs_trace.ship()))
            except Exception:  # pragma: no cover - pipe gone: die visibly
                os._exit(1)


class ParallelRuntime:
    """Persistent worker processes executing registered tasks."""

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        fault_plan: "FaultPlan | str | None" = None,
    ) -> None:
        import multiprocessing as mp

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # fork keeps worker startup cheap and inherits registered tasks;
        # other platforms fall back to their default start method
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = mp.get_context(start_method)
        self.workers = workers
        self.start_method = start_method
        self.fault_plan = resolve_fault_plan(fault_plan)
        self._inboxes: List[Any] = [None] * workers
        self._readers: List[Any] = [None] * workers
        self._processes: List[Any] = [None] * workers
        self._closed = False
        self._task_counter = 0
        self._owner_pid = os.getpid()
        for worker_id in range(workers):
            self._spawn_worker(worker_id)
        _track_runtime(self)

    def _spawn_worker(self, worker_id: int) -> None:
        """(Re)start worker ``worker_id`` with a **fresh** inbox.

        A fresh inbox on respawn is load-bearing: tasks queued to the dead
        incarnation must not be consumed by the new one — the supervisor
        re-dispatches them from its own bookkeeping, so a stale queue would
        mean double execution.
        """
        inbox = self._ctx.SimpleQueue()
        reader, writer = self._ctx.Pipe(duplex=False)
        spec = self.fault_plan.describe() or None
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, inbox, writer, spec),
            daemon=True,
            name=f"repro-runtime-{worker_id}",
        )
        process.start()
        # the child now holds the only writer, so worker death surfaces as
        # EOF on the reader — event-driven, not poll-driven, detection
        writer.close()
        self._close_reader(worker_id)
        self._inboxes[worker_id] = inbox
        self._readers[worker_id] = reader
        self._processes[worker_id] = process

    def _close_reader(self, worker_id: int) -> None:
        reader = self._readers[worker_id]
        if reader is not None:
            try:
                reader.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._readers[worker_id] = None

    # ------------------------------------------------------------------ #
    # construction with degradation
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        workers: Optional[int] = None,
        fault_plan: "FaultPlan | str | None" = None,
    ) -> Optional["ParallelRuntime"]:
        """A runtime, or ``None`` where the platform cannot provide one."""
        count = resolve_workers(workers)
        try:
            return cls(count, fault_plan=fault_plan)
        except (OSError, ValueError, RuntimeError, ImportError):
            # restricted sandboxes (no semaphores / fork) — callers degrade
            # to their serial paths, which produce identical results
            return None

    # ------------------------------------------------------------------ #
    # task dispatch
    # ------------------------------------------------------------------ #
    def map(self, task: str, payloads: Sequence[Any]) -> List[Any]:
        """Run ``task`` over ``payloads``; results in submission order.

        Payload ``i`` goes to worker ``i % workers`` — a deterministic
        assignment, so repeated calls with the same payloads exercise the
        same worker-local caches.
        """
        self._check_dispatch(task)
        payloads = list(payloads)
        # reserve the id range *before* submitting: if a payload fails to
        # pickle mid-loop, already-submitted tasks must never share an id
        # with a later call (the drain filter relies on disjoint ranges)
        first_id = self._task_counter
        self._task_counter += len(payloads)
        for index, payload in enumerate(payloads):
            self._inboxes[index % self.workers].put(
                (first_id + index, 0, task, payload))
        return self._drain(first_id, len(payloads))

    def broadcast(self, task: str, payload: Any) -> List[Any]:
        """Run one task on *every* worker (context distribution); ordered."""
        self._check_dispatch(task)
        first_id = self._task_counter
        self._task_counter += self.workers
        for offset, inbox in enumerate(self._inboxes):
            inbox.put((first_id + offset, 0, task, payload))
        return self._drain(first_id, self.workers)

    def _poll_results(
        self, timeout: float
    ) -> Tuple[List[Tuple[int, int, int, bool, Any]], List[int]]:
        """One wait on every worker pipe -> (messages, EOF'd worker ids).

        Messages already buffered on a pipe are drained *before* its EOF is
        reported, so a worker that finished a task and then died never loses
        the finished result.

        This is the single funnel every consumer (plain ``_drain`` and the
        supervisor's loops) receives results through, so the worker
        observability payload is absorbed here — merged into the parent's
        recorder/metrics registry — and stripped, leaving the 5-tuples the
        policy layer above was written against.
        """
        from multiprocessing import connection

        readers = [r for r in self._readers if r is not None and not r.closed]
        messages: List[Tuple[int, int, int, bool, Any]] = []
        dead: List[int] = []
        if not readers:
            time.sleep(timeout)
            return messages, dead
        for ready in connection.wait(readers, timeout):
            worker_id = self._readers.index(ready)
            try:
                while ready.poll():
                    message = ready.recv()
                    obs_trace.absorb(message[5])
                    messages.append(message[:5])
            except (EOFError, OSError):
                dead.append(worker_id)
        return messages, dead

    def _drain(self, first_id: int, count: int) -> List[Any]:
        """Collect ``count`` results, raising on task errors or dead workers."""
        results: List[Any] = [None] * count
        received = 0
        failure: Optional[str] = None
        while received < count:
            messages, eof = self._poll_results(_POLL_SECONDS)
            for _, task_id, _, ok, value in messages:
                if not (first_id <= task_id < first_id + count):
                    continue  # stray result from an aborted earlier call
                received += 1
                if ok:
                    results[task_id - first_id] = value
                elif failure is None:
                    failure = str(value)
            if received >= count:
                break
            dead = [self._processes[w].name for w in eof]
            if not dead:
                dead = [p.name for p in self._processes
                        if p is not None and not p.is_alive()]
            if dead:
                self._shutdown(force=True)
                raise WorkerError(
                    "worker process died while running tasks: "
                    + ", ".join(sorted(set(dead)))
                ) from None
        if failure is not None:
            raise WorkerError(f"runtime task failed in worker:\n{failure}")
        return results

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once the pool stopped (explicitly or after a worker died)."""
        return self._closed

    def _check_dispatch(self, task: str) -> None:
        if self._closed:
            raise WorkerError("runtime is closed")
        if task not in TASKS:
            raise WorkerError(f"unknown runtime task {task!r}")

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._shutdown(force=False)

    def _shutdown(self, force: bool) -> None:
        self._closed = True
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for process in self._processes:
            if process is None:
                continue
            process.join(0.0 if force else _JOIN_SECONDS)
            if process.is_alive():
                process.terminate()
                process.join(_JOIN_SECONDS)
        for worker_id in range(self.workers):
            self._close_reader(worker_id)

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


class LazyRuntime:
    """Create-once/release-often ownership of a supervised runtime pool.

    The shared lifecycle every runtime consumer (sweep executor, schedule
    optimizer, network runner, functional engine, evaluation server) needs:

    * the pool is created on first :meth:`get` and **reused across calls**
      (that is what makes the workers persistent);
    * a pool that closed itself is *replaced* on the next :meth:`get` —
      one fatal crash does not poison the owner forever;
    * ``task_hint`` caps creation at the useful size, so three pending
      points never fork a 64-core pool — and a later call with more work
      **grows** the pool (replacing the small one) rather than staying
      pinned to the first call's size; replacing a *live* pool emits a
      one-line warning, a ``runtime.pool_replaced`` counter and a trace
      instant carrying the reason, so double-spawns are visible, never
      silent;
    * a per-call ``workers`` override sizes the pool for that caller
      without rebuilding it when callers with different ``--workers``
      alternate — the pool only ever grows to the largest request;
    * a live pool whose fault plan no longer matches ``$REPRO_FAULT_SPEC``
      is replaced, so a chaos-injected pool never leaks into clean runs
      (or vice versa).

    Pools handed out are :class:`~repro.runtime.supervisor.
    SupervisedRuntime` instances, so worker crashes, hangs and poison
    tasks are retried/respawned/quarantined instead of aborting the run.
    An explicit ``policy`` overrides the environment-derived retry policy.

    Most consumers should hold the process-wide handle from
    :func:`shared_runtime` and detach with :meth:`release` — only owners
    of a private handle (tests, benchmarks) call :meth:`close` directly.
    """

    def __init__(self, workers: Optional[int] = None, policy=None) -> None:
        self.workers = workers
        self.policy = policy
        self._runtime: Optional[ParallelRuntime] = None

    @property
    def runtime(self) -> Optional[ParallelRuntime]:
        """The currently live pool, without creating one."""
        if isinstance(self._runtime, ParallelRuntime) and not self._runtime.closed:
            return self._runtime
        return None

    def get(self, task_hint: Optional[int] = None,
            workers: Optional[int] = None) -> Optional[ParallelRuntime]:
        """The live pool, creating / growing / replacing one as needed."""
        global _warned_single_core
        if (os.cpu_count() or 1) <= 1 and not os.environ.get(FORCE_PARALLEL_ENV):
            # forking workers on a single core only adds IPC overhead; the
            # serial paths are bit-identical, so degrade instead (checked
            # per call, not memoised: a shared process-wide handle must not
            # stay poisoned once the condition changes)
            if not _warned_single_core:
                _warned_single_core = True
                warnings.warn(
                    "single-core host: --workers degraded to serial execution "
                    f"(set {FORCE_PARALLEL_ENV}=1 to force a pool)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None
        target = resolve_workers(workers if workers is not None else self.workers)
        if task_hint is not None:
            target = max(1, min(target, task_hint))
        live = self.runtime
        plan_current = resolve_fault_plan(None).describe()
        if live is not None:
            if live.workers >= target \
                    and live.fault_plan.describe() == plan_current:
                return live
            reason = ("fault plan changed"
                      if live.fault_plan.describe() != plan_current
                      else f"growing to {target} workers for this call")
            REGISTRY.counter("runtime.pool_replaced").inc()
            obs_trace.instant("runtime.pool_replaced", reason=reason,
                              workers=live.workers, target=target)
            warnings.warn(
                f"replacing live {live.workers}-worker pool ({reason})",
                RuntimeWarning,
                stacklevel=2,
            )
        # dead pool, or live-but-unsuitable for this call: replace (pools
        # only ever grow; a later small call reuses the big pool)
        self.close()
        # create() resolves through the MRO, so SupervisedRuntime instances
        # come out of ParallelRuntime.create's degradation funnel
        from repro.runtime.supervisor import SupervisedRuntime

        self._runtime = SupervisedRuntime.create(target)
        runtime = self.runtime
        if runtime is not None and self.policy is not None \
                and hasattr(runtime, "policy"):
            runtime.policy = self.policy
        return runtime

    def close(self) -> None:
        """Stop the pool; the next :meth:`get` may create a fresh one."""
        if isinstance(self._runtime, ParallelRuntime):
            self._runtime.close()
        self._runtime = None

    def release(self) -> None:
        """Consumer detach: closes private handles, keeps the shared one.

        Every pool consumer calls this from its own ``close()``.  A private
        handle dies with its consumer exactly as before; the process-wide
        :func:`shared_runtime` handle stays up for the next consumer (the
        atexit sweep reaps it at interpreter exit).
        """
        if self is not _shared_runtime:
            self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


#: the process-wide pool handle (created on first use, re-keyed after fork)
_shared_runtime: Optional[LazyRuntime] = None
_shared_runtime_pid: Optional[int] = None


def shared_runtime() -> LazyRuntime:
    """The single process-wide :class:`LazyRuntime` every consumer shares.

    Routing the sweep executor, schedule optimizer, network runner,
    functional engine and the evaluation server through one handle means
    one process never hosts duplicate worker pools: alternating consumers
    (or ``--workers`` values) reuse the existing pool when it is big
    enough and grow it — with a warning — when it is not.  A forked child
    gets a fresh handle; the parent's pool belongs to the parent.
    """
    global _shared_runtime, _shared_runtime_pid
    if _shared_runtime is None or _shared_runtime_pid != os.getpid():
        _shared_runtime = LazyRuntime()
        _shared_runtime_pid = os.getpid()
    return _shared_runtime
