"""Fault-tolerant supervision on top of the persistent worker pool.

:class:`~repro.runtime.pool.ParallelRuntime` is the *mechanism* layer: it
detects a dead worker but treats death as fatal for the whole call.  This
module adds the *policy* layer — :class:`SupervisedRuntime` keeps a run
alive through worker crashes, hangs and stragglers:

* **per-task deadlines** — a worker stuck on one task past
  :attr:`RetryPolicy.deadline` is killed and its work reassigned (this is
  how hung workers are recovered; nothing else can interrupt a wedged
  child process);
* **respawn + retry with backoff** — dead workers are replaced (bounded by
  :attr:`RetryPolicy.max_respawns` per call, with exponential backoff
  between consecutive deaths) and their in-flight tasks re-dispatched to
  healthy workers, each task bounded by :attr:`RetryPolicy.max_attempts`;
* **context replay** — a respawned worker is empty; the supervisor keeps a
  log of every successful :meth:`broadcast` (networks) and
  replays it into fresh workers before handing them tasks;
* **poison quarantine** — a task whose dispatches keep killing workers is
  pulled out of the pool after ``max_attempts`` charges: re-executed
  serially in the parent (``quarantine="serial"``, the default) or
  surfaced as a structured :class:`TaskFailure` result
  (``quarantine="failure"``) instead of killing the run;
* **serial drain** — when no parallel capacity remains (every worker dead
  or condemned and the respawn budget spent), the remaining tasks run
  serially in the parent.

The degradation ladder is therefore parallel → respawn → serial, and every
rung produces **bit-identical results**: registered tasks are pure
functions of their payloads (worker state is only a cache), so *where* a
task runs never changes *what* it returns.  Execution is at-least-once —
a deadline kill can race a worker that just finished, re-running the task
— which is safe for the same reason.

Retries, attempts and injected faults are all keyed on ``(task_id,
attempt)``, so a seeded :class:`~repro.runtime.faults.FaultPlan` exercises
exactly the same recovery path on every run.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY
from repro.runtime.pool import (
    _JOIN_SECONDS,
    _POLL_SECONDS,
    ParallelRuntime,
    WorkerError,
)
from repro.runtime.tasks import TASKS

#: seconds one task attempt may hold a worker before it is killed/retried
DEADLINE_ENV = "REPRO_TASK_DEADLINE"

#: attempts per task before quarantine (overrides RetryPolicy.max_attempts)
RETRIES_ENV = "REPRO_TASK_RETRIES"

#: tasks queued per worker beyond the running one; small keeps the requeue
#: set small on death, >0 keeps workers busy without a round-trip stall
_WORKER_WINDOW = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the supervision layer (all bounded, all overridable)."""

    #: seconds one attempt may run before its worker is killed (None = no
    #: deadline; hung workers then only surface through explicit close)
    deadline: Optional[float] = None
    #: worker deaths charged to one task before it is quarantined
    max_attempts: int = 3
    #: base seconds slept before a respawn; doubles per consecutive death
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    #: worker respawns allowed per map/broadcast call; exhausting it
    #: condemns dead slots and, with none left, drops to the serial drain
    max_respawns: int = 8
    #: what happens to a poison task: "serial" re-executes it in the
    #: parent (fault-free by construction), "failure" returns a
    #: :class:`TaskFailure` in its result slot
    quarantine: str = "serial"

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.quarantine not in ("serial", "failure"):
            raise ValueError(
                f"quarantine must be 'serial' or 'failure', got {self.quarantine!r}"
            )

    @classmethod
    def from_env(cls, **overrides: Any) -> "RetryPolicy":
        """Policy with ``$REPRO_TASK_DEADLINE`` / ``$REPRO_TASK_RETRIES`` applied."""
        kwargs: Dict[str, Any] = {}
        deadline = os.environ.get(DEADLINE_ENV)
        if deadline:
            kwargs["deadline"] = float(deadline)
        retries = os.environ.get(RETRIES_ENV)
        if retries:
            kwargs["max_attempts"] = int(retries)
        kwargs.update(overrides)
        return cls(**kwargs)


@dataclass(frozen=True)
class TaskFailure:
    """Structured result of a quarantined task (``quarantine="failure"``).

    Occupies the task's slot in the :meth:`SupervisedRuntime.map` result
    list, so callers opting into failure surfacing can see exactly which
    payloads were poisonous without losing the rest of the run.
    """

    task: str
    task_id: int
    attempts: int
    reason: str


@dataclass
class SupervisionStats:
    """Cumulative recovery counters of one :class:`SupervisedRuntime`."""

    dispatched: int = 0
    completed: int = 0
    retries: int = 0
    respawns: int = 0
    worker_deaths: int = 0
    deadline_kills: int = 0
    quarantined: int = 0
    task_failures: int = 0
    serial_tasks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class SupervisedRuntime(ParallelRuntime):
    """A :class:`ParallelRuntime` that survives worker crashes and hangs."""

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        fault_plan=None,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(workers, start_method, fault_plan)
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        self.stats = SupervisionStats()
        #: successfully broadcast (task, payload) pairs, replayed into every
        #: respawned worker so fresh processes regain broadcast networks
        self._broadcast_log: List[Tuple[str, Any]] = []
        #: per-worker count of log entries applied to the live incarnation
        self._applied: List[int] = [0] * workers
        #: context for quarantine/serial-drain execution in the parent
        self._parent_context: Dict[str, Any] = {"worker_id": -1}
        self._parent_replayed = 0
        #: consecutive deaths without an intervening success (backoff input)
        self._death_streak = 0

    # ------------------------------------------------------------------ #
    # worker lifecycle helpers
    # ------------------------------------------------------------------ #
    def _count(self, field: str, n: int = 1, event: bool = True,
               **attrs: Any) -> None:
        """Bump one :class:`SupervisionStats` field and its mirror metric.

        Every stats field doubles as a ``runtime.<field>`` counter in the
        observability registry, and rare recovery events (deaths, respawns,
        deadline kills, quarantines) additionally land as trace instants so
        the merged pool timeline shows *when* recovery happened, not just
        how often.
        """
        setattr(self.stats, field, getattr(self.stats, field) + n)
        REGISTRY.counter("runtime." + field).inc(n)
        if event:
            obs_trace.instant("runtime." + field, **attrs)

    def _respawn(self, worker_id: int) -> None:
        """Replace a dead worker with a fresh (context-empty) process."""
        self._count("respawns", worker_id=worker_id)
        time.sleep(min(
            self.policy.backoff * self.policy.backoff_factor
            ** max(0, self._death_streak - 1),
            self.policy.max_backoff,
        ))
        self._applied[worker_id] = 0
        self._spawn_worker(worker_id)

    def _kill_worker(self, worker_id: int) -> None:
        process = self._processes[worker_id]
        if process is not None and process.is_alive():
            process.terminate()
            process.join(_JOIN_SECONDS)

    def _replay_parent_context(self) -> None:
        """Apply the broadcast log to the parent's own task context."""
        while self._parent_replayed < len(self._broadcast_log):
            name, payload = self._broadcast_log[self._parent_replayed]
            self._parent_replayed += 1
            TASKS[name](payload, self._parent_context)

    def _run_in_parent(self, task: str, payload: Any) -> Any:
        """Serial execution of one task in the parent (quarantine/drain)."""
        self._replay_parent_context()
        try:
            with obs_trace.span("task:" + task, where="parent"):
                return TASKS[task](payload, self._parent_context)
        except Exception as error:
            raise WorkerError(
                "runtime task failed during serial fallback: "
                f"{type(error).__name__}: {error}"
            ) from error

    # ------------------------------------------------------------------ #
    # supervised broadcast
    # ------------------------------------------------------------------ #
    def broadcast(self, task: str, payload: Any) -> List[Any]:
        """Run one task on every live worker, surviving deaths mid-way.

        The entry joins the replay log *before* dispatch, so a worker dying
        mid-broadcast receives it again through respawn replay — and only
        entries that executed without raising stay in the log.
        """
        self._check_dispatch(task)
        self._broadcast_log.append((task, payload))
        target = len(self._broadcast_log)
        try:
            return self._sync_workers(target)
        except WorkerError:
            if len(self._broadcast_log) == target:
                self._broadcast_log.pop()
                self._parent_replayed = min(self._parent_replayed,
                                            len(self._broadcast_log))
            raise

    def _queue_replay(self, worker_id, queues, inflight, head_since, target):
        """Send this worker every log entry it has not applied yet."""
        for log_index in range(self._applied[worker_id], target):
            name, payload = self._broadcast_log[log_index]
            task_id = self._task_counter
            self._task_counter += 1
            self._inboxes[worker_id].put((task_id, 0, name, payload))
            if not queues[worker_id]:
                head_since[worker_id] = time.monotonic()
            queues[worker_id].append((task_id, 0, None))
            inflight[(task_id, 0)] = worker_id

    def _revive_dead_slots(self, budget: List[int]) -> Set[int]:
        """Usable worker ids, respawning between-call deaths budget permitting."""
        alive: Set[int] = set()
        for worker_id in range(self.workers):
            process = self._processes[worker_id]
            if process is not None and process.is_alive():
                alive.add(worker_id)
            elif budget[0] > 0:
                budget[0] -= 1
                self._respawn(worker_id)
                alive.add(worker_id)
        return alive

    def _sync_workers(self, target: Optional[int] = None) -> List[Any]:
        """Bring every worker's applied-log prefix up to ``target``.

        Returns the last log entry's result per worker slot (``None`` for
        slots condemned along the way) — which makes it double as the
        supervised broadcast implementation.
        """
        policy = self.policy
        if target is None:
            target = len(self._broadcast_log)
        results: List[Any] = [None] * self.workers
        budget = [policy.max_respawns]
        charges = [0] * self.workers
        queues: Dict[int, Deque] = {}
        head_since: Dict[int, float] = {}
        inflight: Dict[Tuple[int, int], int] = {}
        alive = self._revive_dead_slots(budget)
        for worker_id in alive:
            queues[worker_id] = deque()
            self._queue_replay(worker_id, queues, inflight, head_since, target)

        def condemned_or_respawn(worker_id: int) -> None:
            self._count("worker_deaths", worker_id=worker_id)
            self._death_streak += 1
            charges[worker_id] += 1
            while queues[worker_id]:
                task_id, attempt, _ = queues[worker_id].popleft()
                inflight.pop((task_id, attempt), None)
            if charges[worker_id] < policy.max_attempts and budget[0] > 0:
                budget[0] -= 1
                self._respawn(worker_id)
                self._queue_replay(worker_id, queues, inflight, head_since, target)
            else:
                alive.discard(worker_id)
                queues.pop(worker_id, None)
                self._close_reader(worker_id)

        while any(self._applied[w] < target for w in alive):
            messages, eof = self._poll_results(_POLL_SECONDS)
            # messages first: results a worker flushed before dying are
            # real results and must not be charged as failures
            for _, task_id, attempt, ok, value in messages:
                worker_id = inflight.pop((task_id, attempt), None)
                if worker_id is None:
                    continue  # stale: an earlier call or a dead incarnation
                queue = queues.get(worker_id)
                if queue and queue[0][0] == task_id:
                    queue.popleft()
                if queue:
                    head_since[worker_id] = time.monotonic()
                if not ok:
                    raise WorkerError(f"runtime task failed in worker:\n{value}")
                self._death_streak = 0
                self._applied[worker_id] += 1
                if self._applied[worker_id] == target:
                    results[worker_id] = value
            for worker_id in sorted(set(eof)):
                if worker_id in alive:
                    condemned_or_respawn(worker_id)
            if not messages and not eof:
                now = time.monotonic()
                for worker_id in sorted(alive):
                    process = self._processes[worker_id]
                    if process.is_alive():
                        if (policy.deadline is not None and queues[worker_id]
                                and now - head_since[worker_id] >= policy.deadline):
                            self._count("deadline_kills", worker_id=worker_id)
                            self._kill_worker(worker_id)
                        else:
                            continue
                    condemned_or_respawn(worker_id)
        return results

    # ------------------------------------------------------------------ #
    # supervised map
    # ------------------------------------------------------------------ #
    def map(self, task: str, payloads: Sequence[Any]) -> List[Any]:
        """Run ``task`` over ``payloads`` with retry/respawn/quarantine.

        Results come back in submission order and are bit-identical to the
        serial path regardless of how many workers died along the way; a
        poison payload either re-executes in the parent or yields a
        :class:`TaskFailure` in its slot, per :attr:`RetryPolicy.quarantine`.
        """
        self._check_dispatch(task)
        payloads = list(payloads)
        first_id = self._task_counter
        self._task_counter += len(payloads)
        if not payloads:
            return []

        policy = self.policy
        count = len(payloads)
        self._count("dispatched", count, event=False)
        results: List[Any] = [None] * count
        done = [False] * count
        charges = [0] * count     # worker deaths attributed to each task
        attempts = [0] * count    # dispatches so far (the fault-plan key)
        pending: Deque[int] = deque(range(count))
        remaining = count
        budget = [policy.max_respawns]
        queues: Dict[int, Deque] = {}
        head_since: Dict[int, float] = {}
        inflight: Dict[Tuple[int, int], int] = {}
        alive = self._revive_dead_slots(budget)
        log_target = len(self._broadcast_log)
        for worker_id in alive:
            queues[worker_id] = deque()
            self._queue_replay(worker_id, queues, inflight, head_since, log_target)

        def finish(index: int, value: Any) -> None:
            nonlocal remaining
            if not done[index]:
                results[index] = value
                done[index] = True
                remaining -= 1

        def quarantine(index: int) -> None:
            self._count("quarantined", task_id=first_id + index, task=task)
            if policy.quarantine == "failure":
                self._count("task_failures", event=False)
                finish(index, TaskFailure(
                    task=task,
                    task_id=first_id + index,
                    attempts=charges[index],
                    reason=(
                        f"task killed {charges[index]} worker(s); "
                        "quarantined after exhausting retry attempts"
                    ),
                ))
            else:
                self._count("serial_tasks", event=False)
                finish(index, self._run_in_parent(task, payloads[index]))

        def handle_death(worker_id: int) -> None:
            self._count("worker_deaths", worker_id=worker_id)
            self._death_streak += 1
            requeue: List[int] = []
            first_entry = True
            while queues[worker_id]:
                task_id, attempt, index = queues[worker_id].popleft()
                inflight.pop((task_id, attempt), None)
                if index is None:  # context replay; re-issued on respawn
                    first_entry = False
                    continue
                if done[index]:
                    first_entry = False
                    continue
                if first_entry:
                    # the head task was (presumably) running when the worker
                    # died — it takes the blame; queued-behind tasks don't
                    charges[index] += 1
                    if charges[index] >= policy.max_attempts:
                        quarantine(index)
                        first_entry = False
                        continue
                    self._count("retries", task_id=first_id + index)
                requeue.append(index)
                first_entry = False
            pending.extendleft(reversed(requeue))
            if budget[0] > 0:
                budget[0] -= 1
                self._respawn(worker_id)
                self._queue_replay(worker_id, queues, inflight, head_since,
                                   log_target)
            else:
                alive.discard(worker_id)
                queues.pop(worker_id, None)
                self._close_reader(worker_id)

        while remaining:
            if not alive:
                # the serial drain: no parallel capacity left, finish in
                # the parent — same tasks, same payloads, same results
                for index in range(count):
                    if not done[index]:
                        self._count("serial_tasks", event=False)
                        finish(index, self._run_in_parent(task, payloads[index]))
                break
            for worker_id in sorted(alive):
                while pending and len(queues[worker_id]) < _WORKER_WINDOW:
                    index = pending.popleft()
                    attempt = attempts[index]
                    attempts[index] += 1
                    task_id = first_id + index
                    self._inboxes[worker_id].put(
                        (task_id, attempt, task, payloads[index]))
                    if not queues[worker_id]:
                        head_since[worker_id] = time.monotonic()
                    queues[worker_id].append((task_id, attempt, index))
                    inflight[(task_id, attempt)] = worker_id
            messages, eof = self._poll_results(_POLL_SECONDS)
            # messages first: results a worker flushed before dying are
            # real results and must not be charged as failures
            for _, task_id, attempt, ok, value in messages:
                worker_id = inflight.pop((task_id, attempt), None)
                if worker_id is None:
                    continue  # stale: an earlier call or a dead incarnation
                queue = queues.get(worker_id)
                found = None
                if queue is not None:
                    for position, entry in enumerate(queue):
                        if entry[0] == task_id and entry[1] == attempt:
                            found = entry
                            del queue[position]
                            break
                    if queue:
                        head_since[worker_id] = time.monotonic()
                if found is None:
                    continue
                index = found[2]
                if index is None:  # a context-replay result
                    self._death_streak = 0
                    self._applied[worker_id] += 1
                    continue
                if not ok:
                    raise WorkerError(f"runtime task failed in worker:\n{value}")
                self._death_streak = 0
                self._count("completed", event=False)
                finish(index, value)
            for worker_id in sorted(set(eof)):
                if worker_id in alive:
                    handle_death(worker_id)
            if not messages and not eof:
                now = time.monotonic()
                for worker_id in sorted(alive):
                    process = self._processes[worker_id]
                    if process.is_alive():
                        if (policy.deadline is not None and queues[worker_id]
                                and now - head_since[worker_id] >= policy.deadline):
                            self._count("deadline_kills", worker_id=worker_id)
                            self._kill_worker(worker_id)
                        else:
                            continue
                    handle_death(worker_id)
        return results
