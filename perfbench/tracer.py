"""Layer timers for traced runs, and the attribution of their time.

Two halves:

* **Recording** (runs inside the measured ``repro`` process, installed by
  ``boot.py``): :func:`install` wraps public functions of each stack layer
  from outside, and a :class:`Recorder` keeps *self-time segments* — a
  wrapped call's interval minus the intervals of wrapped calls nested in
  it — so the segments of one thread never overlap.  Forked pool workers
  inherit the wrappers; they record only inside the tasks they run and
  write their own tally file after every task.
* **Attribution** (runs in the benchmark process): :func:`attribute` turns
  the segments of every process and thread into seconds of one wall-clock
  window.  Where threads or workers overlap, each instant is shared
  equally among the segments busy at that instant, so the named parts plus
  ``unattributed_s`` add up to the window exactly.

Only the standard library is imported here; the program's modules are
imported inside :func:`install`, and a target the program no longer has is
skipped (its metric stays 0 and the tally lists it as missing).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: a segment named with this prefix is time spent *waiting* on other
#: processes; it is charged only when no other lane is busy at that instant
WAIT = "wait:"

clock = time.perf_counter  # CLOCK_MONOTONIC: one timeline for all processes


class Recorder:
    """Self-time segments and call statistics of one process."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.pid = os.getpid()
        self.segments: List[Tuple[str, str, float, float]] = []
        self.calls: Dict[str, List[float]] = {}  # stat -> [count, inclusive s]
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.installed: List[str] = []
        self.missing: List[str] = []
        self._local = threading.local()

    def reset_after_fork(self) -> None:
        """Drop what a forked worker inherited from its parent."""
        self.pid = os.getpid()
        self.path = f"{self.path}.w{self.pid}"
        self.segments = []
        self.calls = {}
        self.counters = {}
        self.samples = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        now = clock()
        stack = self._stack()
        if stack:
            top = stack[-1]
            self.segments.append((self._lane(), top[0], top[1], now))
        stack.append([name, now, now])

    def exit(self, stat: Optional[str] = None) -> float:
        now = clock()
        stack = self._stack()
        name, since, start = stack.pop()
        self.segments.append((self._lane(), name, since, now))
        if stack:
            stack[-1][1] = now
        elapsed = now - start
        entry = self.calls.setdefault(stat or name, [0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        return elapsed

    def _lane(self) -> str:
        return f"{os.getpid()}/{threading.get_ident()}"

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def dump(self) -> None:
        """Write the tally as JSON (atomically: write, then rename)."""
        tally = {
            "pid": self.pid,
            "segments": self.segments,
            "calls": self.calls,
            "counters": self.counters,
            "samples": self.samples,
            "installed": self.installed,
            "missing": self.missing,
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(tally, handle)
        os.replace(tmp, self.path)


# --------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------- #
def timed(recorder: Recorder, fn: Callable, name: Callable[..., str],
          stat: Optional[str] = None,
          on_result: Optional[Callable[..., None]] = None) -> Callable:
    """``fn`` recording one self-time segment per call, named ``name(*args)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.enter(name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(stat)
        if on_result is not None:
            on_result(result, *args, **kwargs)
        return result

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _const(text: str) -> Callable[..., str]:
    return lambda *args, **kwargs: text


def _layer_arg(prefix: str) -> Callable[..., str]:
    """Name from the CNN layer passed as the first argument after ``self``."""
    def name(self, layer, *args, **kwargs):
        return f"{prefix}.{getattr(layer, 'name', '?')}"
    return name


def _self_layer(prefix: str) -> Callable[..., str]:
    """Name from the ``layer`` attribute of the bound object."""
    def name(self, *args, **kwargs):
        return f"{prefix}.{getattr(getattr(self, 'layer', None), 'name', '?')}"
    return name


def _import(module: str):
    import importlib

    return importlib.import_module(module)


def _patch(recorder: Recorder, module: str, path: str,
           make: Callable[[Callable], Callable]) -> None:
    """Replace ``module.path`` (``attr`` or ``Class.attr``) by ``make(old)``."""
    label = f"{module}.{path}"
    try:
        owner = _import(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError):
        recorder.missing.append(label)
        return
    if getattr(old, "__perfbench_wrapped__", False):
        return
    setattr(owner, attr, make(old))
    recorder.installed.append(label)


def _subclass_methods(recorder: Recorder, module: str, base: str,
                      method: str) -> List[Tuple[str, str]]:
    """``(module, "Class.method")`` of every subclass of ``module.base`` that
    defines ``method`` itself (concrete strategies, batch engines, ...)."""
    try:
        root = getattr(_import(module), base)
    except (ImportError, AttributeError):
        recorder.missing.append(f"{module}.{base}")
        return []
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if method in cls.__dict__:
            found.append((cls.__module__, f"{cls.__qualname__}.{method}"))
    return found


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every stack layer (see README.md)."""
    def wrap(module: str, path: str, name, stat=None, on_result=None) -> None:
        _patch(recorder, module, path,
               lambda old: timed(recorder, old, name, stat, on_result))

    # cnn: workload generation, quantisation, im2col golden reference
    wrap("repro.cnn.generator", "WorkloadGenerator.ifmaps", _const("cnn.generator_s"))
    wrap("repro.cnn.generator", "WorkloadGenerator.weights", _const("cnn.generator_s"))
    wrap("repro.sim.network", "choose_format", _const("cnn.quantize_s"))
    wrap("repro.hwmodel.fixed_point", "FixedPointFormat.quantize",
         _const("cnn.quantize_s"))
    wrap("repro.sim.functional", "FunctionalRunResult.max_abs_error_vs_reference",
         _self_layer("cnn.reference_s"))
    wrap("repro.sim.network", "conv2d_im2col",
         lambda layer, *args, **kwargs: f"cnn.reference_s.{layer.name}")

    # sim: the functional dataflow simulator and pooling between stages
    wrap("repro.sim.functional", "FunctionalChainSimulator.run_layer",
         _layer_arg("sim.ofmap_s"))
    wrap("repro.sim.network", "pool2d", _const("sim.pool_s"))
    _patch(recorder, "repro.sim.network", "FunctionalNetworkRunner.run",
           lambda old: _observe(old, lambda result, runner, network, *a, **k:
                                _network_counts(recorder, result, network)))

    # kernels: the resolved backend's ofmap product, replaced in the
    # registry's memo so every later resolution returns the wrapped record
    _wrap_kernel_backend(recorder)

    # mapping + analysis scoring
    wrap("repro.mapping.mapspace", "LayerMapSpace.enumerate",
         _self_layer("mapping.enumerate_s"),
         on_result=lambda result, *a, **k: recorder.count(
             "mapping.candidates", len(result)))
    for module in ("repro.mapping.mapspace", "repro.mapping.strategies",
                   "repro.mapping.optimizer"):
        wrap(module, "candidate_arrays", _const("mapping.columns_s"))
    wrap("repro.analysis.batch", "MappingBatchEvaluator.evaluate",
         _const("analysis.score_s"))
    for module, path in _subclass_methods(recorder, "repro.mapping.strategies",
                                          "Strategy", "search"):
        wrap(module, path, _const("mapping.select_s"))
    wrap("repro.mapping.optimizer", "ScheduleOptimizer.optimize",
         _const("mapping.assemble_s"))

    # runtime: pool start-up (through the kernels.configure broadcast) and
    # the parent's wait while per-layer tasks run in the workers
    wrap("repro.runtime.pool", "LazyRuntime.get", _const("runtime.startup_s"))
    wrap("repro.runtime.pool", "ParallelRuntime.map", _const(WAIT + "runtime.dispatch_s"))
    wrap("repro.runtime.supervisor", "SupervisedRuntime.map",
         _const(WAIT + "runtime.dispatch_s"))
    _wrap_worker_task(recorder, "map.search_layer")

    # analysis: columnar design-point evaluation; Pareto/top-k reduction
    for module, path in _subclass_methods(recorder, "repro.engine.base",
                                          "Engine", "evaluate_batch"):
        wrap(module, path, _const("analysis.batch_s"))
    wrap("repro.serve.payloads", "reduce_grid_result", _const("analysis.pareto_s"))

    # serve: response building, request handling, coalescing
    wrap("repro.serve.payloads", "grid_payload", _const("serve.payload_s"))
    wrap("repro.serve.payloads", "dumps", _const("serve.payload_s"))
    _patch(recorder, "repro.serve.server", "EvalServer._dispatch",
           lambda old: _async_durations(recorder, old, "serve.dispatch_s"))
    _patch(recorder, "repro.serve.coalesce", "Coalescer.__post_init__",
           lambda old: _observe(old, lambda result, coalescer: setattr(
               recorder, "coalescer", coalescer)))

    # engine: the run cache
    wrap("repro.engine.cache", "RunCache.get", _const("engine.cache_s"),
         stat="engine.cache_get",
         on_result=lambda result, *a, **k: recorder.count(
             "engine.cache_hits", result is not None))
    wrap("repro.engine.cache", "RunCache.put", _const("engine.cache_s"),
         stat="engine.cache_put")


def _observe(fn: Callable, hook: Callable) -> Callable:
    """``fn`` calling ``hook(result, *args)`` after each call (no timing)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result, *args, **kwargs)
        return result

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _network_counts(recorder: Recorder, result, network) -> None:
    """Modeled counters of a whole-network functional run."""
    recorder.count("sim.windows_kept", result.stats.windows_kept)
    recorder.count("sim.chain_cycles", result.chain_cycles_estimate)
    recorder.count("sim.macs", sum(layer.macs for layer in network.conv_layers))


def _async_durations(recorder: Recorder, fn: Callable, name: str) -> Callable:
    """Coroutine ``fn`` whose durations are sampled (not segments: other
    coroutines run on the same thread while it awaits)."""
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = clock()
        try:
            return await fn(*args, **kwargs)
        finally:
            recorder.sample(name, clock() - start)

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _wrap_kernel_backend(recorder: Recorder) -> None:
    label = "repro.kernels.registry.get_backend().ofmap_block_product"
    try:
        import dataclasses

        registry = _import("repro.kernels.registry")
        backend = registry.get_backend()
        memo = registry._backends
    except (ImportError, AttributeError):
        recorder.missing.append(label)
        return
    if backend.name not in memo:
        recorder.missing.append(label)
        return
    memo[backend.name] = dataclasses.replace(
        memo[backend.name],
        ofmap_block_product=timed(recorder, backend.ofmap_block_product,
                                  _const("kernels.ofmap_s")))
    recorder.installed.append(label)


def _wrap_worker_task(recorder: Recorder, task: str) -> None:
    """Record inside pool tasks, and write the worker's tally after each."""
    label = f"repro.runtime.tasks.TASKS[{task!r}]"
    try:
        tasks = _import("repro.runtime.tasks").TASKS
        old = tasks[task]
    except (ImportError, AttributeError, KeyError):
        recorder.missing.append(label)
        return

    @functools.wraps(old)
    def wrapper(payload, context):
        if os.getpid() != recorder.pid:
            recorder.reset_after_fork()
        recorder.enter("")  # busy in the task, outside any named part
        try:
            return old(payload, context)
        finally:
            recorder.exit("task:" + task)
            recorder.dump()

    tasks[task] = wrapper
    recorder.installed.append(label)


# --------------------------------------------------------------------- #
# attribution (benchmark side)
# --------------------------------------------------------------------- #
def attribute(segments: Iterable[Tuple[str, str, float, float]],
              start: float, stop: float) -> Dict[str, float]:
    """Seconds of ``[start, stop]`` per part name, plus ``unattributed_s``.

    Each instant is split equally among the segments busy at that instant
    (one per lane at most, since a lane's segments are disjoint).  An
    instant with no busy segment goes to a waiting segment's part if one is
    open, else to ``unattributed_s``; so do the shares of anonymous (``""``)
    busy segments.  The result sums to ``stop - start``.
    """
    events: List[Tuple[float, int, int]] = []
    clipped: List[Tuple[str, bool]] = []
    for _lane, name, t0, t1 in segments:
        t0, t1 = max(t0, start), min(t1, stop)
        if t1 <= t0:
            continue
        index = len(clipped)
        clipped.append((name, name.startswith(WAIT)))
        events.append((t0, 1, index))
        events.append((t1, -1, index))
    events.sort()
    parts: Dict[str, float] = {}
    active: Dict[int, None] = {}
    previous = start
    for when, kind, index in events:
        if when > previous and active:
            _share(parts, [clipped[i] for i in active], when - previous)
        previous = max(previous, when)
        if kind > 0:
            active[index] = None
        else:
            active.pop(index, None)
    named = sum(parts.values())
    parts["unattributed_s"] = (stop - start) - named
    return parts


def _share(parts: Dict[str, float], active: List[Tuple[str, bool]],
           seconds: float) -> None:
    busy = [name for name, waiting in active if not waiting]
    if busy:
        for name in busy:
            if name:
                parts[name] = parts.get(name, 0.0) + seconds / len(busy)
        return
    name = active[0][0][len(WAIT):]
    parts[name] = parts.get(name, 0.0) + seconds


def load_tallies(path: str) -> List[Dict[str, Any]]:
    """The main tally at ``path`` and every worker tally written beside it."""
    directory, base = os.path.split(path)
    tallies = []
    for entry in sorted(os.listdir(directory or ".")):
        if entry == base or (entry.startswith(base + ".w")
                             and not entry.endswith(".tmp")):
            with open(os.path.join(directory, entry), encoding="utf-8") as handle:
                tallies.append(json.load(handle))
    return tallies
