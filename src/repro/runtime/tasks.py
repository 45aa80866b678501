"""Registered worker tasks of the parallel runtime.

A task is a module-level function ``fn(payload, context) -> result`` entered
in :data:`TASKS`; :class:`~repro.runtime.pool.ParallelRuntime` workers look
tasks up by name, so only small payloads and names ever cross the process
boundary.  ``context`` is a per-worker dict that persists across tasks — the
"build once per worker, reuse across calls" stash for engines and networks.

Heavy imports happen lazily inside the task bodies: the registry must be
importable by the pool module without dragging the whole engine/mapping
stack into every process that merely touches the runtime.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict

#: task name -> callable(payload, context); workers resolve tasks here
TASKS: Dict[str, Callable[[Any, Dict[str, Any]], Any]] = {}


def task(name: str) -> Callable:
    """Register a task function under ``name`` (import-time side effect)."""
    def register(fn: Callable[[Any, Dict[str, Any]], Any]) -> Callable:
        TASKS[name] = fn
        return fn
    return register


# --------------------------------------------------------------------- #
# diagnostics
# --------------------------------------------------------------------- #
@task("runtime.selftest")
def _selftest(payload: Dict[str, Any], context: Dict[str, Any]) -> Any:
    """Health-check / failure-injection task (tests and pool smoke checks).

    ``action`` selects the behaviour: ``echo`` returns ``value`` along with
    the worker id, ``raise`` throws (error-propagation path), ``exit`` kills
    the worker process outright (dead-worker detection path), ``sleep``
    stalls for ``value`` seconds (deadline/straggler path), ``count``
    increments a per-worker counter (persistent-context proof).
    """
    action = payload.get("action", "echo")
    if action == "raise":
        raise RuntimeError(payload.get("value", "selftest failure"))
    if action == "exit":
        os._exit(int(payload.get("value", 1)))
    if action == "sleep":
        import time

        time.sleep(float(payload.get("value", 0.0)))
        return {"worker_id": context["worker_id"], "slept": True}
    if action == "count":
        context["selftest_count"] = context.get("selftest_count", 0) + 1
        return {"worker_id": context["worker_id"],
                "count": context["selftest_count"]}
    return {"worker_id": context["worker_id"], "value": payload.get("value")}


# --------------------------------------------------------------------- #
# sweep evaluation (SweepExecutor)
# --------------------------------------------------------------------- #
@task("sweep.set_network")
def _set_network(payload: Dict[str, Any], context: Dict[str, Any]) -> str:
    """Install a network in the worker's cache (broadcast once per sweep)."""
    networks = context.setdefault("networks", {})
    networks[payload["fingerprint"]] = payload["network"]
    return payload["fingerprint"]


@task("sweep.point")
def _sweep_point(payload: Dict[str, Any], context: Dict[str, Any]) -> Any:
    """Evaluate one (config, batch) design point through a cached engine."""
    from repro.engine.cache import canonical_json
    from repro.engine.registry import create_engine

    engines = context.setdefault("engines", {})
    key = canonical_json({"name": payload["engine"],
                          "kwargs": payload.get("engine_kwargs") or {}})
    engine = engines.get(key)
    if engine is None:
        engine = create_engine(payload["engine"],
                               **(payload.get("engine_kwargs") or {}))
        engines[key] = engine
    network = context.get("networks", {}).get(payload["network_fingerprint"])
    if network is None:
        raise RuntimeError(
            f"worker has no network {payload['network_fingerprint']!r}; "
            "broadcast sweep.set_network first"
        )
    return engine.evaluate(network, payload["config"], payload["batch"])


# --------------------------------------------------------------------- #
# mapping search (ScheduleOptimizer)
# --------------------------------------------------------------------- #
@task("map.search_layer")
def _map_search_layer(payload: Dict[str, Any], context: Dict[str, Any]) -> Any:
    """Search one layer's mapspace; identical to the serial per-layer body."""
    from repro.mapping.optimizer import search_layer_entry

    return search_layer_entry(
        layer=payload["layer"],
        config=payload["config"],
        objective=payload["objective"],
        strategy=payload["strategy"],
        batch=payload["batch"],
        energy=payload["energy"],
        shortlist=payload["shortlist"],
        algorithm=payload.get("algorithm", "direct"),
    )
