"""Unified execution-engine layer.

One ``Engine`` interface over every evaluator of the library — the analytical
models (``paper`` and ``detailed`` fidelity), the cycle-accurate simulator
(vectorized or scalar backend), the functional simulator and the Table V
baselines — plus a registry to instantiate engines by name, a deterministic
on-disk result cache and a parallel sweep executor.

>>> from repro.engine import available_engines, create_engine
>>> "analytical" in available_engines() and "cycle" in available_engines()
True
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AnalyticalBatchEngine": "repro.engine.adapters",
    "AnalyticalEngine": "repro.engine.adapters",
    "BaselineEngine": "repro.engine.adapters",
    "CACHE_DIR_ENV": "repro.options",
    "CACHE_MAX_MB_ENV": "repro.options",
    "CacheIndex": "repro.engine.cache_index",
    "CycleEngine": "repro.engine.adapters",
    "INDEX_ENV": "repro.options",
    "index_enabled": "repro.engine.cache_index",
    "DEFAULT_ENGINES": "repro.engine.registry",
    "Engine": "repro.engine.base",
    "FunctionalEngine": "repro.engine.adapters",
    "GRID_CHUNK_POINTS": "repro.engine.executor",
    "MappedAnalyticalEngine": "repro.engine.adapters",
    "RunCache": "repro.engine.cache",
    "RunRecord": "repro.engine.base",
    "SweepExecutor": "repro.engine.executor",
    "grid_key": "repro.engine.cache",
    "available_engines": "repro.engine.registry",
    "create_engine": "repro.engine.registry",
    "default_cache_dir": "repro.engine.cache",
    "engine_registered": "repro.engine.registry",
    "register_engine": "repro.engine.registry",
    "run_key": "repro.engine.cache",
    "summary_from_record": "repro.engine.adapters",
    "unregister_engine": "repro.engine.registry",
    "workload_fingerprint": "repro.engine.cache",
    "worst_case_utilization": "repro.engine.adapters",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
