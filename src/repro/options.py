"""Option vocabularies and environment-variable names.

The CLI builds its argument parser (``choices=``, defaults, help text) from
these constants, and the library modules that act on them import them from
here.  Keeping them in one module that imports nothing means ``repro
--help`` and ``repro verify`` never load the mapping search, the worker
pool, the sqlite cache index or the HTTP service just to spell an option.
"""

from __future__ import annotations

from typing import Dict

#: algorithm-axis modes a mapspace, the optimizer, a whole-network functional
#: run and the CLI accept (``auto`` and ``winograd`` both run the transform
#: domain on every eligible layer of a functional run; the mapping search
#: picks per layer under ``auto``)
ALGORITHM_MODES = ("direct", "winograd", "auto")

#: mapping-search objective name -> per-layer proxy column of
#: ``MAPPING_RESULT_COLUMNS``
OBJECTIVES: Dict[str, str] = {
    "latency": "first_image_latency_s",
    "throughput": "time_per_batch_s",
    "energy": "energy_per_batch_j",
    "edp": "edp_js",
}

#: strategy registry names accepted by ``make_strategy`` and the CLI
STRATEGIES = ("exhaustive", "random", "greedy", "anneal")

#: default Pareto objectives (all minimised): latency vs. power vs. area
DEFAULT_OBJECTIVES = ("total_time_per_batch_s", "power_w", "total_gates")

#: backends accepted by ``CycleAccurateChainSimulator``
CYCLE_BACKENDS = ("vectorized", "scalar")

#: default service port of ``repro serve`` / ``repro request`` (a fixed
#: uncommon port; override with --port)
DEFAULT_PORT = 8347

#: seconds one task attempt may hold a worker before it is killed/retried
DEADLINE_ENV = "REPRO_TASK_DEADLINE"

#: attempts per task before quarantine (overrides RetryPolicy.max_attempts)
RETRIES_ENV = "REPRO_TASK_RETRIES"

#: environment variable overriding the default cache location
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: environment variable providing a default size bound (in MB) for caches
#: constructed without an explicit ``max_mb``
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: set to ``0`` to disable the sqlite cache index (directory walks throughout)
INDEX_ENV = "REPRO_CACHE_INDEX"
