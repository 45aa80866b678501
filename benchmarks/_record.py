"""Machine-readable benchmark trajectory: ``BENCH_<name>.json`` at repo root.

Benchmarks call :func:`record_benchmark` with a flat payload of measured
numbers (ns/point, points/s, speedups); the helper stamps a small schema
header and writes ``BENCH_<name>.json`` next to ``ROADMAP.md`` so future PRs
— and the CI artifact upload — can track performance regressions across the
repo's history without parsing pytest output.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Any, Dict, Optional

#: repo root (this file lives in benchmarks/)
REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA = "repro-bench/1"


def peak_rss_mb() -> Optional[float]:
    """Peak resident-set size of this process in MB (``None`` off-POSIX).

    ``ru_maxrss`` is the lifetime high-water mark, which is exactly the
    number a memory regression in any earlier benchmark phase would move;
    Linux reports it in KiB, macOS in bytes.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1024.0 if platform.system() != "Darwin" else 1024.0 * 1024.0
    return peak / scale


def record_benchmark(name: str, payload: Dict[str, Any]) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root; returns the path.

    ``payload`` must be JSON-serialisable; the helper adds the schema tag,
    the Python/platform fingerprint and the process's peak RSS so absolute
    numbers (and memory regressions) can be judged in context when machines
    differ between runs.
    """
    if not name or any(char in name for char in "/\\"):
        raise ValueError(f"benchmark name must be a plain identifier, got {name!r}")
    document = {
        **payload,
        "schema": SCHEMA,
        "name": name,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "peak_rss_mb": peak_rss_mb(),
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def merge_benchmark(name: str, payload: Dict[str, Any]) -> Path:
    """:func:`record_benchmark`, keeping the earlier record's other keys.

    For a trajectory file that several benchmarks contribute to: whichever
    runs later folds the others' numbers in instead of clobbering them.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    previous: Dict[str, Any] = {}
    if path.is_file():
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            pass
    return record_benchmark(name, {**previous, **payload})
