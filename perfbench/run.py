"""Host-time benchmark of the Chain-NN reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify_alexnet --seed 2017 --seconds 20 --trace 0

Runs one workload of ``BENCHMARK.json`` against the program in ``src/``
for ``--seconds``, checks every output, prints each measured series with
its median, quartiles and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (untraced processes only);
``--trace 1`` reports the per-layer metrics of a traced run, whose parts
plus ``unattributed_s`` add up to ``trace.wall_s``.  A full record is
written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

from workloads import OUT, ROOT, WORKLOADS, Result

#: the seed runs default to, and the one held out for checking gain claims
DEFAULT_SEED = 2017
HELD_OUT_SEED = 9001

#: tolerance of the attribution self-check (seconds)
SUM_TOLERANCE_S = 1e-6


def contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint() -> Dict[str, Any]:
    """The machine and software a result was measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        from repro.kernels import resolve_backend_name
        backend = resolve_backend_name()
    except ImportError:
        backend = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": backend,
    }


def series_line(name: str, unit: str, values: List[float]) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return f"  {name:<26} {unit:<5} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  n {len(values)}"


def self_check(result: Result, listed: List[str]) -> List[str]:
    """Named parts plus ``unattributed_s`` must add up to ``trace.wall_s``,
    none may be negative, and each must be a per-layer metric."""
    problems = []
    total = sum(result.parts.values())
    if abs(total - result.metrics["trace.wall_s"]) > SUM_TOLERANCE_S:
        problems.append(f"attribution: parts sum to {total:.6f} s, traced wall "
                        f"{result.metrics['trace.wall_s']:.6f} s")
    if min(result.parts.values()) < -SUM_TOLERANCE_S:
        problems.append("attribution: a part is negative")
    unlisted = sorted(set(result.parts) - set(listed))
    if unlisted:
        problems.append(f"attribution: parts {unlisted} are not in BENCHMARK.json")
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = contract()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        run = workload.trace if args.trace else workload.measure
        result: Result = run(args.seed, seconds, Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {entry["name"]: {"value": float(result.metrics.get(entry["name"], 0.0)),
                               "unit": entry["unit"]} for entry in listed}
    if args.trace:
        result.problems.extend(self_check(result, list(metrics)))
    correct = result.failed == 0 and not result.problems

    machine = fingerprint()
    print(f"perfbench {workload.name}: seed {args.seed}, {seconds:g} s, "
          f"trace {args.trace}")
    print("machine: " + ", ".join(f"{key}={value}" for key, value in machine.items()))
    if result.samples:
        print("series:")
        for name, values in result.samples.items():
            print(series_line(name, result.units[name], values))
    print("metrics:")
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:14.6f} {entry['unit']}")
    for note in result.notes:
        print(note)
    print(f"operations: {result.attempted} attempted, {result.failed} failed "
          f"(failed_frac {result.failed / max(1, result.attempted):.4f})")
    for problem in result.problems[:20]:
        print("problem: " + problem)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "machine": machine,
        "samples": result.samples,
        "units": result.units,
        "metrics": metrics,
        "unlisted": {name: value for name, value in result.metrics.items()
                     if name not in metrics},
        "notes": result.notes,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
    }
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
