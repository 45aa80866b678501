"""Record the expected outputs the checks compare against.

Usage (from the repository root)::

    python3 perfbench/make_expected.py

Runs the program's own CLI and writes ``perfbench/expected/*.json``:

* ``verify_alexnet.json`` — per-layer kept windows and modeled cycles of
  ``repro verify --sim functional --network alexnet`` (recorded on two
  seeds, which must agree: the counts depend on geometry only);
* ``map_vgg16.json`` — the chosen candidate and objective values of every
  layer of the ``map_vgg16`` schedule;
* ``serve_mixed.json`` — SHA-256 of ``repro sweep --grid G --pareto --json``
  for every grid the serve workload can request, and of ``repro map
  --network N --objective O --strategy exhaustive --json`` for every map
  request.

The committed files were recorded at the commit that introduced this
benchmark; re-record only when an output change is intended.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import DEFAULT_SEED, HELD_OUT_SEED


def cli(args, workdir):
    run = workloads.run_process(workloads.repro_argv(args), workdir)
    if run.returncode != 0:
        raise SystemExit(f"repro {' '.join(args)} failed:\n{run.stderr}")
    return run.stdout


def strip_newline(stdout: str) -> str:
    """CLI JSON output without the newline ``print`` appends."""
    return stdout[:-1] if stdout.endswith("\n") else stdout


def verify_counts(seed: int, workdir: Path):
    stdout = cli(workloads.VerifyAlexnet().args(seed), workdir)
    layers = {}
    for line in stdout.splitlines():
        match = re.match(r"^(\S+)\s+conv\s.*windows=(\d+)\s+cycles=(\d+)", line)
        if match:
            layers[match[1]] = {"windows": int(match[2]), "cycles": int(match[3])}
    return layers


def main() -> int:
    out = checks.EXPECTED_DIR
    out.mkdir(exist_ok=True)
    workloads.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT) as tmp:
        workdir = Path(tmp)
        layers = verify_counts(DEFAULT_SEED, workdir)
        if verify_counts(HELD_OUT_SEED, workdir) != layers:
            raise SystemExit("verify counts depend on the seed")
        write(out / "verify_alexnet.json", {"layers": layers})

        payload = json.loads(cli(workloads.MapVgg16().args(DEFAULT_SEED), workdir))
        write(out / "map_vgg16.json", {"schedule": checks.schedule_summary(payload)})

        sweeps = {}
        for start in workloads.SWEEP_STARTS:
            for k in workloads.SWEEP_KS:
                grid = workloads.sweep_grid(start, k)
                sweeps[grid] = checks.sha256(strip_newline(cli(
                    ["sweep", "--grid", grid, "--pareto", "--json"], workdir)))
        maps = {}
        for network in workloads.MAP_NETWORKS:
            for objective in workloads.MAP_OBJECTIVES:
                maps[workloads.map_key(network, objective)] = checks.sha256(
                    strip_newline(cli(["map", "--network", network, "--objective",
                                       objective, "--strategy", "exhaustive",
                                       "--json"], workdir)))
        write(out / "serve_mixed.json", {"sweep": sweeps, "map": maps})
    return 0


def write(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
