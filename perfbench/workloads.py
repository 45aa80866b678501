"""The three workloads: how each drives the program, checks it, and times it.

Every operation runs the program from source (``src/``) in its own
process (see :func:`child_env` for its environment).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

clock = tracer.clock

#: cold start of the CLI: the cheapest command that imports the whole stack
SETUP_ARGS = ["engines"]
#: set-up samples per run; the run reports their median
SETUP_REPEATS = 5
#: client connections of the serve workload (closed loop)
CONNECTIONS = 2
#: a command still running after this long is killed (a failed operation)
COMMAND_TIMEOUT_S = 120.0


def child_env(**extra: str) -> Dict[str, str]:
    """The program's environment: no ``REPRO_*`` settings, and bytecode
    caching on (as for an installed package) whatever the caller's
    environment says, so imports cost the same in every checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


def repro_argv(args: List[str], tally: Optional[str] = None) -> List[str]:
    """Command line of one ``repro`` process, traced through ``boot.py``
    when ``tally`` names the file its layer timers are written to."""
    if tally is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "boot.py"), tally, "--", *args]


def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# --------------------------------------------------------------------- #
# processes
# --------------------------------------------------------------------- #
@dataclass
class ProcessRun:
    """One finished command process."""

    start: float
    stop: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.stop - self.start


def _children(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def run_process(argv: List[str], workdir: Path, children: int = 0) -> ProcessRun:
    """Run ``argv`` to completion; wall time from spawn to reaped exit.

    Peak RSS is the command's own peak (from ``wait4``) plus the last
    observed peak of each of the ``children`` processes it forks (pool
    workers), polled from ``/proc`` while it runs.  The ``/proc`` scan for
    them stops once all are found, so commands without children are not
    disturbed by polling.
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir,
                                env=child_env(), start_new_session=True)
        reaped: Dict[str, Any] = {}

        def reap() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped["stop"] = clock()
            reaped["status"] = status
            reaped["usage"] = usage

        waiter = threading.Thread(target=reap)
        waiter.start()
        child_peaks: Dict[int, float] = {}
        while waiter.is_alive():
            if clock() - start > COMMAND_TIMEOUT_S:
                # the whole session, pool workers included; the waiter reaps
                # the command and the non-zero status counts as a failure
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if len(child_peaks) < children:
                child_peaks.update((pid, 0.0) for pid in _children(proc.pid)
                                   if pid not in child_peaks)
            for child in child_peaks:
                peak = _hwm_mb(child)
                if peak is not None:
                    child_peaks[child] = max(peak, child_peaks.get(child, 0.0))
            waiter.join(0.05)
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return ProcessRun(
        start=start,
        stop=reaped["stop"],
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        peak_rss_mb=reaped["usage"].ru_maxrss / 1024.0 + sum(child_peaks.values()),
    )


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #
@dataclass
class Result:
    """What one benchmark run measured."""

    #: raw samples by report name (medians/quartiles are derived from them)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    units: Dict[str, str] = field(default_factory=dict)
    #: the contract metrics (end-to-end, or per-layer when traced)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: traced runs: seconds per attributed part, ``unattributed_s`` included
    parts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, unit: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)
        self.units[name] = unit

    def operation(self, problems: List[str]) -> None:
        """Count one operation; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def mean_parts(tallies_parts: List[Dict[str, float]]) -> Dict[str, float]:
    """Part-wise mean over traced repetitions (means keep the sum exact)."""
    names = sorted({name for parts in tallies_parts for name in parts})
    return {name: sum(parts.get(name, 0.0) for parts in tallies_parts)
            / len(tallies_parts) for name in names}


def traced_parts(tally_path: Path, start: float, stop: float
                 ) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    tallies = tracer.load_tallies(str(tally_path))
    if not tallies:
        raise RuntimeError(f"traced process wrote no tally at {tally_path}")
    segments = [segment for tally in tallies for segment in tally["segments"]]
    return tracer.attribute(segments, start, stop), tallies


# --------------------------------------------------------------------- #
# CLI workloads
# --------------------------------------------------------------------- #
class CliWorkload:
    """A fresh ``repro`` process per operation, run back to back."""

    name = ""
    #: processes the command forks (pool workers), counted into its RSS
    children = 0

    def args(self, seed: int) -> List[str]:
        raise NotImplementedError

    def check(self, run: ProcessRun) -> List[str]:
        raise NotImplementedError

    def stress(self, parts: Dict[str, float], calls: Dict[str, float]) -> str:
        """One line confirming the workload stresses its chosen layer."""
        raise NotImplementedError

    def _checked(self, result: Result, run: ProcessRun) -> None:
        problems = self.check(run)
        if problems and run.stderr.strip():
            problems.append("stderr: " + run.stderr.strip().splitlines()[-1])
        result.operation(problems)

    def measure(self, seed: int, seconds: float, workdir: Path) -> Result:
        result = Result()
        for _ in range(SETUP_REPEATS):
            run = run_process(repro_argv(SETUP_ARGS), workdir)
            result.operation([] if run.returncode == 0 and "analytical" in run.stdout
                             else [f"setup: exit status {run.returncode}"])
            result.add("setup_s", "s", run.wall_s)
        # one untimed warm-up operation: the first command after set-up
        # runs measurably slower (Kalibera & Jones: time steady state only)
        self._checked(result, run_process(repro_argv(self.args(seed)), workdir,
                                          self.children))
        began = clock()
        while not result.samples.get("wall_s") or clock() - began < seconds:
            run = run_process(repro_argv(self.args(seed)), workdir, self.children)
            self._checked(result, run)
            result.add("wall_s", "s", run.wall_s)
            result.add("peak_rss_mb", "MB", run.peak_rss_mb)
        walls = result.samples["wall_s"]
        result.metrics = {
            "setup_s": statistics.median(result.samples["setup_s"]),
            "latency_ms": statistics.median(walls) * 1000.0,
            # one command at a time: throughput is the inverse latency
            "ops_per_s": 1.0 / statistics.median(walls),
            "peak_rss_mb": statistics.median(result.samples["peak_rss_mb"]),
        }
        return result

    def trace(self, seed: int, seconds: float, workdir: Path) -> Result:
        """Alternate untraced and traced processes for ``seconds``."""
        result = Result()
        parts_list, untraced, traced, counters = [], [], [], {}
        calls: Dict[str, float] = {}
        began = clock()
        while not traced or clock() - began < seconds:
            run = run_process(repro_argv(self.args(seed)), workdir, self.children)
            self._checked(result, run)
            untraced.append(run.wall_s)
            tally = workdir / f"tally-{len(traced)}.json"
            run = run_process(repro_argv(self.args(seed), str(tally)), workdir,
                              self.children)
            self._checked(result, run)
            traced.append(run.wall_s)
            parts, tallies = traced_parts(tally, run.start, run.stop)
            parts_list.append(parts)
            counters = merged_counters(tallies)
            for tally_data in tallies:
                for name, (_count, total) in tally_data["calls"].items():
                    calls[name] = calls.get(name, 0.0) + total
        calls = {name: total / len(traced) for name, total in calls.items()}
        parts = mean_parts(parts_list)
        result.parts = parts
        result.metrics = dict(parts)
        result.metrics.update(counters)
        result.metrics["trace.wall_s"] = statistics.fmean(traced)
        result.metrics["trace.overhead_s"] = (statistics.fmean(traced)
                                             - statistics.fmean(untraced))
        result.notes.append(self.stress(parts, calls))
        result.notes.append(f"traced {len(traced)} / untraced {len(untraced)} "
                            "processes; per-layer values are means")
        return result


def merged_counters(tallies: List[Dict[str, Any]]) -> Dict[str, float]:
    counters: Dict[str, float] = {}
    for tally in tallies:
        for name, value in tally["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return counters


class VerifyAlexnet(CliWorkload):
    name = "verify_alexnet"

    def args(self, seed: int) -> List[str]:
        return ["verify", "--sim", "functional", "--network", "alexnet",
                "--seed", str(seed)]

    def check(self, run: ProcessRun) -> List[str]:
        return checks.check_verify(run.stdout, run.returncode,
                                   checks.load_expected(self.name))

    def stress(self, parts, calls) -> str:
        ofmap = sum(total for name, total in calls.items()
                    if name.startswith("sim.ofmap_s."))
        wall = sum(parts.values())
        return (f"stress: sim.ofmap_s.* (inclusive of kernels.ofmap_s) "
                f"{ofmap:.3f} s of {wall:.3f} s traced wall "
                f"({100.0 * ofmap / wall:.0f}%)")


class MapVgg16(CliWorkload):
    name = "map_vgg16"
    children = 2

    def args(self, seed: int) -> List[str]:
        # exhaustive search ignores --seed: the check holds the schedule
        # equal for every seed
        return ["map", "--network", "vgg16", "--strategy", "exhaustive",
                "--objective", "latency", "--algorithm", "auto",
                "--workers", "2", "--json", "--seed", str(seed)]

    def check(self, run: ProcessRun) -> List[str]:
        return checks.check_map(run.stdout, run.returncode,
                                checks.load_expected(self.name))

    def stress(self, parts, calls) -> str:
        mapping = {name: value for name, value in parts.items()
                   if name.startswith(("mapping.", "analysis.score_s"))}
        enumerate_s = sum(value for name, value in mapping.items()
                          if name.startswith("mapping.enumerate_s."))
        rest = max((value for name, value in mapping.items()
                    if not name.startswith("mapping.enumerate_s.")), default=0.0)
        return (f"stress: mapping.enumerate_s.* {enumerate_s:.3f} s vs largest "
                f"other mapping part {rest:.3f} s of {sum(mapping.values()):.3f} s "
                "mapping time")


# --------------------------------------------------------------------- #
# serve workload
# --------------------------------------------------------------------- #
SWEEP_KS = (1, 4, 16, 64, 256)
SWEEP_STARTS = tuple(range(128, 256, 8))
MAP_NETWORKS = ("lenet5", "cifar10", "alexnet")
MAP_OBJECTIVES = ("latency", "throughput", "energy", "edp")


def sweep_grid(start: int, k: int) -> str:
    """A ``k``-chain-length x 5-clock grid starting at ``start`` PEs."""
    return f"pe={start}:{start + 8 * (k - 1)}:8,freq=200:1000:200"


def map_key(network: str, objective: str) -> str:
    return f"{network}/{objective}"


def request_sequence(seed: int) -> Iterator[Tuple[str, str]]:
    """Endless seeded ``(route, key)`` sequence.

    Blocks of 11: ten sweeps (each ``k`` twice, random start) and one map
    request, shuffled.  The map requests walk a seeded permutation of the
    12 (network, objective) pairs, so the first 12 are cache misses and
    the rest hits; fixing each block's mix keeps the work per request the
    same from seed to seed.
    """
    rng = random.Random(seed)
    pairs = [map_key(n, o) for n in MAP_NETWORKS for o in MAP_OBJECTIVES]
    rng.shuffle(pairs)
    blocks = 0
    while True:
        block = [("sweep", sweep_grid(rng.choice(SWEEP_STARTS), k))
                 for k in SWEEP_KS for _ in range(2)]
        block.append(("map", pairs[blocks % len(pairs)]))
        blocks += 1
        rng.shuffle(block)
        yield from block


def request_body(route: str, key: str) -> Dict[str, Any]:
    if route == "sweep":
        return {"grid": key, "pareto": True}
    network, objective = key.split("/")
    return {"network": network, "objective": objective, "strategy": "exhaustive"}


@dataclass
class Exchange:
    route: str
    key: str
    sent: float
    received: float
    problems: List[str]


class Server:
    """One ``repro serve`` process on a kernel-assigned port."""

    def __init__(self, workdir: Path, tally: Optional[str] = None) -> None:
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
        self.stderr = open(workdir / "server-stderr.txt", "wb")
        self.start = clock()
        self.proc = subprocess.Popen(
            repro_argv(["serve", "--port", "0", "--cache-dir",
                        str(self.cache_dir)], tally),
            stdout=subprocess.PIPE, stderr=self.stderr, cwd=workdir,
            env=child_env(PYTHONUNBUFFERED="1"))
        try:
            self.port = self._read_port(timeout=60.0)
            self._wait_healthy(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = clock() - self.start

    def _read_port(self, timeout: float) -> int:
        deadline = clock() + timeout
        while clock() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        raise RuntimeError("server did not report a listening port")

    def _wait_healthy(self, timeout: float) -> None:
        deadline = clock() + timeout
        while clock() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/v1/health")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            threading.Event().wait(0.005)
        raise RuntimeError("server never answered /v1/health")

    def peak_rss_mb(self) -> float:
        peak = _hwm_mb(self.proc.pid)
        if peak is None:
            raise RuntimeError("server process is gone")
        return peak

    def stop(self) -> int:
        """SIGINT (the server's clean shutdown), escalating to SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return self.proc.returncode


def closed_loop(port: int, sequence: Iterator[Tuple[str, str]],
                expected: Dict[str, Any], seconds: Optional[float] = None,
                count: Optional[int] = None) -> List[Exchange]:
    """``CONNECTIONS`` clients, each sending its next request only after
    the previous response; stops issuing after ``seconds`` or ``count``."""
    lock = threading.Lock()
    exchanges: List[Exchange] = []
    stop_at = clock() + seconds if seconds is not None else None
    issued = [0]

    def next_request() -> Optional[Tuple[str, str]]:
        with lock:
            if stop_at is not None and clock() >= stop_at:
                return None
            if count is not None and issued[0] >= count:
                return None
            issued[0] += 1
            return next(sequence)

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                request = next_request()
                if request is None:
                    return
                route, key = request
                body = json.dumps(request_body(route, key)).encode("utf-8")
                sent = clock()
                try:
                    conn.request("POST", f"/v1/{route}", body=body,
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    data = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as error:
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                    status, data = -1, repr(error).encode("utf-8")
                received = clock()
                if route == "sweep":
                    problems = checks.check_sweep_response(status, data, key, expected)
                else:
                    problems = checks.check_map_response(status, data, key, expected)
                with lock:
                    exchanges.append(Exchange(route, key, sent, received, problems))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return exchanges


class ServeMixed:
    name = "serve_mixed"

    def _load(self, result: Result, server: Server, seed: int,
              seconds: Optional[float] = None, count: Optional[int] = None
              ) -> List[Exchange]:
        exchanges = closed_loop(server.port, request_sequence(seed),
                                checks.load_expected(self.name),
                                seconds=seconds, count=count)
        for exchange in exchanges:
            result.operation(exchange.problems)
        return exchanges

    def _stop(self, result: Result, server: Server) -> None:
        status = server.stop()
        result.operation([] if status == 0 else [f"server exit status {status}"])

    def measure(self, seed: int, seconds: float, workdir: Path) -> Result:
        result = Result()
        for repeat in range(SETUP_REPEATS):
            server = Server(workdir)
            result.add("setup_s", "s", server.setup_s)
            if repeat < SETUP_REPEATS - 1:
                self._stop(result, server)
        try:
            exchanges = self._load(result, server, seed, seconds=seconds)
            rss = server.peak_rss_mb()
        finally:
            self._stop(result, server)
        wall = (max(e.received for e in exchanges)
                - min(e.sent for e in exchanges))
        for exchange in exchanges:
            latency = (exchange.received - exchange.sent) * 1000.0
            result.add(f"{exchange.route}_ms", "ms", latency)
        sweeps, maps = result.samples["sweep_ms"], result.samples.get("map_ms", [])
        result.add("requests_per_s", "1/s", len(exchanges) / wall)
        result.add("sweep_p95_ms", "ms", percentile(sweeps, 95))
        if maps:
            result.add("map_p50_ms", "ms", statistics.median(maps))
        result.add("peak_rss_mb", "MB", rss)
        result.notes.append(f"{len(sweeps)} sweeps, {len(maps)} maps in {wall:.2f} s")
        result.metrics = {
            "setup_s": statistics.median(result.samples["setup_s"]),
            "latency_ms": statistics.median(sweeps),
            "ops_per_s": len(exchanges) / wall,
            "peak_rss_mb": rss,
        }
        return result

    def trace(self, seed: int, seconds: float, workdir: Path) -> Result:
        """Untraced then traced server over the same request prefix."""
        result = Result()
        server = Server(workdir)
        try:
            plain = self._load(result, server, seed, seconds=seconds / 2.0)
        finally:
            self._stop(result, server)
        tally = workdir / "tally-serve.json"
        server = Server(workdir, tally=str(tally))
        try:
            traced = self._load(result, server, seed, count=len(plain))
        finally:
            self._stop(result, server)
        plain_wall = max(e.received for e in plain) - min(e.sent for e in plain)
        start = min(e.sent for e in traced)
        stop = max(e.received for e in traced)
        raw, tallies = traced_parts(tally, start, stop)
        main = tallies[0]  # the server's own tally (workers' sort after it)
        parts: Dict[str, float] = {}
        for name, value in raw.items():
            # the map lane's search is one part here; map_vgg16 splits it
            if name.startswith("mapping.") or name == "analysis.score_s":
                name = "mapping.search_s"
            parts[name] = parts.get(name, 0.0) + value
        result.parts = parts
        metrics = dict(parts)
        calls = main["calls"]
        gets, get_s = calls.get("engine.cache_get", [0, 0.0])
        puts, put_s = calls.get("engine.cache_put", [0, 0.0])
        if gets:
            metrics["engine.cache_get_ms"] = get_s / gets * 1000.0
            metrics["engine.cache_hit_ratio"] = (
                main["counters"].get("engine.cache_hits", 0) / gets)
        if puts:
            metrics["engine.cache_put_ms"] = put_s / puts * 1000.0
        waits = main["samples"].get("serve.queue_wait_s", [])
        if waits:
            metrics["serve.queue_wait_ms_p50"] = percentile(waits, 50) * 1000.0
            metrics["serve.queue_wait_ms_p95"] = percentile(waits, 95) * 1000.0
        if "serve.batch_requests_mean" in main["counters"]:
            metrics["serve.batch_requests_mean"] = main["counters"]["serve.batch_requests_mean"]
        handled = main["samples"].get("serve.dispatch_s", [])[-len(traced):]
        if handled:
            client = statistics.fmean(e.received - e.sent for e in traced)
            metrics["serve.transport_ms"] = (client - statistics.fmean(handled)) * 1000.0
        metrics["trace.wall_s"] = stop - start
        metrics["trace.overhead_s"] = (stop - start) - plain_wall
        result.metrics = metrics
        result.notes.append(
            f"stress: analysis.pareto_s {parts.get('analysis.pareto_s', 0.0):.3f} s "
            f"vs analysis.batch_s {parts.get('analysis.batch_s', 0.0):.3f} s")
        result.notes.append(f"{len(traced)} requests per phase; untraced phase "
                            f"{plain_wall:.2f} s, traced {stop - start:.2f} s")
        return result


WORKLOADS = {workload.name: workload
             for workload in (VerifyAlexnet(), MapVgg16(), ServeMixed())}
