"""Output checks: each returns a list of problems, empty when the output is right.

Expected values live in ``expected/`` and were recorded from the seed
commit's CLI by ``make_expected.py``; the program under test only ever
receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Dict, List

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

_CONV_LINE = re.compile(
    r"^(?P<layer>\S+)\s+conv\s+->\s+\S+\s+max\|err\|=(?P<err>\S+)\s+"
    r"windows=(?P<windows>\d+)\s+cycles=(?P<cycles>\d+)")


def load_expected(workload: str) -> Dict[str, Any]:
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_verify(stdout: str, returncode: int, expected: Dict[str, Any]) -> List[str]:
    """``repro verify --sim functional``: every conv stage exact, with the
    seed commit's per-layer window and modeled-cycle counts."""
    problems = [] if returncode == 0 else [f"exit status {returncode}"]
    seen = {}
    for line in stdout.splitlines():
        match = _CONV_LINE.match(line)
        if match:
            seen[match["layer"]] = match
    for layer, counts in expected["layers"].items():
        match = seen.get(layer)
        if match is None:
            problems.append(f"{layer}: no verification line")
            continue
        if float(match["err"]) != 0.0:
            problems.append(f"{layer}: max|err| {match['err']} != 0")
        for key in ("windows", "cycles"):
            if int(match[key]) != counts[key]:
                problems.append(f"{layer}: {key} {match[key]} != {counts[key]}")
    extra = sorted(set(seen) - set(expected["layers"]))
    if extra:
        problems.append(f"unexpected conv stages {extra}")
    if "functional verification PASSED" not in stdout:
        problems.append("no PASSED verdict")
    return problems


def schedule_summary(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a ``map --json`` payload the map check compares: the
    chosen candidate and objective values of every layer, and the totals."""
    return {
        "chosen": payload["chosen"],
        "layers": [{"layer": entry["layer"], "candidate": entry["candidate"],
                    "metrics": entry["metrics"]} for entry in payload["layers"]],
        "objective_value": payload["objective_value"],
        "baseline_objective_value": payload["baseline_objective_value"],
    }


def check_map(stdout: str, returncode: int, expected: Dict[str, Any]) -> List[str]:
    """``repro map --json``: the schedule equals the seed commit's."""
    problems = [] if returncode == 0 else [f"exit status {returncode}"]
    try:
        summary = schedule_summary(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as error:
        return problems + [f"unreadable map JSON ({error!r})"]
    if summary != expected["schedule"]:
        differing = [entry["layer"] for entry, want in
                     zip(summary["layers"], expected["schedule"]["layers"])
                     if entry != want]
        problems.append(f"schedule differs from the expected one (layers {differing})")
    return problems


def check_sweep_response(status: int, body: bytes, grid: str,
                         expected: Dict[str, Any]) -> List[str]:
    """``/v1/sweep``: byte-identical to ``repro sweep --grid G --pareto --json``."""
    if status != 200:
        return [f"sweep {grid}: HTTP {status}"]
    want = expected["sweep"].get(grid)
    if want is None:
        return [f"sweep {grid}: no expected body recorded"]
    if hashlib.sha256(body).hexdigest() != want:
        return [f"sweep {grid}: body differs from the CLI's"]
    return []


def map_stream_payload(body: bytes) -> Dict[str, Any]:
    """The final ``result`` event of a ``/v1/map`` progress stream."""
    events = [json.loads(line) for line in body.decode("utf-8").splitlines()
              if line.strip()]
    if not events or events[-1].get("event") != "result":
        raise ValueError(f"stream ends with {events[-1] if events else None!r}")
    return events[-1]


def check_map_response(status: int, body: bytes, key: str,
                       expected: Dict[str, Any]) -> List[str]:
    """``/v1/map``: the result payload, printed as ``repro request map`` prints
    it, is byte-identical to ``repro map ... --json``."""
    if status != 200:
        return [f"map {key}: HTTP {status}"]
    want = expected["map"].get(key)
    if want is None:
        return [f"map {key}: no expected body recorded"]
    try:
        result = map_stream_payload(body)
    except ValueError as error:
        return [f"map {key}: {error}"]
    if result.get("status") != 0:
        return [f"map {key}: result status {result.get('status')}"]
    if sha256(json.dumps(result["payload"], indent=2, sort_keys=True)) != want:
        return [f"map {key}: payload differs from the CLI's"]
    return []
