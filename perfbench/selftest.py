"""Tests of the benchmark's own logic: every output check fires on a wrong
output, and the attribution adds up.

Run from the repository root: ``python3 -m pytest perfbench/selftest.py -q``
(the file is named so the repository's tier-1 run does not collect it).
"""

import copy
import json

import pytest

import checks
import tracer
import workloads

VERIFY_OK = """\
conv1      conv  -> 96x55x55     max|err|=0.00e+00 windows=871200     cycles=3609864
pool1      pool  -> 96x27x27
conv2      conv  -> 256x27x27    max|err|=0.00e+00 windows=8957952    cycles=508082
pool2      pool  -> 256x13x13
conv3      conv  -> 384x13x13    max|err|=0.00e+00 windows=16613376   cycles=357888
conv4      conv  -> 384x13x13    max|err|=0.00e+00 windows=12460032   cycles=268416
conv5      conv  -> 256x13x13    max|err|=0.00e+00 windows=8306688    cycles=178944
pool5      pool  -> 256x6x6
functional verification PASSED: 5 conv layers, max|err|=0.00e+00 (tolerance 1e-06), \
47209248 windows kept, 3.61s [vectorized]
"""


def test_verify_check_accepts_the_seed_output():
    assert checks.check_verify(VERIFY_OK, 0, checks.load_expected("verify_alexnet")) == []


@pytest.mark.parametrize("old, new", [
    ("max|err|=0.00e+00 windows=8957952", "max|err|=1.00e-09 windows=8957952"),
    ("windows=16613376", "windows=16613377"),
    ("cycles=178944", "cycles=178945"),
    ("conv4      conv", "conv4x     conv"),
    ("PASSED", "FAILED"),
])
def test_verify_check_fires(old, new):
    expected = checks.load_expected("verify_alexnet")
    assert checks.check_verify(VERIFY_OK.replace(old, new), 0, expected)


def test_verify_check_fires_on_exit_status():
    assert checks.check_verify(VERIFY_OK, 1, checks.load_expected("verify_alexnet"))


def _map_payload():
    summary = copy.deepcopy(checks.load_expected("map_vgg16")["schedule"])
    summary["evaluations"] = 649826  # fields outside the summary are ignored
    return summary


def test_map_check_accepts_the_seed_schedule():
    expected = checks.load_expected("map_vgg16")
    assert checks.check_map(json.dumps(_map_payload()), 0, expected) == []


@pytest.mark.parametrize("mutate", [
    lambda p: p["chosen"]["conv3_1"].update(chunk=p["chosen"]["conv3_1"]["chunk"] + 1),
    lambda p: p["layers"][4]["candidate"].update(algorithm="direct"),
    lambda p: p["layers"][0]["metrics"].update(
        first_image_latency_s=p["layers"][0]["metrics"]["first_image_latency_s"] * 1.001),
    lambda p: p.update(objective_value=p["objective_value"] + 1e-12),
    lambda p: p["layers"].pop(),
])
def test_map_check_fires(mutate):
    payload = _map_payload()
    mutate(payload)
    assert checks.check_map(json.dumps(payload), 0, checks.load_expected("map_vgg16"))


def test_map_check_fires_on_bad_output():
    expected = checks.load_expected("map_vgg16")
    assert checks.check_map("not json", 0, expected)
    assert checks.check_map(json.dumps(_map_payload()), 2, expected)


def test_sweep_response_check():
    body = b'{"grid": "g"}'
    expected = {"sweep": {"g": checks.sha256(body.decode())}}
    assert checks.check_sweep_response(200, body, "g", expected) == []
    assert checks.check_sweep_response(200, body + b" ", "g", expected)
    assert checks.check_sweep_response(500, body, "g", expected)
    assert checks.check_sweep_response(200, body, "other", expected)


def _stream(payload, status=0, event="result"):
    lines = [{"event": "searched", "layers": 5},
             {"event": event, "status": status, "payload": payload}]
    return "".join(json.dumps(line) + "\n" for line in lines).encode()


def test_map_response_check():
    payload = {"network": "lenet5", "objective_value": 0.25}
    expected = {"map": {"lenet5/edp": checks.sha256(
        json.dumps(payload, indent=2, sort_keys=True))}}
    assert checks.check_map_response(200, _stream(payload), "lenet5/edp", expected) == []
    wrong = dict(payload, objective_value=0.26)
    assert checks.check_map_response(200, _stream(wrong), "lenet5/edp", expected)
    assert checks.check_map_response(200, _stream(payload, status=1), "lenet5/edp", expected)
    assert checks.check_map_response(200, _stream(payload, event="error"), "lenet5/edp",
                                     expected)
    assert checks.check_map_response(400, _stream(payload), "lenet5/edp", expected)


def test_every_serve_request_has_an_expected_body():
    expected = checks.load_expected("serve_mixed")
    sequence = workloads.request_sequence(2017)
    for _ in range(2000):
        route, key = next(sequence)
        assert key in expected[route]


def grid_points(grid):
    """Chain lengths in a ``pe=start:stop:8,...`` grid."""
    start, stop, step = (int(text) for text in grid.split(",")[0][3:].split(":"))
    return (stop - start) // step + 1


def test_request_sequence_is_seeded_and_stratified():
    def prefix(seed, count=110):
        sequence = workloads.request_sequence(seed)
        return [next(sequence) for _ in range(count)]

    assert prefix(1) == prefix(1)
    assert prefix(1) != prefix(2)
    for block in range(10):
        requests = prefix(3)[11 * block:11 * (block + 1)]
        assert sum(route == "map" for route, _ in requests) == 1
        ks = sorted(grid_points(key) for route, key in requests if route == "sweep")
        assert ks == sorted(k for k in workloads.SWEEP_KS for _ in range(2))
    maps = [key for route, key in prefix(4, 11 * 12) if route == "map"]
    assert len(set(maps)) == 12


def test_attribution_adds_up_and_shares_overlap():
    segments = [
        ("p/1", "a", 0.0, 1.0),
        ("p/1", tracer.WAIT + "wait_s", 1.0, 4.0),
        ("w1/1", "b", 1.5, 3.5),
        ("w2/1", "c", 2.5, 3.0),
        ("w2/1", "", 3.0, 3.5),
        ("p/1", "d", 9.0, 12.0),  # partly outside the window
    ]
    parts = tracer.attribute(segments, 0.0, 10.0)
    assert parts["a"] == pytest.approx(1.0)
    assert parts["b"] == pytest.approx(1.0 + 0.25 + 0.25)
    assert parts["c"] == pytest.approx(0.25)
    assert parts["wait_s"] == pytest.approx(0.5 + 0.5)
    assert parts["d"] == pytest.approx(1.0)
    assert sum(parts.values()) == pytest.approx(10.0)
    assert parts["unattributed_s"] == pytest.approx(5.0 + 0.25)


def test_recorder_self_time_excludes_nested_calls(tmp_path):
    recorder = tracer.Recorder(str(tmp_path / "tally.json"))
    outer = tracer.timed(recorder, lambda: inner(), lambda: "outer")
    inner = tracer.timed(recorder, lambda: sum(range(10000)), lambda: "inner")
    outer()
    recorder.dump()
    (tally,) = tracer.load_tallies(str(tmp_path / "tally.json"))
    spans = {}
    for _lane, name, start, stop in tally["segments"]:
        spans[name] = spans.get(name, 0.0) + stop - start
    assert spans["outer"] + spans["inner"] == pytest.approx(tally["calls"]["outer"][1])
    assert tally["calls"]["inner"][0] == 1
