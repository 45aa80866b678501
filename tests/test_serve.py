"""Evaluation service: coalescing, bit-identity, streaming, protocol.

The service's core promise is that turning the stack into a server
changes *where* evaluation happens but not *what* comes back: every
response must be byte-identical to the matching ``repro <cmd> --json``
invocation, including when many clients' sweeps share one coalesced
batch and when a seeded fault plan is killing pool workers mid-run.
Part of the CI equivalence gate (fail-if-skipped).
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import threading
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import repro.cli as cli
from repro.analysis.batch import RESULT_COLUMNS, DesignGrid
from repro.cnn.zoo import tiny_test_network
from repro.core.config import ChainConfig
from repro.engine import create_engine
from repro.obs.metrics import REGISTRY
from repro.runtime import pool as pool_module
from repro.runtime.faults import FAULT_SPEC_ENV
from repro.serve.client import ServeClient, ServeError, request_json
from repro.serve.coalesce import Coalescer, merge_grids, scatter_result
from repro.serve.protocol import (
    ProtocolError,
    RunParams,
    SweepParams,
    coalesce_key,
    parse_params,
)
from repro.serve.server import EvalServer

CHAOS_SPEC = "crash:p=0.2,seed=7,attempts=1"
BASE = ChainConfig()


def _grid(spec: str, batch: int = 16) -> DesignGrid:
    return DesignGrid.parse(spec, base=BASE, default_batch=batch)


def _cli_out(argv) -> str:
    """Stdout of one in-process CLI invocation (must exit 0)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = cli.main(argv)
    assert status == 0, f"cli {argv} exited {status}"
    return buffer.getvalue()


# --------------------------------------------------------------------- #
# merge / scatter: the bit-identity core
# --------------------------------------------------------------------- #
class TestMergeScatter:
    def test_spans_partition_the_merged_grid(self):
        grids = [_grid("pe=128:512:64,freq=700:700:1"),
                 _grid("pe=576:576:1,freq=200:400:100"),
                 _grid("pe=64:64:1,freq=700:700:1")]
        merged, spans = merge_grids(grids)
        assert merged.n_points == sum(grid.n_points for grid in grids)
        assert spans[0] == (0, grids[0].n_points)
        assert all(start == prev_stop for (_, prev_stop), (start, _)
                   in zip(spans, spans[1:]))
        for grid, (start, stop) in zip(grids, spans):
            assert np.array_equal(merged.num_pes[start:stop], grid.num_pes)
            assert np.array_equal(merged.batch[start:stop], grid.batch)

    def test_merged_evaluation_is_bit_identical_per_request(self):
        """concatenate → evaluate → slice == evaluate each grid alone."""
        engine = create_engine("analytical-batch")
        network = tiny_test_network()
        grids = [_grid("pe=96:576:96,freq=300:700:200"),
                 _grid("pe=576:576:1,freq=700:700:1", batch=4),
                 _grid("pe=128:256:64,freq=500:500:1,bits=8:16:8")]
        merged, spans = merge_grids(grids)
        pieces = scatter_result(
            engine.evaluate_batch(network, merged, base=BASE), spans)
        for grid, piece in zip(grids, pieces):
            alone = engine.evaluate_batch(network, grid, base=BASE)
            for column in RESULT_COLUMNS:
                assert np.array_equal(getattr(piece, column),
                                      getattr(alone, column)), column

    def test_single_grid_merge_is_passthrough(self):
        grid = _grid("pe=128:256:64,freq=700:700:1")
        merged, spans = merge_grids([grid])
        assert merged is grid and spans == [(0, grid.n_points)]


# --------------------------------------------------------------------- #
# coalescer: zero-wait dispatch, parking, size bounds, keys, failure, drain
# --------------------------------------------------------------------- #
def _run_without_timers(main):
    """``asyncio.run(main())`` on a loop that refuses to arm any timer, so
    nothing the coalescer does can wait on a clock."""
    async def guarded():
        def refuse(*args, **kwargs):
            raise AssertionError("a timer was armed")
        asyncio.get_running_loop().call_at = refuse  # call_later goes here too
        return await main()

    return asyncio.run(guarded())


def _alone(spec: str):
    return create_engine("analytical-batch").evaluate_batch(
        tiny_test_network(), _grid(spec), base=BASE)


def _one_pe(pes: int) -> str:
    return f"pe={pes}:{pes}:1,freq=700:700:1"


class _GatedEvaluate:
    """An ``evaluate`` that records each batch, then blocks on ``gate``.

    ``entered`` is set whenever a batch reaches the evaluator, so a test can
    hold a batch in flight and park requests behind it deterministically.
    """

    def __init__(self, open_gate: bool = False) -> None:
        self.calls = []
        self.gate = asyncio.Event()
        self.entered = asyncio.Event()
        if open_gate:
            self.gate.set()

    async def __call__(self, key, merged):
        self.calls.append((key, merged.n_points))
        self.entered.set()
        await self.gate.wait()
        return create_engine("analytical-batch").evaluate_batch(
            tiny_test_network(), merged, base=BASE)

    async def hold_first_batch(self, coalescer, key="k", spec=_one_pe(96)):
        """Submit one request and return once its batch is in flight."""
        task = asyncio.ensure_future(coalescer.submit(key, _grid(spec)))
        await self.entered.wait()
        self.entered.clear()
        return task


async def _park(coalescer, key, specs):
    """Submit ``specs`` as tasks and yield one loop turn so each is parked
    (``sleep(0)`` is a bare yield, not a timer)."""
    tasks = [asyncio.ensure_future(coalescer.submit(key, _grid(spec)))
             for spec in specs]
    await asyncio.sleep(0)
    return tasks


class TestCoalescer:
    def test_lone_submit_resolves_with_no_timer_armed(self):
        async def main():
            evaluate = _GatedEvaluate(open_gate=True)
            result = await Coalescer(evaluate).submit("k", _grid(_one_pe(192)))
            return evaluate.calls, result

        calls, result = _run_without_timers(main)
        assert calls == [("k", 1)]
        assert np.array_equal(result.fps, _alone(_one_pe(192)).fps)

    def test_submits_in_one_loop_turn_share_a_batch(self):
        async def main():
            evaluate = _GatedEvaluate(open_gate=True)
            coalescer = Coalescer(evaluate)
            results = await asyncio.gather(
                coalescer.submit("k", _grid(_one_pe(96))),
                coalescer.submit("k", _grid(_one_pe(192))),
                coalescer.submit("k", _grid("pe=288:480:96,freq=700:700:1")),
            )
            return evaluate.calls, results

        calls, results = _run_without_timers(main)
        assert calls == [("k", 5)]  # one batch scored all three requests
        assert [r.n_points for r in results] == [1, 1, 3]

    def test_submits_behind_a_busy_key_form_exactly_one_next_batch(self):
        """Requests parked while a batch is in flight go out together, as
        the very next batch, each getting its own grid's scores back in
        submission order."""
        pes = [576, 192, 384, 288]

        async def main():
            evaluate = _GatedEvaluate()
            coalescer = Coalescer(evaluate)
            first = await evaluate.hold_first_batch(coalescer)
            parked = await _park(coalescer, "k", [_one_pe(p) for p in pes])
            assert evaluate.calls == [("k", 1)]  # parked, not dispatched
            evaluate.gate.set()
            return evaluate.calls, await first, await asyncio.gather(*parked)

        calls, first, parked = _run_without_timers(main)
        assert calls == [("k", 1), ("k", len(pes))]
        assert np.array_equal(first.fps, _alone(_one_pe(96)).fps)
        for p, result in zip(pes, parked):
            assert np.array_equal(result.fps, _alone(_one_pe(p)).fps)

    def test_scatter_order_matches_submission_order(self):
        """Interleaved submissions each get their own grid's scores back."""
        pes = [96, 576, 192, 384, 288]

        async def main():
            coalescer = Coalescer(_GatedEvaluate(open_gate=True))
            return await asyncio.gather(*[
                coalescer.submit("k", _grid(_one_pe(p))) for p in pes])

        for p, result in zip(pes, _run_without_timers(main)):
            assert np.array_equal(result.fps, _alone(_one_pe(p)).fps)

    @pytest.mark.parametrize("bounds, specs, batches", [
        ({"max_requests": 2}, [_one_pe(p) for p in (96, 192, 288, 384, 480)],
         [1, 2, 2, 1]),
        # a batch closes once it holds >= max_points: 2+2, then 1+3
        ({"max_points": 3}, ["pe=96:192:96", "pe=288:384:96", "pe=480",
                             "pe=96:288:96"],
         [1, 4, 4]),
    ], ids=["max_requests", "max_points"])
    def test_size_bounds_split_a_parked_bucket(self, bounds, specs, batches):
        async def main():
            evaluate = _GatedEvaluate()
            coalescer = Coalescer(evaluate, **bounds)
            first = await evaluate.hold_first_batch(coalescer)
            parked = await _park(coalescer, "k", specs)
            evaluate.gate.set()
            await first
            return evaluate.calls, await asyncio.gather(*parked)

        calls, results = _run_without_timers(main)
        assert calls == [("k", n) for n in batches]
        for spec, result in zip(specs, results):
            assert np.array_equal(result.fps, _alone(spec).fps)

    def test_incompatible_keys_never_share_a_batch(self):
        async def main():
            evaluate = _GatedEvaluate(open_gate=True)
            coalescer = Coalescer(evaluate)
            await asyncio.gather(
                coalescer.submit("a", _grid(_one_pe(96))),
                coalescer.submit("b", _grid(_one_pe(96))),
                coalescer.submit("a", _grid(_one_pe(192))),
            )
            return evaluate.calls

        assert sorted(_run_without_timers(main)) == [("a", 2), ("b", 1)]

    def test_a_busy_key_does_not_hold_back_another_key(self):
        async def main():
            evaluate = _GatedEvaluate()
            coalescer = Coalescer(evaluate)
            first = await evaluate.hold_first_batch(coalescer, key="a")
            other = asyncio.ensure_future(
                coalescer.submit("b", _grid(_one_pe(192))))
            await evaluate.entered.wait()  # b dispatched while a is busy
            calls = list(evaluate.calls)
            evaluate.gate.set()
            await asyncio.gather(first, other)
            return calls

        assert _run_without_timers(main) == [("a", 1), ("b", 1)]

    def test_evaluation_failure_fans_out_to_every_waiter(self):
        attempts = []

        async def evaluate(key, merged):
            attempts.append(merged.n_points)
            raise ValueError("boom")

        async def main():
            coalescer = Coalescer(evaluate)
            return await asyncio.gather(
                coalescer.submit("k", _grid(_one_pe(96))),
                coalescer.submit("k", _grid(_one_pe(192))),
                return_exceptions=True,
            )

        outcomes = _run_without_timers(main)
        assert attempts == [2]
        assert all(isinstance(outcome, ValueError) for outcome in outcomes)

    def test_requests_parked_behind_a_failed_batch_are_still_scored(self):
        class FailFirst(_GatedEvaluate):
            async def __call__(self, key, merged):
                result = await super().__call__(key, merged)
                if len(self.calls) == 1:
                    raise ValueError("boom")
                return result

        async def main():
            evaluate = FailFirst()
            coalescer = Coalescer(evaluate)
            first = await evaluate.hold_first_batch(coalescer)
            parked = await _park(coalescer, "k", [_one_pe(192)])
            evaluate.gate.set()
            with pytest.raises(ValueError):
                await first
            return evaluate.calls, await asyncio.gather(*parked)

        calls, (result,) = _run_without_timers(main)
        assert calls == [("k", 1), ("k", 1)]
        assert np.array_equal(result.fps, _alone(_one_pe(192)).fps)

    def test_drain_resolves_parked_requests(self):
        async def main():
            evaluate = _GatedEvaluate()
            coalescer = Coalescer(evaluate)
            first = await evaluate.hold_first_batch(coalescer)
            parked = await _park(coalescer, "k", [_one_pe(192), _one_pe(288)])
            drain = asyncio.ensure_future(coalescer.drain())
            await asyncio.sleep(0)
            assert not drain.done()  # the in-flight batch still holds it
            evaluate.gate.set()
            await drain
            assert first.done() and all(task.done() for task in parked)
            return evaluate.calls

        assert _run_without_timers(main) == [("k", 1), ("k", 2)]


# --------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_defaults_mirror_the_cli(self):
        params = parse_params(RunParams, {"network": "alexnet"})
        assert (params.batch, params.engine, params.pes,
                params.frequency_mhz) == (4, "analytical", 576, 700.0)
        sweep = parse_params(SweepParams, {})
        assert (sweep.batch, sweep.metric) == (16, "gops_per_watt")

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(ProtocolError, match="grdi"):
            parse_params(SweepParams, {"grdi": "pe=1:1:1"})

    def test_coalesce_key_separates_engines_networks_and_bases(self):
        network = tiny_test_network()
        key = coalesce_key("analytical-batch", network, BASE)
        assert key == coalesce_key("analytical-batch", network, ChainConfig())
        assert key != coalesce_key("analytical-batch-detailed", network, BASE)
        assert key != coalesce_key("analytical-batch", network,
                                   ChainConfig(num_pes=64))


# --------------------------------------------------------------------- #
# server round-trips (event-loop clients)
# --------------------------------------------------------------------- #
def _serve(coro_factory, **server_kwargs):
    """Start a fresh server, run ``coro_factory(server)``, stop it."""
    async def main():
        server = await EvalServer(port=0, **server_kwargs).start()
        try:
            return await coro_factory(server)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestServerBitIdentity:
    def test_concurrent_clients_match_serial_cli(self, monkeypatch):
        """Overlapping sweep/run requests == their standalone CLI bytes."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        requests = [
            ("/v1/sweep", {"grid": "pe=128:512:64,freq=300:700:100"},
             ["sweep", "--grid", "pe=128:512:64,freq=300:700:100", "--json"]),
            ("/v1/sweep", {"grid": "pe=128:512:64,freq=300:700:100",
                           "pareto": True},
             ["sweep", "--grid", "pe=128:512:64,freq=300:700:100", "--json",
              "--pareto"]),
            ("/v1/sweep", {"grid": "pe=576:576:1,freq=700:700:1", "top": 1},
             ["sweep", "--grid", "pe=576:576:1,freq=700:700:1", "--json",
              "--top", "1"]),
            ("/v1/sweep", {"grid": "pe=256:512:128,freq=700:700:1", "batch": 4,
                           "metric": "fps"},
             ["sweep", "--grid", "pe=256:512:128,freq=700:700:1", "--json",
              "--batch", "4", "--metric", "fps"]),
            ("/v1/sweep", {"grid": "pe=128:512:64,freq=300:700:100",
                           "engine": "analytical-detailed"},
             ["sweep", "--grid", "pe=128:512:64,freq=300:700:100", "--json",
              "--engine", "analytical-detailed"]),
            ("/v1/run", {"network": "alexnet"}, ["run", "alexnet", "--json"]),
            ("/v1/run", {"network": "vgg16", "batch": 8, "mode": "detailed"},
             ["run", "vgg16", "--json", "--batch", "8", "--mode", "detailed"]),
            ("/v1/run", {"network": "alexnet", "traffic": True},
             ["run", "alexnet", "--json", "--traffic"]),
        ]
        before = REGISTRY.flat()

        async def clients(server):
            return await asyncio.gather(*[
                request_json(server.host, server.port, path, body)
                for path, body, _ in requests
            ])

        responses = _serve(clients)
        for (path, body, argv), (status, raw) in zip(requests, responses):
            assert status == 200, (path, raw)
            assert raw.decode() + "\n" == _cli_out(argv), (path, body)
        # every flush counts as a batch, single-request ones too; more
        # requests than batches means some compatible sweeps shared one
        after = REGISTRY.flat()
        batches, requests = (
            after[name] - before.get(name, 0)
            for name in ("serve.coalesced_batches", "serve.coalesced_requests"))
        assert requests > batches

    def test_chaos_leg_is_bit_identical_to_faultfree_serial(self, monkeypatch):
        """A seeded crash plan killing pool workers must not change bytes."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
        map_argv = ["map", "--network", "alexnet", "--strategy", "greedy",
                    "--json"]
        serial_map = _cli_out(map_argv)
        serial_sweep = _cli_out(
            ["sweep", "--grid", "pe=128:512:128,freq=700:700:1", "--json"])
        monkeypatch.setenv(pool_module.FORCE_PARALLEL_ENV, "1")
        monkeypatch.setenv(FAULT_SPEC_ENV, CHAOS_SPEC)

        async def clients(server):
            return await asyncio.gather(
                request_json(server.host, server.port, "/v1/map",
                             {"network": "alexnet", "strategy": "greedy",
                              "workers": 2}),
                request_json(server.host, server.port, "/v1/sweep",
                             {"grid": "pe=128:512:128,freq=700:700:1"}),
            )

        (map_status, map_raw), (sweep_status, sweep_raw) = _serve(clients)
        assert map_status == 200 and sweep_status == 200
        result = json.loads(map_raw.decode().splitlines()[-1])
        assert result["event"] == "result" and result["status"] == 0
        assert json.dumps(result["payload"], indent=2, sort_keys=True) + "\n" \
            == serial_map
        assert sweep_raw.decode() + "\n" == serial_sweep

    def test_response_ends_while_a_forked_child_holds_the_socket(
            self, monkeypatch):
        """A pool forked mid-request inherits the connection's socket; the
        client reading to EOF must still see the response end."""
        children = []
        dispatch = EvalServer._dispatch

        async def forking_dispatch(self, request, writer):
            pid = os.fork()
            if pid == 0:  # stands in for a persistent pool worker
                time.sleep(60)
                os._exit(0)
            children.append(pid)
            await dispatch(self, request, writer)

        monkeypatch.setattr(EvalServer, "_dispatch", forking_dispatch)

        async def client(server):
            return await asyncio.wait_for(request_json(
                server.host, server.port, "/v1/sweep",
                {"grid": "pe=128:256:128,freq=700:700:1"}), timeout=20)

        try:
            status, _ = _serve(client)
        finally:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        assert status == 200

    def test_verify_streams_stage_progress_then_result(self):
        async def client(server):
            return await request_json(server.host, server.port, "/v1/verify",
                                      {"network": "tiny", "seed": 11})

        status, raw = _serve(client)
        assert status == 200
        events = [json.loads(line) for line in raw.decode().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "result" and "stage" in kinds[:-1]
        stage_names = [event["stage"] for event in events
                       if event["event"] == "stage"]
        payload = events[-1]["payload"]
        assert payload["passed"] is True and events[-1]["status"] == 0
        assert [s["stage"] for s in payload["stages"]] == stage_names

    def test_protocol_and_validation_errors(self):
        async def clients(server):
            return await asyncio.gather(
                request_json(server.host, server.port, "/v1/sweep",
                             {"grdi": "pe=1:1:1"}),
                request_json(server.host, server.port, "/v1/missing", {}),
                request_json(server.host, server.port, "/v1/run",
                             {"network": "not-a-network"}),
                request_json(server.host, server.port, "/v1/run",
                             {"network": "alexnet", "workers": 2}),
                request_json(server.host, server.port, "/v1/map",
                             {"samples": 5}),
            )

        responses = _serve(clients)
        assert [status for status, _ in responses] == [400, 404, 400, 400, 400]
        assert b"unknown parameter(s) workers" in responses[3][1]

    def test_removed_workers_field_is_an_unknown_parameter(self):
        """Functional verification is serial: ``workers`` on /v1/verify and
        /v1/run is rejected, not silently ignored."""
        async def clients(server):
            return await asyncio.gather(
                request_json(server.host, server.port, "/v1/verify",
                             {"network": "tiny", "workers": 2}),
                request_json(server.host, server.port, "/v1/run",
                             {"network": "alexnet",
                              "engine": "functional-vectorized",
                              "workers": 2}),
            )

        for status, body in _serve(clients):
            assert status == 400
            assert b"unknown parameter(s) workers" in body

    def test_chain_too_short_for_the_kernel_is_a_client_error(self):
        """A MappingError is the request's fault: 400, never 500."""
        async def clients(server):
            return await asyncio.gather(
                request_json(server.host, server.port, "/v1/map",
                             {"network": "alexnet", "pes": 64}),
                request_json(server.host, server.port, "/v1/run",
                             {"network": "alexnet", "pes": 64}),
            )

        (map_status, map_raw), (run_status, run_raw) = _serve(clients)
        # the map lane streams: the error arrives as the final event
        assert map_status == 200
        event = json.loads(map_raw.decode().splitlines()[-1])
        assert event["event"] == "error" and event["status"] == 400
        assert "needs 121 PEs but the chain has only 64" in event["error"]
        assert run_status == 400
        assert b"needs 121 PEs" in run_raw

    def test_negative_verify_seed_is_a_client_error(self):
        async def clients(server):
            return await request_json(server.host, server.port, "/v1/verify",
                                      {"network": "lenet5", "seed": -1})

        status, raw = _serve(clients)
        # the verify lane streams: the error arrives as the final event
        assert status == 200
        event = json.loads(raw.decode().splitlines()[-1])
        assert event["event"] == "error" and event["status"] == 400
        assert "seed must be >= 0, got -1" in event["error"]

    def test_empty_pareto_objectives_is_a_client_error(self):
        async def clients(server):
            return await request_json(
                server.host, server.port, "/v1/sweep",
                {"grid": "pe=128:256:64", "pareto": True, "objectives": []})

        status, raw = _serve(clients)
        assert status == 400
        assert b"at least one objective" in raw

    def test_health_and_metrics_endpoints(self):
        async def clients(server):
            health = await request_json(server.host, server.port,
                                        "/v1/health", None, method="GET")
            await request_json(server.host, server.port, "/v1/sweep",
                               {"grid": "pe=576:576:1,freq=700:700:1"})
            metrics = await request_json(server.host, server.port,
                                         "/v1/metrics", None, method="GET")
            return health, metrics

        (h_status, h_raw), (m_status, m_raw) = _serve(clients)
        assert h_status == 200 and m_status == 200
        health = json.loads(h_raw)
        assert health["status"] == "ok" and "version" in health
        metrics = json.loads(m_raw)["metrics"]
        assert metrics["serve.coalesced_batches"] >= 1

    def test_sweep_engine_is_built_once_per_coalescing_key(self, monkeypatch):
        import repro.serve.server as server_module

        built = []

        def counting_create_engine(name, **kwargs):
            built.append(name)
            return create_engine(name, **kwargs)

        monkeypatch.setattr(server_module, "create_engine",
                            counting_create_engine)

        async def clients(server):
            for grid in ("pe=128:256:64", "pe=512", "pe=128:256:64"):
                status, _ = await request_json(
                    server.host, server.port, "/v1/sweep", {"grid": grid})
                assert status == 200
            status, _ = await request_json(
                server.host, server.port, "/v1/sweep",
                {"grid": "pe=512", "engine": "analytical-detailed"})
            assert status == 200

        _serve(clients)
        assert built == ["analytical-batch", "analytical-batch-detailed"]


# --------------------------------------------------------------------- #
# blocking client + `repro request` (server on a background thread)
# --------------------------------------------------------------------- #
class _ServerThread:
    """A live server on its own event-loop thread, for blocking clients."""

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._task = None
        self._loop = None
        self.server = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main():
            self._task = asyncio.current_task()
            self._loop = asyncio.get_running_loop()
            self.server = await EvalServer(port=0, **self._kwargs).start()
            self._ready.set()
            try:
                await self.server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.server.stop()

        asyncio.run(main())

    def __enter__(self) -> EvalServer:
        self._thread.start()
        assert self._ready.wait(30), "server failed to start"
        return self.server

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(30)


class TestBlockingClientAndRequestCLI:
    def test_serve_client_round_trips(self):
        with _ServerThread() as server:
            with ServeClient(server.host, server.port) as client:
                assert client.health()["status"] == "ok"
                payload = client.sweep(grid="pe=256:512:256,freq=700:700:1")
                assert payload["n_points"] == 2
                events = []
                result, status = client.verify(on_event=events.append,
                                               network="tiny")
                assert status == 0 and result["passed"] is True
                with pytest.raises(ServeError):
                    client.run(network="not-a-network")
                assert client.metrics()["serve.requests"] >= 3

    def test_repro_request_bytes_match_repro_sweep(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        expected = _cli_out(
            ["sweep", "--grid", "pe=128:384:128,freq=500:700:100", "--json"])
        with _ServerThread() as server:
            got = _cli_out(
                ["request", "sweep",
                 '{"grid": "pe=128:384:128,freq=500:700:100"}',
                 "--port", str(server.port)])
            health = _cli_out(["request", "health", "--port", str(server.port)])
        assert got == expected
        assert json.loads(health)["status"] == "ok"

    def test_repro_request_against_no_server_fails_cleanly(self, capsys):
        # a port from the dynamic range with nothing bound on it
        status = cli.main(["request", "health", "--port", "1"])
        assert status == 1
        assert "cannot reach" in capsys.readouterr().err
