"""Server basics: coalescing, dedup, sweep/advise paths, TCP smoke."""

import asyncio

from repro.memsim.config import paper_config
from repro.memsim.spec import read_stream
from repro.obs import CountersRecorder
from repro.serve import BandwidthServer, ServeConfig, protocol
from repro.serve.client import ServeClient, request_once
from repro.sweep.service import EvaluationService

from tests.serve.conftest import FakeClock, run_async

WINDOW = 1.0


def make_server(clock: FakeClock, **overrides):
    """A server on the fake clock with a private service and recorder."""
    recorder = CountersRecorder()
    config = ServeConfig(**{"gather_window_seconds": WINDOW, **overrides})
    server = BandwidthServer(
        EvaluationService(disk_cache=None),
        config=config,
        recorder=recorder,
        clock=clock.time,
        sleep=clock.sleep,
    )
    return server, recorder


def evaluate_frame(request_id, threads, **extra):
    frame = {
        "kind": "evaluate",
        "id": request_id,
        "streams": [{"op": "read", "threads": threads}],
    }
    frame.update(extra)
    return frame


class TestCoalescing:
    def test_window_coalesces_concurrent_requests_into_one_batch(self, fake_clock):
        async def scenario():
            server, recorder = make_server(fake_clock)
            tasks = [
                asyncio.ensure_future(server.submit(evaluate_frame(i, threads)))
                for i, threads in enumerate((2, 4, 8))
            ]
            await fake_clock.drain()
            assert server.stats.admitted == 3
            assert not any(task.done() for task in tasks)
            await fake_clock.advance(WINDOW)
            responses = [await task for task in tasks]
            await server.close()
            return server, recorder, responses

        server, recorder, responses = run_async(scenario())
        assert all(response["ok"] for response in responses)
        assert server.stats.batches == 1
        assert server.stats.coalesced_points == 3
        sizes = recorder.histograms["serve.coalesce.batch_size_count"]
        assert (sizes.count, sizes.maximum) == (1, 3.0)
        # Answers match the serial path bit-for-bit.
        serial = EvaluationService(disk_cache=None)
        for threads, response in zip((2, 4, 8), responses):
            expected = protocol.encode_result(
                serial.evaluate(paper_config(), (read_stream(threads),))
            )
            assert response["result"] == expected

    def test_duplicate_requests_collapse_to_one_evaluation(self, fake_clock):
        async def scenario():
            server, recorder = make_server(fake_clock)
            tasks = [
                asyncio.ensure_future(server.submit(evaluate_frame(i, 4)))
                for i in range(3)
            ]
            await fake_clock.drain()
            await fake_clock.advance(WINDOW)
            responses = [await task for task in tasks]
            await server.close()
            return server, recorder, responses

        server, recorder, responses = run_async(scenario())
        assert server.stats.deduped == 2
        assert recorder.counters["serve.dedup.joined_count"] == 2
        # One batch, one miss (the first request); the two repeats are
        # memo hits inside that batch.
        assert server.stats.batches == 1
        assert recorder.counters["serve.coalesce.batches_count"] == 1
        assert recorder.counters["sweep.cache.misses_count"] == 1
        assert recorder.counters["sweep.cache.hits_count"] == 2
        assert responses[0]["result"] == responses[1]["result"]
        assert responses[1]["result"] == responses[2]["result"]

    def test_requests_after_the_window_form_a_new_batch(self, fake_clock):
        async def scenario():
            server, _ = make_server(fake_clock)
            first = asyncio.ensure_future(server.submit(evaluate_frame(1, 2)))
            await fake_clock.drain()
            await fake_clock.advance(WINDOW)
            await first
            second = asyncio.ensure_future(server.submit(evaluate_frame(2, 4)))
            await fake_clock.drain()
            await fake_clock.advance(WINDOW)
            await second
            await server.close()
            return server

        server = run_async(scenario())
        assert server.stats.batches == 2
        assert server.stats.coalesced_points == 0  # two singleton batches


class TestOtherKinds:
    def test_ping_and_advise_answer_without_the_clock(self, fake_clock):
        async def scenario():
            server, _ = make_server(fake_clock)
            ping = await server.submit({"kind": "ping", "id": 1})
            advise = await server.submit({
                "kind": "advise", "id": 2,
                "intent": {"profile": "ingest"},
            })
            await server.close()
            return ping, advise

        ping, advise = run_async(scenario())
        assert ping["result"]["protocol"] == protocol.PROTOCOL
        assert advise["ok"]
        assert advise["result"]["write_threads"] >= 1
        assert advise["result"]["practices"]

    def test_sweep_frame_answers_every_point_in_order(self, fake_clock):
        async def scenario():
            server, _ = make_server(fake_clock)
            response = await server.submit({
                "kind": "sweep", "id": 9,
                "points": [
                    [{"op": "read", "threads": 2}],
                    [{"op": "read", "threads": 4}],
                ],
            })
            await server.close()
            return response

        response = run_async(scenario())
        assert response["ok"]
        points = response["result"]["points"]
        serial = EvaluationService(disk_cache=None)
        for threads, payload in zip((2, 4), points):
            expected = protocol.encode_result(
                serial.evaluate(paper_config(), (read_stream(threads),))
            )
            assert payload == expected

    def test_sweep_frame_repeat_is_one_miss_and_one_hit(self, fake_clock):
        async def scenario():
            server, recorder = make_server(fake_clock)
            response = await server.submit({
                "kind": "sweep", "id": 10,
                "points": [
                    [{"op": "read", "threads": 4}],
                    [{"op": "read", "threads": 4}],
                ],
            })
            await server.close()
            return server, recorder, response

        server, recorder, response = run_async(scenario())
        assert response["ok"]
        first, second = response["result"]["points"]
        assert first == second
        assert (server.service.stats.misses, server.service.stats.hits) == (1, 1)
        assert recorder.counters["sweep.cache.misses_count"] == 1
        assert recorder.counters["sweep.cache.hits_count"] == 1

    def test_close_fails_queued_requests_with_shutdown(self, fake_clock):
        async def scenario():
            server, _ = make_server(fake_clock)
            task = asyncio.ensure_future(server.submit(evaluate_frame(1, 2)))
            await fake_clock.drain()
            await server.close()
            response = await task
            late = await server.submit(evaluate_frame(2, 2))
            return response, late

        response, late = run_async(scenario())
        assert not response["ok"]
        assert response["error"]["code"] == "shutdown"
        assert late["error"]["code"] == "shutdown"


class TestTcpSmoke:
    """Tier-1 smoke: start a real server, one request, clean shutdown."""

    def test_tcp_round_trip(self):
        async def scenario():
            server = BandwidthServer(
                EvaluationService(disk_cache=None),
                config=ServeConfig(gather_window_seconds=0.001),
            )
            host, port = await server.serve_tcp()
            response = await request_once(
                host, port, evaluate_frame("smoke", 4)
            )
            await server.close()
            return server, response

        server, response = run_async(scenario())
        assert response["ok"]
        assert response["id"] == "smoke"
        serial = EvaluationService(disk_cache=None)
        expected = protocol.encode_result(
            serial.evaluate(paper_config(), (read_stream(4),))
        )
        assert response["result"] == expected
        assert server.stats.completed == 1

    def test_pipelined_requests_on_one_connection(self):
        async def scenario():
            server = BandwidthServer(
                EvaluationService(disk_cache=None),
                config=ServeConfig(gather_window_seconds=0.001),
            )
            host, port = await server.serve_tcp()
            client = await ServeClient.connect(host, port)
            responses = await asyncio.gather(*(
                client.request(evaluate_frame(None, threads))
                for threads in (1, 2, 3, 4)
            ))
            await client.close()
            await server.close()
            return server, responses

        server, responses = run_async(scenario())
        assert [r["ok"] for r in responses] == [True] * 4
        totals = [r["result"]["total_gbps"] for r in responses]
        assert totals == sorted(totals)  # more threads, more bandwidth
        assert server.stats.completed == 4
