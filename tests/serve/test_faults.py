"""Fault injection: every failure is deterministic and request-scoped.

All timing runs on the :class:`~tests.serve.conftest.FakeClock` — gather
windows and the frame timeout elapse via ``advance``, never a real
sleep. TCP tests use real localhost sockets but poll loop iterations
(not wall time) for readiness.
"""

import asyncio

from repro.memsim.config import paper_config
from repro.memsim.spec import read_stream
from repro.serve import ServeConfig, protocol
from repro.sweep.service import EvaluationService

from tests.serve.conftest import run_async
from tests.serve.test_server import WINDOW, evaluate_frame, make_server

#: A stream that decodes fine but blows up in evaluation: the paper
#: topology has two sockets, so socket 7 raises ``TopologyError``.
POISON_STREAMS = [{"op": "read", "threads": 2, "issuing_socket": 7,
                   "target_socket": 7}]


async def until(predicate, limit: int = 10_000):
    """Spin loop iterations (zero wall time) until ``predicate()``."""
    for _ in range(limit):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition never became true")


class TestPoisonedBatch:
    def test_poisoned_point_fails_only_its_own_request(self, fake_clock):
        async def scenario():
            server, recorder = make_server(fake_clock)
            frames = [
                evaluate_frame("good-a", 2),
                {"kind": "evaluate", "id": "bad", "streams": POISON_STREAMS},
                evaluate_frame("good-b", 4),
            ]
            tasks = [asyncio.ensure_future(server.submit(f)) for f in frames]
            await fake_clock.drain()
            await fake_clock.advance(WINDOW)
            responses = [await task for task in tasks]
            await server.close()
            return server, responses

        server, responses = run_async(scenario())
        good_a, bad, good_b = responses
        # The poisoned request gets a typed error with GridPointError
        # attribution: the serving grid name and the request id as label.
        assert not bad["ok"]
        assert bad["error"]["code"] == "evaluation"
        assert "serve.batch" in bad["error"]["message"]
        assert "'bad'" in bad["error"]["message"]
        assert "socket" in bad["error"]["message"]
        # Batch-mates are still answered, bit-identical to serial runs.
        serial = EvaluationService(disk_cache=None)
        for threads, response in ((2, good_a), (4, good_b)):
            assert response["ok"]
            expected = protocol.encode_result(
                serial.evaluate(paper_config(), (read_stream(threads),))
            )
            assert response["result"] == expected
        assert server.stats.errors == 1
        assert server.stats.completed == 2

    def test_poisoned_point_in_a_sweep_names_the_point(self, fake_clock):
        async def scenario():
            server, _ = make_server(fake_clock)
            response = await server.submit({
                "kind": "sweep", "id": "grid",
                "points": [[{"op": "read", "threads": 2}], POISON_STREAMS],
            })
            await server.close()
            return response

        response = run_async(scenario())
        assert not response["ok"]
        assert response["error"]["code"] == "evaluation"
        assert "grid[1]" in response["error"]["message"]

    def test_poisoned_first_point_counts_the_next_point_once(self, fake_clock):
        async def scenario():
            server, recorder = make_server(fake_clock)
            response = await server.submit({
                "kind": "sweep", "id": "grid",
                "points": [POISON_STREAMS, [{"op": "read", "threads": 2}]],
            })
            await server.close()
            return server, recorder, response

        server, recorder, response = run_async(scenario())
        assert not response["ok"]
        assert "grid[0]" in response["error"]["message"]
        # The poisoned point counts its miss; the failing grid call never
        # reached the next point, so resuming past the failure counts that
        # point once, as a miss, and finds nothing stored for it.
        stats = server.service.stats
        assert (stats.hits, stats.misses) == (0, 2)
        counters = recorder.snapshot()["counters"]
        assert counters["sweep.cache.misses_count"] == 2
        assert "sweep.cache.hits_count" not in counters

    def test_mid_window_cancellation_spares_batch_mates(self, fake_clock):
        """An in-process caller vanishing (task cancelled) mid-window."""
        async def scenario():
            server, _ = make_server(fake_clock)
            doomed = asyncio.ensure_future(server.submit(evaluate_frame(1, 2)))
            survivor = asyncio.ensure_future(server.submit(evaluate_frame(2, 4)))
            await fake_clock.drain()
            doomed.cancel()
            await fake_clock.advance(WINDOW)
            response = await survivor
            await server.close()
            return server, response

        server, response = run_async(scenario())
        assert response["ok"]
        assert server.stats.completed == 1


class TestMalformedFrames:
    def test_non_json_and_non_object_frames(self, fake_clock):
        async def scenario():
            server, _ = make_server(fake_clock)
            garbage = await server.submit(b"{not json\n")
            string = await server.submit(b'"a bare string"\n')
            number = await server.submit({"kind": 42})
            await server.close()
            return garbage, string, number

        garbage, string, number = run_async(scenario())
        for response in (garbage, string, number):
            assert not response["ok"]
            assert response["error"]["code"] == "bad_request"
        assert "not JSON" in garbage["error"]["message"]
        assert "JSON object" in string["error"]["message"]
        assert "unknown kind" in number["error"]["message"]

    def test_bad_frames_never_touch_admission_or_error_tallies(self, fake_clock):
        async def scenario():
            server, recorder = make_server(fake_clock)
            await server.submit(b"\x00garbage\n")
            await server.close()
            return server

        server = run_async(scenario())
        assert server.stats.admitted == 0
        # bad_request is the caller's failure, not an evaluation error.
        assert server.stats.errors == 0


class TestConnectionFaults:
    def test_client_disconnect_mid_request_spares_the_server(self, fake_clock):
        async def scenario():
            server, _ = make_server(fake_clock)
            host, port = await server.serve_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(protocol.dump_line(evaluate_frame("gone", 2)))
            await writer.drain()
            # Wait (loop iterations, no wall time) for admission, then
            # vanish before the answer exists.
            await until(lambda: server.stats.admitted == 1)
            writer.close()
            await fake_clock.advance(WINDOW)
            # The dead client's request was abandoned, not evaluated:
            # its in-flight task is cancelled with the connection and
            # the batch skips the cancelled future.
            assert server.stats.completed == 0
            assert server.stats.batches == 0
            reader2, writer2 = await asyncio.open_connection(host, port)
            writer2.write(protocol.dump_line(evaluate_frame("alive", 2)))
            await writer2.drain()
            respond = asyncio.ensure_future(reader2.readline())
            await until(lambda: server.stats.admitted == 2)
            await fake_clock.advance(WINDOW)
            line = await respond
            writer2.close()
            await server.close()
            return server, line

        server, line = run_async(scenario())
        response = protocol.json.loads(line)
        assert response["id"] == "alive"
        assert response["ok"]
        assert server.stats.completed == 1

    def test_slow_loris_partial_frame_times_out(self, fake_clock):
        async def scenario():
            server, _ = make_server(fake_clock, frame_timeout_seconds=30.0)
            host, port = await server.serve_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"kind": "eval')  # no newline, ever
            await writer.drain()
            # Wait until the server armed the frame timer, then jump
            # past the timeout on the fake clock.
            await until(lambda: fake_clock.sleeping >= 1)
            await fake_clock.advance(30.0)
            line = await reader.readline()
            eof = await reader.readline()
            writer.close()
            await server.close()
            return server, line, eof

        server, line, eof = run_async(scenario())
        response = protocol.json.loads(line)
        assert not response["ok"]
        assert response["error"]["code"] == "protocol"
        assert "30" in response["error"]["message"]
        assert eof == b""  # server hung up after answering
        assert server.stats.protocol_drops == 1

    def test_oversize_frame_is_a_protocol_violation(self, fake_clock):
        async def scenario():
            server, _ = make_server(fake_clock, max_frame_bytes=1024)
            host, port = await server.serve_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"x" * 4096 + b"\n")
            await writer.drain()
            line = await reader.readline()
            eof = await reader.readline()
            writer.close()
            await server.close()
            return server, line, eof

        server, line, eof = run_async(scenario())
        response = protocol.json.loads(line)
        assert not response["ok"]
        assert response["error"]["code"] == "protocol"
        assert "1024" in response["error"]["message"]
        assert eof == b""
        assert server.stats.protocol_drops == 1
