"""Coalescing parity: a seeded request storm is bit-identical to serial.

The property under test is the whole point of the gather window: batching
concurrent requests through :meth:`EvaluationService.evaluate_grid_columns`
and slicing the columns back per-request must be indistinguishable — in
results *and* in cache accounting — from answering each request one at a
time with :meth:`EvaluationService.evaluate` in submission order.

Responses are compared as encoded JSON payloads; since the codec uses
``repr``-round-trip floats, payload equality is bit-identity.
"""

import asyncio
import random

from repro.obs import CountersRecorder
from repro.serve import protocol
from repro.sweep.service import EvaluationService

from tests.serve.conftest import run_async
from tests.serve.test_server import WINDOW, make_server

SEED = 20210621
STORM_SIZE = 200
BURSTS = 10

#: Cache-relevant counters that must agree between the coalesced and the
#: serial run — an in-window duplicate rides its group's batch, where the
#: service answers it from the earlier row as a memo hit, so hit/miss
#: tallies line up.
CACHE_COUNTERS = ("sweep.cache.hits_count", "sweep.cache.misses_count")


def storm_shapes():
    """Distinct request bodies: mixed ops, sockets, ablations, duplicates
    arise from sampling these with replacement."""
    shapes = []
    for threads in (1, 2, 3, 4, 6, 8, 12, 18):
        for op in ("read", "write"):
            shapes.append({"streams": [{"op": op, "threads": threads}]})
    for threads in (2, 4, 8, 16):
        shapes.append({"streams": [{"op": "read", "threads": threads,
                                    "pattern": "random",
                                    "access_size": 256}]})
        shapes.append({"streams": [{"op": "read", "threads": threads}],
                       "prefetcher": False})
        shapes.append({"streams": [{"op": "write", "threads": threads}],
                       "write_combining": False})
        shapes.append({"streams": [{"op": "read", "threads": threads,
                                    "issuing_socket": 0,
                                    "target_socket": 1}]})
        shapes.append({"streams": [{"op": "read", "threads": threads},
                                   {"op": "write", "threads": 2}]})
        shapes.append({"streams": [{"op": "read", "threads": threads}],
                       "warm_pairs": [[0, 0], [1, 1]]})
        shapes.append({"streams": [{"op": "read", "threads": threads}],
                       "counters": True})
    return shapes


def storm_frames(rng):
    shapes = storm_shapes()
    frames = []
    for i in range(STORM_SIZE):
        frame = {"kind": "evaluate", "id": f"storm-{i}"}
        frame.update(rng.choice(shapes))
        frames.append(frame)
    return frames


def serial_answers(frames):
    """The ground truth: one memoized service, submission order, no server."""
    recorder = CountersRecorder()
    service = EvaluationService(disk_cache=None)
    responses = []
    for frame in frames:
        request = protocol.decode_request(frame)
        result = service.evaluate(
            request.config, request.streams, request.directory,
            recorder=recorder,
        )
        payload = protocol.encode_result(
            result, include_counters=request.include_counters
        )
        responses.append(protocol.ok_response(request.id, "evaluate", payload))
    return responses, recorder


class TestStormParity:
    def test_seeded_storm_is_bit_identical_to_serial(self, fake_clock):
        frames = storm_frames(random.Random(SEED))

        async def scenario():
            server, recorder = make_server(
                fake_clock, max_batch_points=64, max_queue_depth=64
            )
            responses = [None] * len(frames)
            per_burst = STORM_SIZE // BURSTS
            for burst in range(BURSTS):
                start = burst * per_burst
                tasks = {
                    index: asyncio.ensure_future(server.submit(frames[index]))
                    for index in range(start, start + per_burst)
                }
                await fake_clock.drain()
                await fake_clock.advance(WINDOW)
                for index, task in tasks.items():
                    responses[index] = await task
            await server.close()
            return server, recorder, responses

        server, recorder, responses = run_async(scenario())
        expected, serial_recorder = serial_answers(frames)
        assert server.stats.completed == STORM_SIZE
        mismatched = [
            index for index, (got, want) in enumerate(zip(responses, expected))
            if protocol.dump_line(got) != protocol.dump_line(want)
        ]
        assert mismatched == []

        # Cache accounting matches the serial run exactly: in-window
        # duplicates become memo hits in both worlds.
        for name in CACHE_COUNTERS:
            assert recorder.counters[name] == serial_recorder.counters[name], name
        total = (recorder.counters["sweep.cache.hits_count"]
                 + recorder.counters["sweep.cache.misses_count"])
        assert total == STORM_SIZE

        # The storm actually exercised coalescing, not 200 lonely batches.
        sizes = recorder.histograms["serve.coalesce.batch_size_count"]
        assert sizes.maximum >= 2
        assert server.stats.coalesced_points > 0
        assert server.stats.batches < STORM_SIZE
