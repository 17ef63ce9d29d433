"""Self-tests of the wire workload's client and workload fingerprint."""

import asyncio
import time

import numpy as np

from perfbench import wire
from perfbench.wire_client import classify, run_client, schedule
from repro.wire.config import WireConfig
from repro.wire.fleet import LiteFleet


async def _slow_server(service_s: float):
    """A TCP server that takes ``service_s`` per request, one at a time."""

    async def handle(reader, writer):
        while line := await reader.readline():
            await asyncio.sleep(service_s)
            source_id = line.decode().split('"source_id": "')[1].split('"')[0]
            writer.write(
                b'{"source_id": "%s", "primed": false, "staleness_ms": 0.0, '
                b'"suspect": false, "degraded": true, "quarantined": false}\n'
                % source_id.encode()
            )
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_open_loop_client_keeps_its_schedule_against_a_stalled_server():
    interval, service, count = 0.01, 0.03, 40

    async def scenario():
        server, port = await _slow_server(service)
        try:
            start = time.monotonic() + 0.05
            return await run_client(
                "127.0.0.1",
                port,
                [start + i * interval for i in range(count)],
                [f"s{i}" for i in range(count)],
                grace_s=5.0,
            )
        finally:
            server.close()
            await server.wait_closed()

    result = asyncio.run(scenario())
    assert result["replied"] == count and result["malformed"] == 0
    # The sender kept to its schedule although the server fell behind...
    assert max(result["lag_ms"]) < 25.0
    # ...so the wait grew by about (service - interval) per request.
    latency = np.array(result["latency_ms"])
    growth = np.polyfit(np.arange(count), latency, 1)[0]
    assert growth > 0.5 * (service - interval) * 1e3
    assert latency[-1] > latency[0] + 300.0


def test_missing_replies_count_as_failed():
    async def scenario():
        async def mute(reader, writer):
            await reader.read()
            writer.close()

        server = await asyncio.start_server(mute, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            now = time.monotonic()
            return await run_client(
                "127.0.0.1", port, [now, now + 0.005, now + 0.01],
                ["s1", "s2", "s3"], grace_s=0.2,
            )
        finally:
            server.close()
            await server.wait_closed()

    result = asyncio.run(scenario())
    assert result["scheduled"] == 3 and result["replied"] == 0


def test_schedule_is_seeded_poisson_within_the_window():
    due = schedule(10.0, 20.0, 4000, seed=3)
    assert due == schedule(10.0, 20.0, 4000, seed=3)
    assert due != schedule(10.0, 20.0, 4000, seed=4)
    gaps = np.diff(due)
    assert 10.0 <= due[0] and due[-1] <= 30.0 and (gaps >= 0).all()
    # Exponential gaps: the median gap is ln 2 of the mean.
    assert abs(np.median(gaps) / gaps.mean() - np.log(2)) < 0.05


def test_reply_validation():
    good = (b'{"source_id": "s1", "primed": true, "staleness_ms": 0.0, '
            b'"suspect": false, "degraded": false, "quarantined": false, '
            b'"value": [1.5], "confidence": 0.9}')
    assert classify(good, "s1") == "ok"
    assert classify(good, "s2") == "malformed"
    assert classify(b'{"error": "unknown source"}', "s1") == "refused"
    assert classify(b"not json", "s1") == "malformed"
    assert classify(b"[1, 2]", "s1") == "malformed"
    assert classify(good.replace(b"[1.5]", b'"x"'), "s1") == "malformed"


def test_expected_digest_pins_the_fleet_workload():
    config = WireConfig(sources=500, ticks=20, seed=3)
    fleet = LiteFleet(config)
    assert wire._fold(fleet.workload_digest(), config) == wire.expected_digest(
        config
    )
    other = WireConfig(sources=500, ticks=20, seed=4)
    assert wire.expected_digest(other) != wire.expected_digest(config)
