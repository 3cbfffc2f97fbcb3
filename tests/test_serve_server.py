"""End-to-end front-door behaviour over the in-memory transport.

Each test drives an :class:`IngestServer` with a controllable clock
(``clock_ns`` reads a mutable cell), so staleness and rate limiting
are exercised deterministically without sleeping.
"""

import asyncio

import pytest

from repro.errors import ServeError
from repro.eval.metrics import build_demo_manager, demo_events
from repro.frontends import get_frontend
from repro.serve import (
    IngestBatch,
    IngestServer,
    ServeClient,
    ServeConfig,
    TenantWindow,
)
from repro.serve import protocol


def _server(num_tenants=2, config=None, clock=None, **kwargs):
    manager = build_demo_manager(num_tenants, kind="lstm", seed=0, **kwargs)
    clock = clock if clock is not None else {"ns": 0}
    server = IngestServer(
        manager,
        config or ServeConfig(),
        clock_ns=lambda: clock["ns"],
    )
    return server, clock


def _events(count=48, seed=0, label=None):
    return demo_events("lstm", seed, count, run_label=label)


class TestSessions:
    def test_events_session_to_verdicts(self):
        async def scenario():
            server, _ = _server()
            client = ServeClient.local(server)
            await client.hello("tenant0")
            response = await client.send_events(_events(60))
            assert response["frame_type"] == protocol.FrameType.ACK
            assert response["accepted_events"] == 60
            served = server.drain_once()
            summary = await client.bye()
            await server.stop()
            return server, served, summary

        server, served, summary = asyncio.run(scenario())
        assert served == 60
        assert summary["admitted"] == 1 and summary["shed"] == 0
        assert server.counts["serve.rounds"] == 1
        assert server.counts["serve.verdicts"] > 0
        assert server.counts["serve.connections.opened"] == 1
        assert server.counts["serve.connections.closed"] == 1

    def test_unknown_tenant_refused(self):
        async def scenario():
            server, _ = _server()
            client = ServeClient.local(server)
            with pytest.raises(ServeError, match="HELLO refused"):
                await client.hello("nobody")
            await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("frontend", ["coresight", "etrace"])
    def test_raw_session_decodes_server_side(self, frontend):
        async def scenario():
            server, _ = _server(
                frontends={"tenant0": frontend, "tenant1": frontend}
            )
            driver = get_frontend(frontend).create_driver()
            driver.enable()
            stream = driver.trace_all(_events(80)) + driver.flush()
            client = ServeClient.local(server)
            await client.hello("tenant0", mode="raw", frontend=frontend)
            response = await client.send_raw(stream)
            await client.bye()
            await server.stop()
            return server, response

        server, response = asyncio.run(scenario())
        assert response["frame_type"] == protocol.FrameType.ACK
        assert response["accepted_events"] > 0
        assert server.counts["serve.frames.raw"] == 1
        assert server.counts["serve.admitted.events"] > 0

    def test_corrupt_frame_refused_but_session_survives(self):
        async def scenario():
            server, _ = _server()
            client = ServeClient.local(server)
            await client.hello("tenant0")
            good = protocol.events_frame(_events(20), sequence=1)
            corrupted = bytearray(good)
            corrupted[-1] ^= 0xFF  # body byte: CRC catches it
            client.writer.write(bytes(corrupted))
            await client.writer.drain()
            response = await client._recv()
            assert response.type == protocol.FrameType.ERR
            # Framing survived: the next frame on the same session is
            # admitted normally.
            follow_up = await client.send_events(_events(20))
            await client.bye()
            await server.stop()
            return server, follow_up

        server, follow_up = asyncio.run(scenario())
        assert follow_up["frame_type"] == protocol.FrameType.ACK
        assert server.counts["serve.decode.errors"] == 1
        assert server.counts["serve.connections.closed"] == 1

    def test_bad_header_closes_the_session(self):
        async def scenario():
            server, _ = _server()
            client = ServeClient.local(server)
            await client.hello("tenant0")
            client.writer.write(b"\xff" * protocol.HEADER_BYTES)
            await client.writer.drain()
            response = await client._recv()
            await asyncio.sleep(0)
            await server.stop()
            return server, response

        server, response = asyncio.run(scenario())
        assert response.type == protocol.FrameType.ERR
        assert server.counts["serve.protocol.errors"] == 1

    def test_midframe_disconnect_counted(self):
        async def scenario():
            server, _ = _server()
            client = ServeClient.local(server)
            await client.hello("tenant0")
            frame = protocol.events_frame(_events(20))
            client.writer.write(frame[: len(frame) // 2])
            await client.writer.drain()
            client.close()
            await asyncio.sleep(0)
            await server.stop()
            return server

        server = asyncio.run(scenario())
        assert server.counts["serve.clients.disconnected_midframe"] == 1

    def test_data_before_hello_rejected(self):
        async def scenario():
            server, _ = _server()
            client = ServeClient.local(server)
            response = await client.send_events(_events(10))
            await server.stop()
            return response

        response = asyncio.run(scenario())
        assert response["frame_type"] == protocol.FrameType.ERR


class TestTenantWindow:
    def test_full_window_refuses_without_losing_queued_batches(self):
        window = TenantWindow("t", capacity_batches=2)
        batches = [
            IngestBatch("t", tuple(_events(5, seed=i)), admit_ns=i)
            for i in range(3)
        ]
        assert window.offer(batches[0]) and window.offer(batches[1])
        assert not window.offer(batches[2])
        assert window.depth == 2 and window.queued_events == 10
        assert window.oldest_admit_ns == 0
        fresh, stale = window.take(max_events=100, now_ns=0)
        assert fresh == batches[:2] and stale == []
        assert window.empty and window.queued_events == 0
        assert window.offer(batches[2])

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ServeError):
            TenantWindow("t", capacity_batches=0)


class TestOverloadControls:
    def test_buffer_full_sheds_with_backoff(self):
        config = ServeConfig(window_batches=2)
        async def scenario():
            server, _ = _server(config=config)
            client = ServeClient.local(server)
            await client.hello("tenant0")
            responses = [
                await client.send_events(_events(10)) for _ in range(4)
            ]
            await server.stop()
            return server, responses

        server, responses = asyncio.run(scenario())
        kinds = [r["frame_type"] for r in responses]
        assert kinds[:2] == [protocol.FrameType.ACK] * 2
        assert kinds[2:] == [protocol.FrameType.SHED] * 2
        assert responses[2]["reason"] == "buffer_full"
        assert server.counts["serve.shed.buffer_full"] == 2
        assert server.shed_total() == 2

    def test_queue_depth_cap_is_global(self):
        config = ServeConfig(max_queued_events=25, window_batches=64)
        async def scenario():
            server, _ = _server(config=config)
            clients = []
            for name in ("tenant0", "tenant1"):
                client = ServeClient.local(server)
                await client.hello(name)
                clients.append(client)
            first = await clients[0].send_events(_events(20))
            second = await clients[1].send_events(_events(20))
            await server.stop()
            return server, first, second

        server, first, second = asyncio.run(scenario())
        assert first["frame_type"] == protocol.FrameType.ACK
        assert second["frame_type"] == protocol.FrameType.SHED
        assert second["reason"] == "queue_depth"
        assert second["retry_after_ms"] > 0

    def test_stale_batches_shed_at_drain(self):
        config = ServeConfig(deadline_us=1_000.0)  # 1 ms budget
        async def scenario():
            server, clock = _server(config=config)
            client = ServeClient.local(server)
            await client.hello("tenant0")
            await client.send_events(_events(30))
            clock["ns"] += 10_000_000  # 10 ms: way past the deadline
            served = server.drain_once()
            await server.stop()
            return server, served

        server, served = asyncio.run(scenario())
        assert served == 0
        assert server.counts["serve.shed.stale"] == 1
        assert server.stale_events == 30
        # Conservation: everything admitted is served or accounted shed.
        assert server.counts["serve.admitted.events"] == (
            server.counts["serve.round.events"] + server.stale_events
        )

    def test_rate_limit_sheds_with_retry_hint(self):
        config = ServeConfig(rate_limit_eps=100.0, rate_burst_events=40)
        async def scenario():
            server, _ = _server(config=config)
            client = ServeClient.local(server)
            await client.hello("tenant0")
            first = await client.send_events(_events(40))
            second = await client.send_events(_events(40))
            await server.stop()
            return first, second

        first, second = asyncio.run(scenario())
        assert first["frame_type"] == protocol.FrameType.ACK
        assert second["frame_type"] == protocol.FrameType.SHED
        assert second["reason"] == "rate_limited"
        assert second["retry_after_ms"] > 0

    def test_opportunistic_drain_bounds_backlog_age(self):
        """The admission path drains inline once the oldest queued
        batch exceeds the drain budget — the defence against drain-loop
        starvation under event-loop saturation."""
        config = ServeConfig(drain_interval_s=0.005)
        async def scenario():
            server, clock = _server(config=config)
            client = ServeClient.local(server)
            await client.hello("tenant0")
            await client.send_events(_events(30, label="a"))
            assert server.counts["serve.rounds"] == 0
            clock["ns"] += 50_000_000  # 50 ms: far past the budget
            await client.send_events(_events(30, label="b"))
            await server.stop()
            return server

        server = asyncio.run(scenario())
        # The second admission found a 50 ms-old backlog and drained it
        # inline (the second batch rode along or drained at stop()).
        assert server.counts["serve.rounds"] >= 1
        assert server.counts["serve.round.events"] >= 30


class TestTcpTransport:
    def test_tcp_session(self):
        async def scenario():
            server, _ = _server()
            host, port = await server.start_tcp()
            client = await ServeClient.connect(host, port)
            await client.hello("tenant0")
            response = await client.send_events(_events(24))
            served = server.drain_once()
            await client.bye()
            await server.stop()
            return response, served

        response, served = asyncio.run(scenario())
        assert response["frame_type"] == protocol.FrameType.ACK
        assert served == 24


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ServeError):
            ServeConfig(deadline_us=0)
        with pytest.raises(ServeError):
            ServeConfig(window_batches=0)
        with pytest.raises(ServeError):
            ServeConfig(rate_limit_eps=-1)
        with pytest.raises(ServeError):
            ServeConfig(drain_interval_s=0)
        with pytest.raises(ServeError):
            ServeConfig(breaker_retry_ms=-1)
