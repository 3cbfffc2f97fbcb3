"""The asyncio ingestion front door (``repro.serve``).

:class:`IngestServer` turns the in-process :class:`SocManager` into a
service: clients open a session (TCP or in-memory transport), declare
a tenant and an ingest mode, then stream either **raw frontend byte
streams** (any grammar in the :mod:`repro.frontends` registry, decoded
server-side with the resync-hunting receiver pair) or **pre-decoded
event batches** (the columnar TRACE_CHUNK codec).  Admitted batches
wait in per-tenant rolling windows; a drain loop assembles monitoring
rounds and feeds them to ``SocManager.run_events``.

The dataplane is protected by layered overload controls (see
:mod:`repro.serve.admission` and docs/SERVING.md):

    breaker (health-integrated) -> token bucket -> deadline/queue
    admission -> bounded window -> stale shed at drain

Every refusal is a client-visible SHED frame with a retry-after hint,
and every control surfaces ``serve.*`` counters so shed work is
accounted, never silently dropped.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FrameProtocolError, ServeError, SocConfigError
from repro.frontends import TraceFrontend, frontend_names, get_frontend
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.serve import protocol
from repro.serve.admission import (
    AdmissionController,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    TokenBucket,
)
from repro.serve.windows import IngestBatch, TenantWindow
from repro.soc.manager import SocManager
from repro.workloads.cfg import BranchEvent, BranchKind

#: Canonical ``serve.*`` counters, surfaced by ``repro.eval metrics``
#: with a stable shape (0 when the front door never ran).
SERVE_COUNTERS = (
    "serve.connections.opened",
    "serve.connections.closed",
    "serve.clients.disconnected_midframe",
    "serve.clients.slow",
    "serve.protocol.errors",
    "serve.frames.received",
    "serve.bytes.received",
    "serve.frames.raw",
    "serve.frames.events",
    "serve.decode.errors",
    "serve.admitted.batches",
    "serve.admitted.events",
    "serve.shed.breaker_open",
    "serve.shed.sampled",
    "serve.shed.rate_limited",
    "serve.shed.queue_depth",
    "serve.shed.deadline",
    "serve.shed.buffer_full",
    "serve.shed.stale",
    "serve.rounds",
    "serve.round.events",
    "serve.verdicts",
    "serve.breaker.trips",
    "serve.breaker.recoveries",
    "serve.route.updates",
)

#: Shed reasons (counter suffixes and SHED-frame ``reason`` values).
SHED_REASONS = (
    "breaker_open",
    "sampled",
    "rate_limited",
    "queue_depth",
    "deadline",
    "buffer_full",
    "stale",
)


@dataclass(frozen=True)
class ServeConfig:
    """Front-door configuration (see docs/SERVING.md)."""

    #: Ingest-to-verdict budget.  Arms deadline-aware admission *and*
    #: stale shedding at drain; the same vocabulary as the arbiter
    #: watchdog's ``deadline_us``, applied in the wall-clock domain.
    deadline_us: Optional[float] = None
    #: Per-tenant rolling-window capacity, in batches.
    window_batches: int = 64
    #: Per-tenant sustained event-rate cap (None = unlimited).
    rate_limit_eps: Optional[float] = None
    rate_burst_events: int = 4096
    #: Global bounded-queue cap (events across all windows).
    max_queued_events: int = 65_536
    #: Max events one tenant contributes to one drain round.
    round_max_events: int = 8192
    #: Drain cadence when no kick threshold is crossed.
    drain_interval_s: float = 0.005
    #: Queued events that wake the drain loop early.
    drain_kick_events: int = 4096
    #: Per-read timeout guarding against slow-loris clients
    #: (None = patient).
    idle_timeout_s: Optional[float] = None
    #: Synthetic cycle cadence for events reconstructed from raw byte
    #: streams (the wire carries no timestamps).
    raw_cycles_per_event: int = 512
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: Retry-after hint handed to clients refused by an open breaker.
    breaker_retry_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.deadline_us is not None and not self.deadline_us > 0:
            raise ServeError(
                "deadline_us must be positive (or None), "
                f"got {self.deadline_us!r}"
            )
        for name in (
            "window_batches",
            "rate_burst_events",
            "max_queued_events",
            "round_max_events",
            "drain_kick_events",
            "raw_cycles_per_event",
        ):
            if getattr(self, name) < 1:
                raise ServeError(f"{name} must be >= 1")
        if self.rate_limit_eps is not None and not self.rate_limit_eps > 0:
            raise ServeError("rate_limit_eps must be positive (or None)")
        if self.drain_interval_s <= 0:
            raise ServeError("drain_interval_s must be positive")
        if self.breaker_retry_ms < 0:
            raise ServeError("breaker_retry_ms must be >= 0")


class _RawIngest:
    """Server-side decode state for one raw-byte-stream session.

    The wire carries only what the grammar carries, so reconstructed
    events are *waypoints*: every taken branch's target address (both
    built-in grammars address-broadcast), syscalls flagged via the
    grammar's trap/exception marker, cycles assigned at a fixed
    cadence.  Atom/branch-map outcome bits carry no address and are
    skipped — they can never hit the IGM mapper anyway.
    """

    def __init__(
        self, frontend: TraceFrontend, cycles_per_event: int
    ) -> None:
        self.frontend = frontend
        self.deframer = frontend.new_deframer(resync_hunt=True)
        self.decoder = frontend.new_decoder(strict=False, resync_hunt=True)
        self._cycles_per_event = cycles_per_event
        self._cycle = 0
        self._last_target = 0

    def _to_events(self, items) -> List[BranchEvent]:
        events: List[BranchEvent] = []
        for item in items:
            if not hasattr(item, "is_syscall"):
                continue  # sync/support/context/outcome items
            self._cycle += self._cycles_per_event
            target = int(item.address)
            events.append(
                BranchEvent(
                    cycle=self._cycle,
                    source=self._last_target,
                    target=target,
                    kind=(
                        BranchKind.SYSCALL
                        if item.is_syscall
                        else BranchKind.INDIRECT
                    ),
                )
            )
            self._last_target = target
        return events

    def feed(self, stream: bytes) -> List[BranchEvent]:
        payload = self.deframer.push(stream)
        return self._to_events(self.decoder.feed(payload))

    def finish(self) -> List[BranchEvent]:
        return self._to_events(self.decoder.finish())


class _Session:
    """Per-connection state."""

    def __init__(self) -> None:
        self.tenant: Optional[str] = None
        self.mode: str = protocol.MODE_EVENTS
        self.raw: Optional[_RawIngest] = None
        self.frames = 0
        self.admitted = 0
        self.shed = 0
        self.errors = 0


class _MemoryWriter:
    """StreamWriter facade over an in-memory peer StreamReader.

    Lets thousands of simulated clients attach without consuming file
    descriptors — the soak harness's transport.
    """

    def __init__(self, peer: asyncio.StreamReader) -> None:
        self._peer = peer
        self._closed = False

    def write(self, data: bytes) -> None:
        if not self._closed and data:
            self._peer.feed_data(data)

    async def drain(self) -> None:
        await asyncio.sleep(0)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._peer.feed_eof()

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        return None

    def get_extra_info(self, name: str, default=None):
        return default


class IngestServer:
    """Streaming ingestion service in front of one :class:`SocManager`."""

    def __init__(
        self,
        manager: SocManager,
        config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock_ns: Callable[[], int] = time.monotonic_ns,
    ) -> None:
        self.manager = manager
        self.config = config or ServeConfig()
        self.metrics = metrics or NULL_REGISTRY
        self.clock_ns = clock_ns
        self.windows: Dict[str, TenantWindow] = {}
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.buckets: Dict[str, TokenBucket] = {}
        for runtime in manager.tenants:
            self._attach_tenant(runtime.name)
        self.admission = AdmissionController(
            deadline_us=self.config.deadline_us,
            max_queued_events=self.config.max_queued_events,
        )
        #: Wall-clock ingest-to-verdict samples (ns), capped so a long
        #: soak cannot grow without bound; the histogram keeps the full
        #: distribution either way.
        self.latencies_ns: List[int] = []
        self._latency_cap = 1 << 20
        self.counts: Dict[str, int] = {name: 0 for name in SERVE_COUNTERS}
        self._m = {
            name: self.metrics.counter(name) for name in SERVE_COUNTERS
        }
        self._m_latency = self.metrics.histogram(
            "serve.ingest_to_verdict_ns"
        )
        self._m_queue = self.metrics.gauge("serve.queue.events")
        self._sessions: List[asyncio.Task] = []
        #: Live (session, writer) pairs so a graceful shutdown can
        #: answer in-flight clients with SUMMARY frames.
        self._peers: List[Tuple[_Session, object]] = []
        self._drain_task: Optional[asyncio.Task] = None
        self._tcp: Optional[asyncio.base_events.Server] = None
        self._kick: Optional[asyncio.Event] = None
        self._running = False
        self._closing = False
        self.drain_errors: List[str] = []
        #: Events inside batches shed as stale (the ``serve.shed.stale``
        #: counter counts batches); lets callers check conservation:
        #: admitted events == drained round events + stale events.
        self.stale_events = 0
        self._last_drain_done_ns: Optional[int] = None
        #: Per-tenant records from the most recent round that served
        #: any traffic (the chaos harness compares these against a
        #: fault-free reference).
        self.last_records: Dict[str, List] = {}
        #: Sticky tenant->shard routing table, mirrored from a fleet
        #: manager's placement (empty for a solo SocManager).  Updated
        #: atomically at round boundaries only — mid-round the front
        #: door keeps answering with the placement the round started
        #: with, the contract docs/SERVING.md documents.
        self.routes: Dict[str, int] = {}
        self.route_epoch = -1
        self._sync_routes()

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _attach_tenant(self, name: str) -> None:
        config = self.config if hasattr(self, "config") else ServeConfig()
        self.windows[name] = TenantWindow(
            name, capacity_batches=config.window_batches
        )
        self.breakers[name] = CircuitBreaker(config.breaker)
        if config.rate_limit_eps is not None:
            self.buckets[name] = TokenBucket(
                config.rate_limit_eps, config.rate_burst_events
            )

    def _count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount
        self._m[name].inc(amount)

    def _sync_routes(self) -> None:
        """Adopt the fleet's routing table if its epoch moved.

        One atomic swap per placement change: the fleet only mutates
        placement at round boundaries (load rebalancing and crash-loop
        migration both route through the same handoff primitive), so
        polling the epoch here — at the server's own round boundary —
        observes every generation exactly once.  Solo managers have no
        routing table and keep ``routes`` empty.
        """
        table = getattr(self.manager, "routing_table", None)
        if table is None:
            return
        epoch = int(getattr(self.manager, "placement_epoch", 0))
        if epoch == self.route_epoch:
            return
        self.routes = dict(table())
        self.route_epoch = epoch
        self._count("serve.route.updates")

    def stats(self) -> Dict[str, object]:
        """Counter snapshot plus breaker states (plain dict)."""
        out: Dict[str, object] = dict(self.counts)
        out["serve.queue.events"] = self.admission.queued_events
        out["breakers"] = {
            name: breaker.state.value
            for name, breaker in self.breakers.items()
        }
        out["routes"] = dict(self.routes)
        out["route_epoch"] = self.route_epoch
        return out

    def shed_total(self) -> int:
        return sum(
            self.counts[f"serve.shed.{reason}"] for reason in SHED_REASONS
        )

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------

    def local_connection(
        self,
    ) -> Tuple[asyncio.StreamReader, _MemoryWriter]:
        """Attach an in-memory client; returns its (reader, writer)."""
        if self._closing:
            raise ServeError("server is shutting down")
        server_reader = asyncio.StreamReader()
        client_reader = asyncio.StreamReader()
        client_writer = _MemoryWriter(server_reader)
        server_writer = _MemoryWriter(client_reader)
        task = asyncio.ensure_future(
            self._session_entry(server_reader, server_writer)
        )
        self._sessions.append(task)
        return client_reader, client_writer

    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Listen on a real socket; returns the bound (host, port)."""
        self._tcp = await asyncio.start_server(
            self._session_entry, host, port
        )
        bound = self._tcp.sockets[0].getsockname()
        return bound[0], bound[1]

    async def start(self) -> None:
        """Arm the background drain loop."""
        if self._running:
            return
        self._running = True
        self._kick = asyncio.Event()
        self._drain_task = asyncio.create_task(self._drain_loop())

    async def stop(self) -> None:
        """Quiesce: stop draining, final drain, close transports."""
        self._running = False
        if self._kick is not None:
            self._kick.set()
        if self._drain_task is not None:
            await self._drain_task
            self._drain_task = None
        self.drain_once()
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        for task in self._sessions:
            if not task.done():
                task.cancel()
        if self._sessions:
            await asyncio.gather(*self._sessions, return_exceptions=True)
        self._sessions = []

    async def shutdown(self) -> None:
        """Graceful quiesce (the SIGTERM / Ctrl-C path).

        In order: stop accepting (the TCP listener closes, new local
        connections are refused), stop the background drain loop,
        drain every buffered window through a final sequence of
        monitoring rounds so admitted work is never abandoned, then
        answer each in-flight client with its SUMMARY frame before the
        transports close.  Idempotent — a second signal while the
        first shutdown runs is a no-op.
        """
        if self._closing:
            return
        self._closing = True
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        self._running = False
        if self._kick is not None:
            self._kick.set()
        if self._drain_task is not None:
            await self._drain_task
            self._drain_task = None
        self.drain_all()
        for session, writer in list(self._peers):
            try:
                writer.write(
                    protocol.summary_frame(
                        {
                            "frames": session.frames,
                            "admitted": session.admitted,
                            "shed": session.shed,
                            "errors": session.errors,
                            "draining": True,
                        }
                    )
                )
                await writer.drain()
            except Exception:
                pass  # a dying client must not abort the shutdown
        for task in self._sessions:
            if not task.done():
                task.cancel()
        if self._sessions:
            await asyncio.gather(*self._sessions, return_exceptions=True)
        self._sessions = []

    def install_signal_handlers(self, loop=None) -> None:
        """Route SIGTERM/SIGINT to :meth:`shutdown` on ``loop``.

        Must be called from within a running event loop (or given
        one).  With these installed, ``kill <pid>`` and Ctrl-C
        (``KeyboardInterrupt``'s signal) trigger the graceful path
        instead of tearing the process down mid-round.
        """
        import signal as _signal

        loop = loop or asyncio.get_running_loop()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(self.shutdown()),
            )

    # ------------------------------------------------------------------
    # Session handling
    # ------------------------------------------------------------------

    async def _read_exactly(
        self, reader: asyncio.StreamReader, count: int
    ) -> bytes:
        if self.config.idle_timeout_s is None:
            return await reader.readexactly(count)
        return await asyncio.wait_for(
            reader.readexactly(count), self.config.idle_timeout_s
        )

    async def _session_entry(self, reader, writer) -> None:
        self._count("serve.connections.opened")
        session = _Session()
        peer = (session, writer)
        self._peers.append(peer)
        try:
            await self._session_loop(session, reader, writer)
        except asyncio.IncompleteReadError:
            # A clean EOF between frames returns inside the loop; any
            # short read that escapes to here died mid-frame.
            self._count("serve.clients.disconnected_midframe")
        except (asyncio.TimeoutError, TimeoutError):
            self._count("serve.clients.slow")
        except (ConnectionResetError, BrokenPipeError):
            self._count("serve.clients.disconnected_midframe")
        except asyncio.CancelledError:
            pass
        finally:
            if peer in self._peers:
                self._peers.remove(peer)
            self._flush_raw_tail(session)
            try:
                writer.close()
            except Exception:
                pass
            self._count("serve.connections.closed")

    async def _session_loop(self, session, reader, writer) -> None:
        while True:
            try:
                header = await self._read_exactly(
                    reader, protocol.HEADER_BYTES
                )
            except asyncio.IncompleteReadError as error:
                if error.partial:
                    self._count("serve.clients.disconnected_midframe")
                return  # clean EOF between frames
            try:
                length, crc = protocol.split_header(header)
            except FrameProtocolError as error:
                # Framing is gone; nothing later on this stream can be
                # trusted.
                self._count("serve.protocol.errors")
                writer.write(protocol.err_frame(str(error)))
                await writer.drain()
                return
            body = await self._read_exactly(reader, length)
            self._count("serve.frames.received")
            self._count(
                "serve.bytes.received", protocol.HEADER_BYTES + length
            )
            try:
                frame = protocol.decode_body(body, crc)
            except FrameProtocolError as error:
                # Payload corruption: the frame boundary survived, so
                # refuse just this frame and keep the session.
                self._count("serve.decode.errors")
                session.errors += 1
                self._tenant_shed_mark(session)
                writer.write(protocol.err_frame(str(error)))
                await writer.drain()
                continue
            if not await self._dispatch(session, frame, writer):
                return

    async def _dispatch(self, session, frame, writer) -> bool:
        """Handle one frame; False ends the session."""
        if frame.type == protocol.FrameType.HELLO:
            return await self._on_hello(session, frame, writer)
        if frame.type == protocol.FrameType.BYE:
            writer.write(
                protocol.summary_frame(
                    {
                        "frames": session.frames,
                        "admitted": session.admitted,
                        "shed": session.shed,
                        "errors": session.errors,
                    }
                )
            )
            await writer.drain()
            return False
        if session.tenant is None:
            self._count("serve.protocol.errors")
            writer.write(protocol.err_frame("HELLO required first"))
            await writer.drain()
            return False
        if frame.type == protocol.FrameType.RAW:
            return await self._on_data(session, frame, writer, raw=True)
        if frame.type == protocol.FrameType.EVENTS:
            return await self._on_data(session, frame, writer, raw=False)
        self._count("serve.protocol.errors")
        writer.write(protocol.err_frame(f"unknown frame type {frame.type}"))
        await writer.drain()
        return False

    async def _on_hello(self, session, frame, writer) -> bool:
        try:
            document = protocol.decode_json(frame.payload)
            tenant = str(document.get("tenant", ""))
            mode = str(document.get("mode", protocol.MODE_EVENTS))
            self.manager.tenant(tenant)  # raises on unknown
            if mode not in protocol.MODES:
                raise FrameProtocolError(f"unknown mode {mode!r}")
            if tenant not in self.windows:
                self._attach_tenant(tenant)
            session.tenant = tenant
            session.mode = mode
            if mode == protocol.MODE_RAW:
                name = str(
                    document.get(
                        "frontend",
                        self.manager.tenant(tenant).deployment.config.frontend,
                    )
                )
                if name not in frontend_names():
                    raise FrameProtocolError(
                        f"unknown frontend {name!r}"
                    )
                session.raw = _RawIngest(
                    get_frontend(name), self.config.raw_cycles_per_event
                )
        except (FrameProtocolError, SocConfigError) as error:
            self._count("serve.protocol.errors")
            writer.write(protocol.err_frame(str(error)))
            await writer.drain()
            return False
        writer.write(protocol.ack_frame(0))
        await writer.drain()
        return True

    async def _on_data(self, session, frame, writer, raw: bool) -> bool:
        session.frames += 1
        if raw:
            if session.mode != protocol.MODE_RAW or session.raw is None:
                self._count("serve.protocol.errors")
                writer.write(
                    protocol.err_frame("RAW frame outside raw mode")
                )
                await writer.drain()
                return False
            self._count("serve.frames.raw")
            events: Sequence[BranchEvent] = session.raw.feed(frame.payload)
        else:
            if session.mode != protocol.MODE_EVENTS:
                self._count("serve.protocol.errors")
                writer.write(
                    protocol.err_frame("EVENTS frame outside events mode")
                )
                await writer.drain()
                return False
            self._count("serve.frames.events")
            try:
                events = protocol.decode_events_payload(frame.payload)
            except FrameProtocolError as error:
                self._count("serve.decode.errors")
                session.errors += 1
                self._tenant_shed_mark(session)
                writer.write(protocol.err_frame(str(error)))
                await writer.drain()
                return True
        response = self._admit(session, events)
        writer.write(response)
        await writer.drain()
        return True

    def _tenant_shed_mark(self, session) -> None:
        if session.tenant is not None:
            self.breakers[session.tenant].record_refused_frame()

    def _flush_raw_tail(self, session) -> None:
        """Session over: decode whatever the raw decoder still buffers.

        Tail events go through the same admission funnel; the client
        is gone, so the response frame is simply not sent.
        """
        if session.raw is None or session.tenant is None:
            return
        tail = session.raw.finish()
        session.raw = None
        if tail:
            self._admit(session, tail)

    # ------------------------------------------------------------------
    # Admission funnel
    # ------------------------------------------------------------------

    def _shed(self, session, reason: str, retry_after_ms: float) -> bytes:
        self._count(f"serve.shed.{reason}")
        session.shed += 1
        return protocol.shed_frame(reason, retry_after_ms)

    def _oldest_age_ns(self, now_ns: int) -> Optional[int]:
        """Age of the oldest queued batch across all windows."""
        oldest: Optional[int] = None
        for window in self.windows.values():
            admit_ns = window.oldest_admit_ns
            if admit_ns is not None and (
                oldest is None or admit_ns < oldest
            ):
                oldest = admit_ns
        return None if oldest is None else now_ns - oldest

    def _drain_if_overdue(self, now_ns: int) -> None:
        """Opportunistic drain on the admission path.

        The timer-driven drain loop starves when the event loop is
        saturated with session callbacks (one loop iteration can run
        for hundreds of milliseconds of synchronous frame work, and
        timers only fire between iterations).  Ingest traffic itself
        is the one signal guaranteed to keep arriving under that load,
        so admission checks the backlog's age and drains inline once
        it exceeds the drain budget — backlog age stays bounded no
        matter how busy the loop is.
        """
        age = self._oldest_age_ns(now_ns)
        if age is None:
            return
        budget_ns = self.config.drain_interval_s * 1e9
        if self.config.deadline_us is not None:
            budget_ns = min(budget_ns, self.config.deadline_us * 1e3 / 2)
        if age >= budget_ns:
            self.drain_once()

    def _admit(self, session, events: Sequence[BranchEvent]) -> bytes:
        """Run one frame's events through the layered funnel."""
        tenant = session.tenant
        assert tenant is not None
        self._drain_if_overdue(self.clock_ns())
        breaker = self.breakers[tenant]
        admitted, reason = breaker.admit_frame()
        if not admitted:
            retry_ms = self.config.breaker_retry_ms
            return self._shed(session, reason, retry_ms)
        if not events:
            session.admitted += 1
            return protocol.ack_frame(0)
        now_ns = self.clock_ns()
        bucket = self.buckets.get(tenant)
        if bucket is not None:
            ok, retry_s = bucket.admit(len(events), now_ns / 1e9)
            if not ok:
                breaker.record_shed()
                return self._shed(
                    session, "rate_limited", retry_s * 1e3
                )
        reason2, retry_s = self.admission.check(len(events))
        if reason2 is not None:
            breaker.record_shed()
            return self._shed(
                session,
                "deadline" if reason2 == "deadline" else "queue_depth",
                retry_s * 1e3,
            )
        deadline_ns = None
        if self.config.deadline_us is not None:
            deadline_ns = now_ns + int(self.config.deadline_us * 1e3)
        batch = IngestBatch(
            tenant=tenant,
            events=tuple(events),
            admit_ns=now_ns,
            deadline_ns=deadline_ns,
        )
        if not self.windows[tenant].offer(batch):
            breaker.record_shed()
            return self._shed(
                session,
                "buffer_full",
                self.admission.shed_hint_s() * 1e3,
            )
        self.admission.admitted(len(events))
        self._m_queue.set(self.admission.queued_events)
        self._count("serve.admitted.batches")
        self._count("serve.admitted.events", len(events))
        session.admitted += 1
        if (
            self._kick is not None
            and self.admission.queued_events
            >= self.config.drain_kick_events
        ):
            self._kick.set()
        return protocol.ack_frame(len(events))

    # ------------------------------------------------------------------
    # Drain loop
    # ------------------------------------------------------------------

    async def _drain_loop(self) -> None:
        assert self._kick is not None
        while self._running:
            try:
                await asyncio.wait_for(
                    self._kick.wait(), timeout=self.config.drain_interval_s
                )
            except (asyncio.TimeoutError, TimeoutError):
                pass
            self._kick.clear()
            if not self._running:
                return
            self.drain_once()
            # Yield so sessions can run even under sustained load.
            await asyncio.sleep(0)

    def drain_once(self) -> int:
        """Assemble and run one monitoring round; returns its events.

        Synchronous on purpose: ``SocManager.run_events`` is CPU-bound
        simulation, and a deterministic entry point lets the chaos
        harness control round grouping exactly.
        """
        now_ns = self.clock_ns()
        traces: Dict[str, Tuple[BranchEvent, ...]] = {}
        consumed: List[IngestBatch] = []
        for name, window in self.windows.items():
            fresh, stale = window.take(
                self.config.round_max_events, now_ns
            )
            for batch in stale:
                # Deadline-aware shed *after* admission: the batch went
                # stale while queued; serving it now would blow the
                # ingest budget for no benefit.
                self._count("serve.shed.stale")
                self.stale_events += len(batch.events)
                self.admission.shed_stale(len(batch.events))
                self.breakers[name].record_shed()
            if fresh:
                events: List[BranchEvent] = []
                for batch in fresh:
                    events.extend(batch.events)
                traces[name] = tuple(events)
                consumed.extend(fresh)
        total_events = sum(len(events) for events in traces.values())
        if traces:
            start_s = time.perf_counter()
            try:
                records = self.manager.run_events(traces)
            except Exception as error:  # the gate the soak pins to zero
                self.drain_errors.append(f"{type(error).__name__}: {error}")
                raise
            elapsed_s = time.perf_counter() - start_s
            done_ns = self.clock_ns()
            self.last_records = dict(records)
            for batch in consumed:
                latency = max(0, done_ns - batch.admit_ns)
                self._m_latency.observe(float(latency))
                if len(self.latencies_ns) < self._latency_cap:
                    self.latencies_ns.append(latency)
            # The serving rate admission predicts with is end-to-end
            # (inter-drain gap includes the loop's idle interval), not
            # just the dataplane's burst speed; the cap keeps one long
            # idle gap from cratering the estimate.
            if self._last_drain_done_ns is not None:
                gap_s = (done_ns - self._last_drain_done_ns) / 1e9
                elapsed_s = min(max(elapsed_s, gap_s), 0.25)
            self._last_drain_done_ns = done_ns
            self.admission.drained(total_events, elapsed_s)
            self._count("serve.rounds")
            self._count("serve.round.events", total_events)
            self._count(
                "serve.verdicts",
                sum(len(record) for record in records.values()),
            )
        health = self.manager.health()
        trips = recoveries = 0
        for name, breaker in self.breakers.items():
            before = (breaker.trips, breaker.recoveries)
            breaker.observe_round(health[name])
            trips += breaker.trips - before[0]
            recoveries += breaker.recoveries - before[1]
        if trips:
            self._count("serve.breaker.trips", trips)
        if recoveries:
            self._count("serve.breaker.recoveries", recoveries)
        # Round boundary: if the fleet migrated tenants during this
        # round's run_events (or a supervision sweep), adopt the new
        # placement in one swap before the next frame is admitted.
        self._sync_routes()
        self._m_queue.set(self.admission.queued_events)
        return total_events

    def drain_all(self, max_rounds: int = 1_000_000) -> int:
        """Drain until every window is empty; returns rounds run."""
        rounds = 0
        while any(not window.empty for window in self.windows.values()):
            if rounds >= max_rounds:
                raise ServeError("drain_all exceeded max_rounds")
            self.drain_once()
            rounds += 1
        return rounds
