"""The benchmark's three workloads.

Each workload builds the system through its public API, feeds it
inputs generated from the workload seed, checks the outputs, and
returns its metrics.  Why each one exists:

- ``fleet-rounds``: closed loop, one caller, 8 LSTM tenants x 1500
  events per round through a 2-shard :class:`FleetCoordinator` (shm
  transport, calibrated mode).  After the first round's calibration
  calibrated mode dispatches nothing to the GPU model, so round time is
  the event carrier, the write-ahead journal, the transport and the
  dataplane.
- ``solo-exact``: closed loop, the same rounds through one in-process
  :class:`SocManager` in exact mode (every inference dispatches on the
  ML-MIAOW model, batched up to 8).  No fleet, no journal: GPU dispatch
  dominates, so an engine change shows here and not on fleet-rounds.
- ``serve-open``: open loop, an :class:`IngestServer` in front of a
  2-shard fleet, one connection streaming raw CoreSight bytes and one
  streaming EVENTS frames at fixed rates.  Many small rounds, the
  server-side trace decoder, and admission/window queueing.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import harness
import tracing

#: The workloads checked against per-round verdict digests.
BATCH_WORKLOADS = ("fleet-rounds", "solo-exact")
#: Distinct rounds in the batch pool; warm-up and every timed phase
#: cover whole passes over it.
POOL_ROUNDS = 16
#: Shards behind the fleet workloads (the host has 2 cores).
SHARDS = 2
#: Exact-mode cross-tenant batch limit for solo-exact.
SOLO_BATCH_LIMIT = 8

#: serve-open: events per frame, frames per connection in the pool.
FRAME_EVENTS = 250
FRAME_POOL = 240
#: Offered rate (events/s, both connections together) at which the
#: ingest-to-verdict latency is reported: well below the knee even
#: when the host runs slow, so it measures latency, not queueing.
REFERENCE_EPS = 12_000
#: Fixed offered rates swept, in ascending order after the reference
#: rate, for max_rate_eps; the sweep stops at the first rate that fails.
SWEEP_EPS = tuple(int(25_000 * 1.25**step) for step in range(9))
#: Share of the measured seconds each sweep rate runs for.
STEP_SHARE = 0.1
#: Ingest-to-verdict limit on the tail percentile for a rate to count.
LIMIT_MS = 50.0
#: Share of the measured seconds spent at the reference rate.
REFERENCE_SHARE = 0.6
#: Blocks of frames (and of rounds) each serve tail is the median over.
TAIL_BLOCKS = 3
#: Warm-up traffic before the first measured frame.
SERVE_WARMUP_S = 1.0
#: Offered-vs-verdicted backlog growth that disqualifies a rate,
#: in seconds' worth of its offered load.
BACKLOG_GROWTH_S = 0.05


class Result:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
        self.setup_s = 0.0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def problem(self, message: str) -> None:
        self.problems.append(message)
        self.failed += 1
        self.attempted += 1


# ---------------------------------------------------------------------------
# Batch workloads (fleet-rounds, solo-exact)
# ---------------------------------------------------------------------------


class _BatchSystem:
    """A fleet or a solo manager behind one ``run_events`` surface."""

    def __init__(self, workload: str, run_dir: str, generation: int,
                 engine_metrics=None) -> None:
        self.fleet = None
        self.manager = None
        self.wal_dir = None
        if workload == "fleet-rounds":
            from repro.fleet import FleetConfig, FleetCoordinator, demo_factory

            self.wal_dir = os.path.join(run_dir, f"wal-{generation}")
            self.fleet = FleetCoordinator(
                demo_factory,
                harness.tenant_names(),
                self.wal_dir,
                FleetConfig(num_shards=SHARDS),
            )
            self.run_events = self.fleet.run_events
        else:
            from repro.eval.metrics import build_demo_manager

            self.manager = build_demo_manager(
                num_tenants=harness.TENANTS,
                seed=harness.MODEL_SEED,
                execute_on_gpu=True,
                batch_limit=SOLO_BATCH_LIMIT,
            )
            self.run_events = self.manager.run_events
            self.engine_metrics = engine_metrics
            if engine_metrics is not None:
                # Only the shared engine's counters: a manager-wide
                # registry would also instrument every pipeline stage.
                gpu = self.manager.tenants[0].deployment.driver.gpu
                gpu.bind_metrics(engine_metrics)

    def worker_pids(self) -> List[int]:
        return _worker_pids(self.fleet) if self.fleet is not None else []

    def counters(self) -> Dict[str, int]:
        if self.fleet is not None:
            return _fleet_counters(self.fleet)
        return dict(self.engine_metrics.snapshot()["counters"])

    def wal_bytes(self) -> int:
        return _dir_bytes(self.wal_dir) if self.wal_dir else 0

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()


def _worker_pids(fleet) -> List[int]:
    return [int(row["pid"]) for row in fleet.liveness() if row["pid"]]


def _fleet_counters(fleet) -> Dict[str, int]:
    merged = dict(fleet.counters())
    merged.update(fleet.transport_stats())
    return merged


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def reference_digests(workload: str, pool) -> List[str]:
    """Verdict digests of each pool round from an independent path.

    fleet-rounds is checked against in-process calibrated managers, one
    per shard holding the tenants the fleet places there (round-robin)
    around its own engine: engine contention shapes the modeled FIFO
    and so the verdicts, so the reference must share the topology.
    solo-exact is checked against an unbatched exact-mode manager
    (batching must not change a verdict).
    """
    if workload == "solo-exact":
        from repro.eval.metrics import build_demo_manager

        reference = build_demo_manager(
            num_tenants=harness.TENANTS,
            seed=harness.MODEL_SEED,
            execute_on_gpu=True,
            batch_limit=1,
        )
        return [harness.digest(reference.run_events(t)) for t in pool]
    from repro.fleet import demo_factory
    from repro.soc.manager import SocManager

    names = harness.tenant_names()
    shards = [
        (names[shard::SHARDS], SocManager(demo_factory(names[shard::SHARDS])))
        for shard in range(SHARDS)
    ]
    digests = []
    for traces in pool:
        records = {}
        for shard_names, manager in shards:
            records.update(
                manager.run_events({name: traces[name] for name in shard_names})
            )
        digests.append(harness.digest(records))
    return digests


def _passes(run_events: Callable, pool, seconds: float):
    """Whole passes over ``pool`` until ``seconds`` have elapsed."""
    durations: List[float] = []
    outputs: List[Tuple[int, Optional[str], Optional[str]]] = []
    events = 0
    started = time.perf_counter()
    while True:
        for index, traces in enumerate(pool):
            begin = time.perf_counter_ns()
            try:
                records = run_events(traces)
                error = None
            except Exception as exc:  # a failed round is a result
                records = None
                error = f"{type(exc).__name__}: {exc}"
            durations.append((time.perf_counter_ns() - begin) / 1e6)
            events += sum(len(trace) for trace in traces.values())
            outputs.append(
                (index, None if records is None else harness.digest(records),
                 error)
            )
        if time.perf_counter() - started >= seconds:
            break
    return durations, outputs, events, time.perf_counter() - started


def _expected_digests(result: Result, workload: str, seed: int,
                      pool) -> Dict[str, List[str]]:
    """What each pool round's verdict digest must equal: the digests
    recorded for this seed, when it is recorded, and those of the live
    reference path, which also covers seeds that are not recorded."""
    expected = {"live reference": reference_digests(workload, pool)}
    recorded = harness.recorded_digests(workload, seed)
    if recorded is None:
        result.notes.append(
            f"seed {seed} has no recorded digests: checked against the"
            " live reference only"
        )
    else:
        expected["recorded digest"] = recorded
        result.notes.append(
            f"verdicts checked against the recorded digests of seed {seed}"
            " and the live reference"
        )
    return expected


def _check_rounds(result: Result, outputs,
                  expected: Dict[str, Sequence[str]]) -> None:
    """Fail each round that raised or whose verdict digest differs from
    any of the ``expected`` digests of its pool round."""
    for index, got, error in outputs:
        result.attempted += 1
        differs = [
            source for source, digests in expected.items()
            if got != digests[index]
        ]
        if error is None and not differs:
            continue
        result.failed += 1
        if len(result.problems) < 5:
            result.problems.append(
                f"pool round {index}: "
                + (error or "verdict digest differs from the "
                   + " and the ".join(differs))
            )


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              started: float, run_dir: str,
              setup_only: bool = False) -> Result:
    result = Result()
    harness.train_model()
    # The fleet forks before the inputs exist, so its workers do not
    # inherit (and count in their RSS) the benchmark's round pool.
    system = _BatchSystem(workload, run_dir, 0)
    try:
        generating = time.perf_counter()
        pool = harness.round_pool(seed, POOL_ROUNDS)
        generation_s = time.perf_counter() - generating
        _passes(system.run_events, pool, 0.0)  # warm-up: one whole pass
        result.setup_s = time.perf_counter() - started - generation_s
        if setup_only:
            return result
        phase_s = seconds / 2 if trace else seconds
        durations, outputs, events, wall = _passes(
            system.run_events, pool, phase_s
        )
        rss = harness.peak_rss_mb(system.worker_pids())
        if system.fleet is not None:
            counters = system.counters()
            for violation in harness.conservation(counters):
                result.problem(violation)
    finally:
        system.close()
    expected = _expected_digests(result, workload, seed, pool)
    _check_rounds(result, outputs, expected)
    if not trace:
        p50 = harness.median(durations)
        tail, pct = harness.tail(durations)
        eps = events / wall
        result.put("events_per_s", eps, "1/s")
        result.put("round_ms.p50", p50, "ms")
        result.put("round_ms.tail", tail, "ms")
        # Closed loop: a round's events get their verdicts when the
        # round returns.
        result.put("i2v_ms.p50", p50, "ms")
        result.put("i2v_ms.tail", tail, "ms")
        # Closed loop: the rate it sustains is the rate it ran at.
        result.put("max_rate_eps", eps, "1/s")
        result.put("peak_rss_mb", rss, "MB")
        result.notes.append(
            f"round_ms.tail is p{pct:.1f} of {len(durations)} rounds"
            f" ({len(durations) // len(pool)} passes of {len(pool)})"
        )
        return result
    _traced_batch(result, workload, pool, phase_s, run_dir, durations, expected)
    return result


def _traced_batch(result: Result, workload: str, pool, seconds: float,
                  run_dir: str, untraced_ms: List[float], expected) -> None:
    from repro.obs import MetricsRegistry

    tracer = tracing.Tracer()
    span_dir = os.path.join(run_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    patches = tracing.install(tracer, span_dir)
    try:
        tracer.enabled = True
        system = _BatchSystem(
            workload, run_dir, 1, engine_metrics=MetricsRegistry()
        )
        try:
            _passes(system.run_events, pool, 0.0)
            tracer.clear()
            before = system.counters()
            wal_before = system.wal_bytes()
            durations, outputs, events, wall = _passes(
                tracer.wrap("round", system.run_events), pool, seconds
            )
            tracer.enabled = False
            after = system.counters()
            wal_after = system.wal_bytes()
            if system.fleet is not None:
                for violation in harness.conservation(after):
                    result.problem(violation)
        finally:
            system.close()
    finally:
        tracer.enabled = False
        patches.undo()
    _check_rounds(result, outputs, expected)
    _layer_report(result, tracer, span_dir, _spans_path(run_dir, workload),
                  before, after, events, wal_after - wal_before,
                  untraced_ms, durations)
    for name, unit in SERVE_LAYER_METRICS.items():
        result.put(name, 0.0, unit)


# ---------------------------------------------------------------------------
# Per-layer reporting shared by every workload
# ---------------------------------------------------------------------------

#: Span name -> per-layer metric (self time per round, ms).
LAYER_SPANS = {
    "pipeline.from_events": "pipeline.from_events.ms",
    "pipeline.stage.PtmEncodeStage": "pipeline.stage.PtmEncodeStage.ms",
    "pipeline.stage.TpiuFrameStage": "pipeline.stage.TpiuFrameStage.ms",
    "pipeline.stage.PtmFifoStage": "pipeline.stage.PtmFifoStage.ms",
    "pipeline.stage.IgmStage": "pipeline.stage.IgmStage.ms",
    "pipeline.stage.DeliverStage": "pipeline.stage.DeliverStage.ms",
    "durability.encode_trace_chunk": "durability.encode_trace_chunk.ms",
    "durability.decode_trace_chunk": "durability.decode_trace_chunk.ms",
    "durability.journal.append": "durability.journal.append.ms",
    "fleet.encode_round": "fleet.encode_round.ms",
    "fleet.decode_round": "fleet.decode_round.ms",
    "fleet.transport.stage": "fleet.transport.stage.ms",
    "fleet.transport.fetch_reply": "fleet.transport.fetch_reply.ms",
    "fleet.transport.worker": "fleet.transport.worker.ms",
    tracing.WORKER_ROUND: "fleet.worker.run_events.ms",
    "fleet.run_events": "fleet.wait.ms",
    "soc.run_trace": "soc.run_trace.ms",
    "soc.run_events": "soc.run_events.self_ms",
    "mcm.arbiter.push": "mcm.arbiter.push.ms",
    "mcm.arbiter.finalize": "mcm.arbiter.finalize.self_ms",
    "mcm.driver.infer": "mcm.driver.infer.ms",
    "miaow.dispatch": "miaow.dispatch.ms",
    "miaow.dispatch_batch": "miaow.dispatch_batch.ms",
    "serve.decode": "serve.decode.ms",
    "serve.drain": "serve.drain.ms",
}

#: serve-only per-layer metrics and their units (0 on batch workloads).
SERVE_LAYER_METRICS = {
    "serve.window.wait_ms.p50": "ms",
    "serve.drain.busy_frac": "frac",
    "serve.events_per_round": "count",
    "serve.shed_frac": "frac",
    "serve.gen_lag_ms.p95": "ms",
    "frontends.decode.ns_per_event": "ns/event",
}


def _layer_report(result: Result, tracer: tracing.Tracer, span_dir: str,
                  spans_path: str, before, after, events: int,
                  wal_bytes: int, untraced_ms, traced_ms) -> dict:
    """Per-layer metrics every workload reports, from the spans and
    the counter snapshots taken around the traced phase; the spans
    themselves are kept in ``spans_path``."""
    workers = tracing.load_worker_spans(span_dir)
    tracing.save_run(spans_path, tracer, workers)
    result.notes.append(f"spans written to {os.path.relpath(spans_path)}")
    analysis = tracing.analyse(tracer, workers)
    layer = analysis["layer_ms"]
    counts = analysis["counts"]
    span_counts = analysis["span_counts"]
    rounds = max(1, analysis["rounds"])
    for span_name, metric in LAYER_SPANS.items():
        result.put(metric, layer.get(span_name, 0.0), "ms")
    inferences = counts.get("mcm.inferences.single", 0) + counts.get(
        "mcm.inferences.batched", 0
    )
    pushed = span_counts.get("mcm.arbiter.push", 0)
    result.put("pipeline.vectors", pushed / rounds, "count")
    result.put(
        "durability.journal.bytes_per_event",
        wal_bytes / max(1, events),
        "bytes/event",
    )
    result.put(
        "fleet.transport.bytes_per_round",
        harness.delta(after, before, "fleet.transport.bytes.staged") / rounds,
        "bytes",
    )
    payloads = sum(
        1
        for name, _, _, parent, _ in tracer.spans
        if name == "durability.encode_trace_chunk"
        and parent >= 0
        and tracer.spans[parent][0] == "fleet.encode_round"
    )
    result.put(
        "fleet.transport.inline_frac",
        harness.delta(after, before, "fleet.transport.payloads.inline")
        / max(1, payloads),
        "frac",
    )
    result.put(
        "fleet.restarts", harness.delta(after, before, "fleet.restarts"),
        "count",
    )
    result.put(
        "mcm.batch.fused_frac",
        counts.get("mcm.inferences.batched", 0) / max(1, inferences),
        "frac",
    )
    result.put(
        "mcm.dropped_vectors", max(0, pushed - inferences) / rounds, "count"
    )
    result.put(
        "miaow.dispatches",
        (span_counts.get("miaow.dispatch", 0)
         + span_counts.get("miaow.dispatch_batch", 0)) / rounds,
        "count",
    )
    result.put(
        "miaow.batch.replayed_frac",
        harness.delta(after, before, "miaow.batch.fallback.replayed")
        / max(1, harness.delta(after, before, "miaow.batch.requests")),
        "frac",
    )
    result.put(
        "miaow.compile.misses",
        harness.delta(after, before, "miaow.compile.misses"),
        "count",
    )
    result.put(
        "miaow.lds.gather_calls_per_inference",
        counts.get("miaow.lds.gather_calls", 0) / max(1, inferences),
        "calls/inference",
    )
    result.put("trace.attributed_frac", analysis["attributed_frac"], "frac")
    result.put("trace.unattributed_ms", analysis["unattributed_ms"], "ms")
    base = harness.median(untraced_ms)
    result.put(
        "trace.overhead_frac",
        harness.median(traced_ms) / base - 1.0 if base else 0.0,
        "frac",
    )
    result.put(
        "failed_frac", result.failed / max(1, result.attempted), "frac"
    )
    _print_waterfall(result, analysis)
    return analysis


def _spans_path(run_dir: str, workload: str) -> str:
    """Where a traced run's spans stay after its run directory goes."""
    return os.path.join(os.path.dirname(run_dir), f"spans-{workload}.json")


def _print_waterfall(result: Result, analysis: dict) -> None:
    layer = analysis["layer_ms"]
    wall = analysis["wall_ms"]
    result.notes.append(
        f"per-layer self time per round over {analysis['rounds']} traced"
        f" rounds (round wall {wall:.3f} ms; worker layers are summed"
        " over shards running in parallel):"
    )
    for name, ms in sorted(layer.items(), key=lambda item: -item[1]):
        label = LAYER_SPANS.get(name, name)
        if name == "round":
            label = "benchmark call overhead"
        result.notes.append(
            f"  {label:<42} {ms:9.3f} ms  {100 * ms / wall if wall else 0:6.1f}%"
        )
    result.notes.append(
        f"  {'unattributed (no traced layer running)':<42}"
        f" {analysis['unattributed_ms']:9.3f} ms"
        f"  {100 * (1 - analysis['attributed_frac']):6.1f}%"
    )


# ---------------------------------------------------------------------------
# serve-open
# ---------------------------------------------------------------------------


class _RoundClock:
    """The fleet as the server sees it, each round timed from outside."""

    def __init__(self, fleet) -> None:
        self._fleet = fleet
        #: The server's admit-to-verdict samples (set once it exists).
        self.latencies: List[int] = []
        #: (call_ns, return_ns, {tenant: events}, latency samples before)
        self.rounds: List[Tuple[int, int, Dict[str, int], int]] = []

    def run_events(self, traces):
        before = len(self.latencies)
        call_ns = time.monotonic_ns()
        records = self._fleet.run_events(traces)
        self.rounds.append(
            (
                call_ns,
                time.monotonic_ns(),
                {name: len(events) for name, events in traces.items()},
                before,
            )
        )
        return records

    def __getattr__(self, name):
        return getattr(self._fleet, name)


class _Connection:
    """One client connection sending frames on a fixed schedule."""

    def __init__(self, server, tenant: str, mode: str, frames) -> None:
        self.tenant = tenant
        self.mode = mode
        self.frames = frames
        self.reader, self.writer = server.local_connection()
        #: (due_ns, sent_ns) per data frame.
        self.sent: List[Tuple[int, int]] = []
        #: (frame type, accepted events, received_ns) per reply; the
        #: first one answers HELLO.
        self.replies: List[Tuple[int, int, int]] = []
        self._cursor = 0
        self._reading = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        from repro.serve import protocol

        decoder = protocol.FrameDecoder()
        while True:
            data = await self.reader.read(1 << 16)
            if not data:
                return
            now = time.monotonic_ns()
            for frame in decoder.feed(data):
                accepted = 0
                if frame.type == protocol.FrameType.ACK:
                    accepted = int(
                        protocol.decode_json(frame.payload)["accepted_events"]
                    )
                self.replies.append((frame.type, accepted, now))

    async def hello(self) -> None:
        from repro.serve import protocol

        self.writer.write(protocol.hello_frame(self.tenant, self.mode))
        while not self.replies:
            await asyncio.sleep(0.001)
        if self.replies[0][0] != protocol.FrameType.ACK:
            raise RuntimeError(f"HELLO refused for {self.tenant}")

    @property
    def answered(self) -> bool:
        return len(self.replies) - 1 == len(self.sent)

    async def send(self, rate_eps: float, duration_s: float, start_ns: int,
                   shift: float) -> None:
        """Evenly spaced frames at ``rate_eps`` over ``duration_s``,
        the first ``shift`` of a period after ``start_ns``; each frame
        is sent when due whatever the replies.

        A fixed spacing makes every run offer the same load: with
        random (Poisson) arrivals, how often frames clump decided the
        latency tail and moved it more between seeds than the system
        does.
        """
        count = max(1, round(duration_s * rate_eps / FRAME_EVENTS))
        period_s = FRAME_EVENTS / rate_eps
        for index in range(count):
            due = start_ns + int((index + shift) * period_s * 1e9)
            delay = due - time.monotonic_ns()
            if delay > 0:
                await asyncio.sleep(delay / 1e9)
            self.writer.write(self.frames[self._cursor % len(self.frames)])
            self._cursor += 1
            self.sent.append((due, time.monotonic_ns()))
            await self.writer.drain()

    def close(self) -> None:
        self.writer.close()


def _serve_frames(seed: int, tenant: str, raw: bool) -> List[bytes]:
    """One tenant's frame pool: the same walk for every seed (as with
    the batch pool), cut into frames the seed puts in order."""
    from repro.eval.metrics import demo_events
    from repro.frontends import get_frontend
    from repro.serve import protocol

    events = demo_events(
        "lstm",
        harness.MODEL_SEED,
        FRAME_POOL * FRAME_EVENTS,
        run_label=f"perfbench-serve-{tenant}",
    )
    chunks = [
        events[start : start + FRAME_EVENTS]
        for start in range(0, len(events), FRAME_EVENTS)
    ]
    random.Random(f"{seed}-{tenant}").shuffle(chunks)
    if not raw:
        return [
            protocol.events_frame(chunk, sequence=index)
            for index, chunk in enumerate(chunks)
        ]
    driver = get_frontend("coresight").create_driver()
    driver.enable()
    return [protocol.raw_frame(driver.trace_all(chunk)) for chunk in chunks]


class _Phase:
    """One fixed-rate stretch of traffic and what it measured."""

    def __init__(self, rate_eps: float) -> None:
        self.rate_eps = rate_eps
        #: (due_ns, ingest-to-verdict ms) per verdicted frame.
        self.latencies: List[Tuple[int, float]] = []
        self.lags_ms: List[float] = []
        self.frames = 0
        self.failed = 0
        self.shed = 0
        self.events = 0
        self.raw_events = 0
        self.round_ms: List[float] = []
        self.wait_ms: List[float] = []
        self.busy_ns = 0
        self.span_ns = 1
        #: From the phase's call to its last frame's due time: the
        #: generator's schedule, not the program's time.
        self.schedule_ns = 0
        self.backlog_growth = 0.0

    @property
    def latencies_ms(self) -> List[float]:
        return [latency for _, latency in self.latencies]

    @property
    def tail(self) -> Tuple[float, float]:
        """Block tail of the latencies, frames in the order they were
        due."""
        ordered = [latency for _, latency in sorted(self.latencies)]
        return harness.block_tail(ordered, TAIL_BLOCKS)

    @property
    def verdict_eps(self) -> float:
        """Verdicted events per second of the phase's wall time: at an
        offered rate the system sustains, that rate."""
        return self.events / (self.span_ns / 1e9)

    @property
    def busy_eps(self) -> float:
        """Verdicted events per second the fleet spent in drain rounds."""
        return self.events / (max(1, self.busy_ns) / 1e9)

    @property
    def passed(self) -> bool:
        return (
            self.failed == 0
            and self.tail[0] <= LIMIT_MS
            and self.backlog_growth <= self.rate_eps * BACKLOG_GROWTH_S
        )


class _ServeSystem:
    """Fleet + IngestServer + two open-loop connections."""

    def __init__(self, run_dir: str, generation: int,
                 tenants: Sequence[str]) -> None:
        """Build the fleet; ``start`` puts the server and clients in
        front of it.  tenants[0] streams RAW bytes, tenants[1] EVENTS."""
        from repro.fleet import FleetConfig, FleetCoordinator, demo_factory
        from repro.serve import IngestServer

        self.wal_dir = os.path.join(run_dir, f"wal-{generation}")
        self.fleet = FleetCoordinator(
            demo_factory,
            list(tenants),
            self.wal_dir,
            FleetConfig(num_shards=SHARDS),
        )
        self.clock = _RoundClock(self.fleet)
        self.server = IngestServer(self.clock)
        self.clock.latencies = self.server.latencies_ns
        self.raw_tenant, self.events_tenant = tenants
        self.connections: List[_Connection] = []

    def counters(self) -> Dict[str, int]:
        merged = _fleet_counters(self.fleet)
        merged.update(
            (name, value)
            for name, value in self.server.stats().items()
            if isinstance(value, int)
        )
        return merged

    async def start(self, frames: Dict[str, List[bytes]]) -> None:
        from repro.serve import protocol

        await self.server.start()
        self.connections = [
            _Connection(self.server, self.raw_tenant, protocol.MODE_RAW,
                        frames[self.raw_tenant]),
            _Connection(self.server, self.events_tenant, protocol.MODE_EVENTS,
                        frames[self.events_tenant]),
        ]
        for connection in self.connections:
            await connection.hello()

    async def phase(self, rate_eps: float, duration_s: float) -> _Phase:
        from repro.serve import protocol

        result = _Phase(rate_eps)
        marks = [len(connection.sent) for connection in self.connections]
        first_round = len(self.clock.rounds)
        samples: List[Tuple[int, int]] = []
        called_ns = time.monotonic_ns()
        start_ns = called_ns + 2_000_000
        # The connections take turns: together they send evenly spaced.
        sending = asyncio.gather(
            *(
                connection.send(
                    rate_eps / len(self.connections),
                    duration_s,
                    start_ns,
                    index / len(self.connections),
                )
                for index, connection in enumerate(self.connections)
            )
        )
        while not sending.done():
            samples.append(
                (time.monotonic_ns(), self.server.admission.queued_events)
            )
            await asyncio.sleep(0.02)
        await sending
        result.schedule_ns = max(
            connection.sent[-1][0] for connection in self.connections
        ) - called_ns
        settle_until = time.monotonic() + 10.0
        while time.monotonic() < settle_until and not (
            all(connection.answered for connection in self.connections)
            and self.server.admission.queued_events == 0
        ):
            await asyncio.sleep(0.002)
        rounds = self.clock.rounds
        # Growth of the queue between the first and last third of the
        # sending window: a backlog the server is not catching up on.
        third = max(1, len(samples) // 3)
        result.backlog_growth = harness.median(
            [depth for _, depth in samples[-third:]]
        ) - harness.median([depth for _, depth in samples[:third]])
        last_done = start_ns
        for connection, mark in zip(self.connections, marks):
            drained: List[Tuple[int, int]] = []
            total = 0
            for _, return_ns, per_tenant, _ in rounds:
                total += per_tenant.get(connection.tenant, 0)
                drained.append((total, return_ns))
            totals = [value for value, _ in drained]
            admitted = 0
            for index, (due_ns, sent_ns) in enumerate(connection.sent):
                reply = (
                    connection.replies[index + 1]
                    if index + 1 < len(connection.replies)
                    else None
                )
                if reply is not None and reply[0] == protocol.FrameType.ACK:
                    admitted += reply[1]
                if index < mark:
                    continue
                result.frames += 1
                result.lags_ms.append((sent_ns - due_ns) / 1e6)
                if reply is None or reply[0] != protocol.FrameType.ACK:
                    result.failed += 1
                    if reply is not None and reply[0] == protocol.FrameType.SHED:
                        result.shed += 1
                    continue
                if reply[1] == 0:
                    done_ns = reply[2]
                else:
                    position = _first_at_least(totals, admitted)
                    if position is None:
                        result.failed += 1
                        continue
                    done_ns = drained[position][1]
                    result.events += reply[1]
                    if connection.tenant == self.raw_tenant:
                        result.raw_events += reply[1]
                last_done = max(last_done, done_ns)
                result.latencies.append((due_ns, (done_ns - due_ns) / 1e6))
        latencies = self.server.latencies_ns
        for position in range(first_round, len(rounds)):
            call_ns, return_ns, _, begin = rounds[position]
            end = (
                rounds[position + 1][3]
                if position + 1 < len(rounds)
                else len(latencies)
            )
            duration = return_ns - call_ns
            result.round_ms.append(duration / 1e6)
            result.busy_ns += duration
            result.wait_ms.extend(
                (latency - duration) / 1e6 for latency in latencies[begin:end]
            )
        result.span_ns = max(1, last_done - start_ns)
        return result

    async def close(self, result: Result) -> float:
        """Stop clients and server, check conservation; peak RSS (MB)."""
        from repro.serve import protocol

        for connection in self.connections:
            if not connection.answered:
                result.problem(
                    f"{connection.tenant}: {len(connection.sent)} frames"
                    f" sent, {len(connection.replies) - 1} answered"
                )
            errors = sum(
                1
                for reply in connection.replies
                if reply[0] == protocol.FrameType.ERR
            )
            if errors:
                result.problem(f"{connection.tenant}: {errors} ERR replies")
            connection.close()
        await asyncio.sleep(0.05)
        await self.server.stop()
        for connection in self.connections:
            connection._reading.cancel()
        stats = self.server.stats()
        admitted = stats["serve.admitted.events"]
        drained = stats["serve.round.events"]
        if admitted != drained + self.server.stale_events:
            result.problem(
                f"serve: admitted {admitted} != drained {drained}"
                f" + stale {self.server.stale_events}"
            )
        if self.server.drain_errors:
            result.problem(f"serve: drain errors {self.server.drain_errors}")
        rss = harness.peak_rss_mb(_worker_pids(self.fleet))
        counters = _fleet_counters(self.fleet)
        for violation in harness.conservation(counters):
            result.problem(violation)
        self.fleet.close()
        return rss


def _first_at_least(values: Sequence[int], target: int) -> Optional[int]:
    import bisect

    position = bisect.bisect_left(values, target)
    return position if position < len(values) else None


def _max_rate(sweep: Sequence[_Phase]) -> float:
    """Highest offered rate meeting the limit, over ascending ``sweep``.

    Between the last passing rate and the first failing one, when that
    one failed on latency alone, the rate where the tail crosses the
    limit is interpolated on log latency (queueing delay grows about
    exponentially towards the knee), so the figure moves smoothly with
    the knee instead of jumping a whole step.
    """
    best_rate, best_tail = 0.0, 0.0
    for step in sweep:
        tail = step.tail[0]
        if step.passed:
            best_rate, best_tail = step.rate_eps, tail
            continue
        if step.failed == 0 and best_tail > 0 and tail > LIMIT_MS:
            share = math.log(LIMIT_MS / best_tail) / math.log(tail / best_tail)
            best_rate += (step.rate_eps - best_rate) * share
        break
    return best_rate


def _count_phase(result: Result, phase: _Phase) -> None:
    result.attempted += phase.frames
    result.failed += phase.failed


def run_serve(seed: int, seconds: float, trace: bool, started: float,
              run_dir: str, setup_only: bool = False) -> Result:
    return asyncio.run(
        _serve(seed, seconds, trace, started, run_dir, setup_only)
    )


def _frames(seed: int) -> Dict[str, List[bytes]]:
    raw_tenant, events_tenant = harness.tenant_names(2)
    return {
        raw_tenant: _serve_frames(seed, raw_tenant, raw=True),
        events_tenant: _serve_frames(seed, events_tenant, raw=False),
    }


def _pin_to_one_cpu() -> int:
    """Keep this process, and the fleet workers it forks, on one CPU.

    At the reference rate the whole serving system keeps under a fifth
    of one CPU busy, and each small round hands off between the front
    door and the workers several times; spread over two CPUs, each
    hand-off waits for an idle CPU to wake, which on a shared host made
    the round times about twice as noisy from run to run.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


async def _serve(seed, seconds, trace, started, run_dir, setup_only):
    result = Result()
    result.notes.append(f"serve-open runs on CPU {_pin_to_one_cpu()} only")
    harness.train_model()
    # The fleet forks before the inputs exist (see run_batch).
    system = _ServeSystem(run_dir, 0, harness.tenant_names(2))
    try:
        generating = time.perf_counter()
        frames = _frames(seed)
        generation_s = time.perf_counter() - generating
        await system.start(frames)
        warmup = await system.phase(REFERENCE_EPS, SERVE_WARMUP_S)
        # The warm-up's schedule is the generator's time; its tail
        # (the last frames' verdicts) is the program's.
        result.setup_s = (
            time.perf_counter() - started - generation_s
            - warmup.schedule_ns / 1e9
        )
        if setup_only:
            return result
        reference_s = seconds / 2 if trace else seconds * REFERENCE_SHARE
        reference = await system.phase(REFERENCE_EPS, reference_s)
        _count_phase(result, reference)
        # The reference rate is the sweep's first point.
        sweep = [reference]
        for rate in () if trace else SWEEP_EPS:
            if not sweep[-1].passed:
                break
            sweep.append(await system.phase(rate, seconds * STEP_SHARE))
    finally:
        rss = await system.close(result)
    if trace:
        await _traced_serve(
            result, seed, seconds / 2, run_dir, frames, reference
        )
        return result
    tail, pct = reference.tail
    round_tail, round_pct = harness.block_tail(reference.round_ms, TAIL_BLOCKS)
    result.put("i2v_ms.p50", harness.median(reference.latencies_ms), "ms")
    result.put("i2v_ms.tail", tail, "ms")
    result.put("events_per_s", reference.busy_eps, "1/s")
    result.put("round_ms.p50", harness.median(reference.round_ms), "ms")
    result.put("round_ms.tail", round_tail, "ms")
    result.put("peak_rss_mb", rss, "MB")
    result.put("max_rate_eps", _max_rate(sweep), "1/s")
    result.notes.append(
        f"reference rate {REFERENCE_EPS} events/s: i2v_ms.tail is the"
        f" median of {TAIL_BLOCKS} blocks' p{pct:.1f} over"
        f" {len(reference.latencies)} frames;"
        f" round_ms.tail likewise of {TAIL_BLOCKS} blocks' p{round_pct:.1f}"
        f" over {len(reference.round_ms)} rounds; generator lag p95"
        f" {harness.percentile(reference.lags_ms, 0.95):.2f} ms;"
        f" events_per_s is per second of drain rounds, busy"
        f" {reference.busy_ns / reference.span_ns:.1%} of the phase"
    )
    for step in sweep[1:]:
        step_tail, step_pct = step.tail
        result.notes.append(
            f"rate {step.rate_eps:>6} events/s: {step.frames} frames,"
            f" {step.failed} failed, i2v p50"
            f" {harness.median(step.latencies_ms):.2f} ms, p{step_pct:.1f}"
            f" {step_tail:.2f} ms, lag p95"
            f" {harness.percentile(step.lags_ms, 0.95):.2f} ms, backlog"
            f" growth {step.backlog_growth:.0f} events, verdicts"
            f" {step.verdict_eps:.0f}/s -> {'pass' if step.passed else 'fail'}"
        )
    return result


async def _traced_serve(result: Result, seed: int, seconds: float,
                        run_dir: str, frames, untraced: _Phase) -> None:
    tracer = tracing.Tracer()
    span_dir = os.path.join(run_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    patches = tracing.install(tracer, span_dir)
    try:
        tracer.enabled = True
        system = _ServeSystem(run_dir, 1, list(frames))
        try:
            await system.start(frames)
            await system.phase(REFERENCE_EPS, SERVE_WARMUP_S)
            tracer.clear()
            before = system.counters()
            wal_before = _dir_bytes(system.wal_dir)
            phase = await system.phase(REFERENCE_EPS, seconds)
            tracer.enabled = False
            after = system.counters()
            wal_after = _dir_bytes(system.wal_dir)
            _count_phase(result, phase)
        finally:
            await system.close(result)
    finally:
        tracer.enabled = False
        patches.undo()
    analysis = _layer_report(
        result, tracer, span_dir, _spans_path(run_dir, "serve-open"),
        before, after, phase.events,
        wal_after - wal_before, untraced.round_ms, phase.round_ms,
    )
    served_rounds = max(1, harness.delta(after, before, "serve.rounds"))
    result.put(
        "serve.window.wait_ms.p50", harness.median(phase.wait_ms), "ms"
    )
    result.put("serve.drain.busy_frac", phase.busy_ns / phase.span_ns, "frac")
    result.put(
        "serve.events_per_round",
        harness.delta(after, before, "serve.round.events") / served_rounds,
        "count",
    )
    result.put("serve.shed_frac", phase.shed / max(1, phase.frames), "frac")
    result.put(
        "serve.gen_lag_ms.p95", harness.percentile(phase.lags_ms, 0.95), "ms"
    )
    decode_ns = analysis["layer_ms"].get("frontends.decode", 0.0) * 1e6 * max(
        1, analysis["rounds"]
    )
    result.put(
        "frontends.decode.ns_per_event",
        decode_ns / max(1, phase.raw_events),
        "ns/event",
    )
