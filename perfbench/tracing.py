"""Span tracing for the traced benchmark run.

Nothing here lives inside the program: :func:`install` rebinds public
functions and methods of ``repro`` where their callers look them up
(a module attribute for ``from x import f`` call sites, the class
attribute for methods) to wrappers that record spans.  Each span is
``[name, start_ns, end_ns, parent_index, round_id]`` kept in memory;
:meth:`Tracer.dump` writes them out once, at the end.

Round ids: in the benchmark process every span opened with an empty
stack starts a new round id.  A fleet worker cannot see that id, so
its spans carry the *fleet* round index instead (taken from the
``decode_round`` call of each RUN dispatch); :attr:`Tracer.fleet_rounds`
maps fleet round indexes back to benchmark round ids.  Workers are
forked after :func:`install`, so they inherit the wrappers; the
wrapped ``worker_main`` writes each worker's spans to a file when the
worker stops, where :func:`load_worker_spans` picks them up.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span names whose own (self) time is not work of a named layer.
#: ``round`` is the benchmark's call into the system; the coordinator's
#: ``run_events`` self time is time it spends blocked on its workers.
UNATTRIBUTED = frozenset({"round", "fleet.run_events"})

#: Names of spans that open one measured round.
ROOT_NAMES = frozenset({"round", "serve.drain"})

#: Synthetic span: a worker's whole handling of one RUN dispatch.
WORKER_ROUND = "fleet.worker.run_events"


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: (counter name, round id) -> work items.
        self.counts: Dict[Tuple[str, Optional[int]], int] = {}
        self.enabled = False
        self.worker = False
        self.round: Optional[int] = None
        self.fleet_rounds: Dict[int, int] = {}
        self.out_dir: Optional[str] = None
        self._stack: List[int] = []
        self._next_round = 0
        self._unstamped = 0
        self._fleet_calls: Dict[int, int] = {}

    def clear(self) -> None:
        """Drop recorded spans and counts (e.g. after a warm-up pass)."""
        self.spans = []
        self.counts = {}
        self.fleet_rounds = {}
        self._stack = []
        self._unstamped = 0

    def count(self, name: str, amount: int = 1) -> None:
        key = (name, self.round)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        count: Optional[Tuple[str, Callable]] = None,
    ) -> Callable:
        """``fn`` recording a span ``name``.

        ``before(args)`` runs first (round bookkeeping); ``count`` is a
        ``(counter, items)`` pair: ``items(args)`` work items the call
        handles are added to ``counter``.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            stack = tracer._stack
            if not stack and not tracer.worker:
                tracer.round = tracer._next_round
                tracer._next_round += 1
            if count is not None:
                tracer.count(count[0], count[1](args))
            index = len(tracer.spans)
            record = [
                name,
                time.perf_counter_ns(),
                0,
                stack[-1] if stack else -1,
                tracer.round,
            ]
            tracer.spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter_ns()

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls (for calls too hot to span)."""
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- round bookkeeping ------------------------------------------------

    def note_fleet_round(self, args) -> None:
        """Map the fleet's next round index to the open benchmark round."""
        fleet = args[0]
        index = self._fleet_calls.get(id(fleet), 0)
        self._fleet_calls[id(fleet)] = index + 1
        self.fleet_rounds[index] = self.round if self._stack else (
            self._next_round
        )

    def worker_fetch(self, args) -> None:
        """A worker starts a RUN dispatch whose round index is unknown."""
        self.round = None

    def worker_round(self, args) -> None:
        """``decode_round(round_index, ...)``: stamp the dispatch's spans."""
        round_index = int(args[0])
        for record in self.spans[self._unstamped :]:
            if record[4] is None:
                record[4] = round_index
        self._unstamped = len(self.spans)
        self.round = round_index

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "spans": self.spans,
                    "counts": [
                        [name, round_id, amount]
                        for (name, round_id), amount in self.counts.items()
                    ],
                },
                handle,
            )


class Patches:
    """Rebinding of attributes, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Rebind ``owner.attr`` to ``make(function)``.

        Class attributes are read from ``__dict__`` so classmethods and
        staticmethods are wrapped as such and restored exactly.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, out_dir: str) -> Patches:
    """Wrap every traced layer; returns the patches to undo later."""
    import repro.durability.journal as journal
    import repro.fleet.coordinator as coordinator
    import repro.fleet.messages as messages
    import repro.fleet.transport as transport
    import repro.fleet.worker as worker
    import repro.pipeline.stages as stages
    import repro.serve.protocol as protocol
    import repro.serve.server as server
    import repro.soc.manager as manager
    from repro.frontends import get_frontend
    from repro.mcm.arbiter import ArbitratedMcm
    from repro.mcm.driver import MlMiaowDriver
    from repro.miaow.gpu import Gpu
    from repro.miaow.memory import LocalMemory
    from repro.pipeline.batch import EventBatch

    tracer.out_dir = out_dir
    patches = Patches()

    def span(owner, attr: str, name: str, **hooks) -> None:
        patches.replace(
            owner, attr, lambda fn: tracer.wrap(name, fn, **hooks)
        )

    # repro.fleet: coordinator side.
    span(
        coordinator.FleetCoordinator,
        "run_events",
        "fleet.run_events",
        before=tracer.note_fleet_round,
    )
    span(messages, "encode_round", "fleet.encode_round")
    for cls in (
        transport.ShmCoordinatorTransport,
        transport.PipeCoordinatorTransport,
    ):
        span(cls, "stage", "fleet.transport.stage")
        span(cls, "fetch_reply", "fleet.transport.fetch_reply")
    # repro.fleet: worker side (inherited through fork).
    for cls in (transport.ShmWorkerTransport, transport.PipeWorkerTransport):
        span(cls, "fetch", "fleet.transport.worker", before=tracer.worker_fetch)
        span(cls, "stage_reply", "fleet.transport.worker")
    span(
        messages,
        "decode_round",
        "fleet.decode_round",
        before=tracer.worker_round,
    )
    patches.replace(
        worker, "worker_main", lambda fn: _traced_worker_main(tracer, fn)
    )
    # repro.durability: the codec where each caller binds it, and the WAL.
    span(messages, "encode_trace_chunk", "durability.encode_trace_chunk")
    span(manager, "encode_trace_chunk", "durability.encode_trace_chunk")
    span(messages, "decode_trace_chunk", "durability.decode_trace_chunk")
    span(protocol, "decode_trace_chunk", "durability.decode_trace_chunk")
    span(journal.Journal, "append", "durability.journal.append")
    # repro.soc
    span(manager.SocManager, "run_events", "soc.run_events")
    span(manager.TenantRuntime, "run_trace", "soc.run_trace")
    # repro.pipeline
    span(EventBatch, "from_events", "pipeline.from_events")
    for stage in (
        stages.PtmEncodeStage,
        stages.TpiuFrameStage,
        stages.PtmFifoStage,
        stages.IgmStage,
        stages.DeliverStage,
    ):
        span(stage, "process", f"pipeline.stage.{stage.__name__}")
    # repro.mcm
    span(ArbitratedMcm, "push", "mcm.arbiter.push")
    span(ArbitratedMcm, "finalize", "mcm.arbiter.finalize")
    span(
        MlMiaowDriver,
        "run_inference",
        "mcm.driver.infer",
        count=("mcm.inferences.single", lambda args: 1),
    )
    span(
        MlMiaowDriver,
        "run_inference_batch",
        "mcm.driver.infer",
        count=("mcm.inferences.batched", lambda args: len(args[0])),
    )
    # repro.miaow
    span(Gpu, "dispatch", "miaow.dispatch")
    span(Gpu, "dispatch_batch", "miaow.dispatch_batch")
    patches.replace(
        LocalMemory,
        "gather_all_u32",
        lambda fn: tracer.counter("miaow.lds.gather_calls", fn),
    )
    # repro.serve and the frontend receivers it drives.
    span(server.IngestServer, "drain_once", "serve.drain")
    span(protocol, "decode_events_payload", "serve.decode")
    span(server._RawIngest, "feed", "serve.decode")
    coresight = get_frontend("coresight")
    span(type(coresight.new_deframer()), "push", "frontends.decode")
    span(type(coresight.new_decoder()), "feed", "frontends.decode")
    return patches


def _traced_worker_main(tracer: Tracer, worker_main: Callable) -> Callable:
    def traced_worker_main(conn, shard_id, *args, **kwargs):
        # A forked child inherits the parent's spans: start empty.
        tracer.clear()
        tracer.worker = True
        tracer.round = None
        path = os.path.join(
            tracer.out_dir, f"worker-{shard_id}-{os.getpid()}.json"
        )
        return worker_main(
            _StopHandback(conn, lambda: tracer.dump(path)),
            shard_id,
            *args,
            **kwargs,
        )

    traced_worker_main.__wrapped__ = worker_main
    return traced_worker_main


class _StopHandback:
    """A worker's pipe that writes the spans out before answering STOP.

    The coordinator may terminate a worker as soon as STOP is
    answered, so the spans must be on disk by then.
    """

    def __init__(self, conn, on_stop: Callable[[], None]) -> None:
        from repro.fleet import messages

        self._conn = conn
        self._on_stop = on_stop
        self._stop = messages.STOP
        self._stopping = False

    def recv(self):
        request = self._conn.recv()
        self._stopping = request[0] == self._stop
        return request

    def send(self, reply) -> None:
        if self._stopping:
            self._on_stop()
        self._conn.send(reply)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def save_run(path: str, tracer: Tracer, workers: Sequence[dict]) -> None:
    """Write every span of a traced run: this process's and the workers'."""
    with open(path, "w") as handle:
        json.dump(
            {
                "spans": tracer.spans,
                "counts": [
                    [name, round_id, amount]
                    for (name, round_id), amount in tracer.counts.items()
                ],
                "fleet_rounds": tracer.fleet_rounds,
                "workers": list(workers),
            },
            handle,
        )


def load_worker_spans(out_dir: str) -> List[dict]:
    """Span dumps the stopped workers left in ``out_dir``."""
    docs = []
    for path in sorted(pathlib.Path(out_dir).glob("worker-*.json")):
        docs.append(json.loads(path.read_text()))
    return docs


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _self_intervals(spans: Sequence[list]) -> List[List[Tuple[int, int]]]:
    """Per-span [start, end) pieces not covered by a direct child."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        pieces = []
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            if child_start > cursor:
                pieces.append((cursor, child_start))
            cursor = max(cursor, child_end)
        if end > cursor:
            pieces.append((cursor, end))
        out.append(pieces)
    return out


def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi)."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _with_worker_rounds(spans: List[list]) -> List[list]:
    """A worker's spans under one synthetic span per RUN dispatch."""
    bounds: Dict[int, List[int]] = {}
    for _, start, end, parent, round_id in spans:
        if parent < 0 and round_id is not None:
            low_high = bounds.setdefault(round_id, [start, end])
            low_high[0] = min(low_high[0], start)
            low_high[1] = max(low_high[1], end)
    offset = len(spans)
    synthetic = {}
    out = [list(record) for record in spans]
    for position, (round_id, (start, end)) in enumerate(sorted(bounds.items())):
        synthetic[round_id] = offset + position
        out.append([WORKER_ROUND, start, end, -1, round_id])
    for record in out[:offset]:
        if record[3] < 0 and record[4] in synthetic:
            record[3] = synthetic[record[4]]
    return out


def analyse(tracer: Tracer, workers: Sequence[dict] = ()) -> dict:
    """Per-layer self time per round plus the attribution ledger.

    A round is one root span (``round`` or a ``serve.drain`` that ran
    a fleet or manager round).  A layer's figure is its summed self
    time over every process — worker shards run in parallel, so layer
    figures can add up to more than the round.  The attributed share
    is the part of each round's wall time during which at least one
    named layer was running in some process; the remainder is time no
    traced layer accounts for (waiting on a pipe, waking a process,
    code between traced calls).
    """
    spans = [list(record) for record in tracer.spans]
    counts_in = tracer.counts
    fleet_rounds = tracer.fleet_rounds
    names_by_round: Dict[int, set] = {}
    for name, _, _, _, round_id in spans:
        names_by_round.setdefault(round_id, set()).add(name)
    roots = {
        round_id: index
        for index, (name, _, _, parent, round_id) in enumerate(spans)
        if parent < 0
        and name in ROOT_NAMES
        and (
            name == "round"
            or names_by_round[round_id] & {"fleet.run_events", "soc.run_events"}
        )
    }
    rounds = max(1, len(roots))
    per_layer: Dict[str, float] = {}
    span_counts: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    intervals: Dict[int, List[Tuple[int, int]]] = {r: [] for r in roots}

    def absorb(process_spans: List[list], process_counts, round_of: Callable,
               only_rounds: bool) -> None:
        for name, round_id, amount in process_counts:
            if not only_rounds or round_of(round_id) in intervals:
                counts[name] = counts.get(name, 0) + amount
        pieces = _self_intervals(process_spans)
        for index, record in enumerate(process_spans):
            name = record[0]
            round_id = round_of(record[4])
            if only_rounds and round_id not in intervals:
                continue  # a worker's warm-up dispatch
            own = sum(end - start for start, end in pieces[index])
            per_layer[name] = per_layer.get(name, 0) + own
            span_counts[name] = span_counts.get(name, 0) + 1
            if name not in UNATTRIBUTED and round_id in intervals:
                intervals[round_id].extend(pieces[index])

    absorb(
        spans,
        [[name, round_id, amount] for (name, round_id), amount in counts_in.items()],
        lambda round_id: round_id,
        only_rounds=False,
    )
    for doc in workers:
        absorb(
            _with_worker_rounds(doc["spans"]),
            doc["counts"],
            lambda fleet_round: fleet_rounds.get(fleet_round),
            only_rounds=True,
        )
    walls = []
    attributed = 0
    for round_id, index in roots.items():
        _, start, end, _, _ = spans[index]
        walls.append(end - start)
        attributed += _covered(intervals[round_id], start, end)
    wall_total = sum(walls)
    return {
        "rounds": len(roots),
        "layer_ms": {
            name: total / rounds / 1e6 for name, total in per_layer.items()
        },
        "span_counts": span_counts,
        "counts": counts,
        "wall_ms": wall_total / rounds / 1e6,
        "attributed_frac": attributed / wall_total if wall_total else 0.0,
        "unattributed_ms": (wall_total - attributed) / rounds / 1e6,
    }
