"""Dataplane fault injection: event-level faults and FIFO bursts.

Two insertion points mirror where real hardware loses data:

- :class:`EventFaultStage` sits at the head of the staged pipeline and
  drops / duplicates / corrupts branch events ahead of whichever
  frontend's encode stages the pipeline assembled (CoreSight PTM or
  E-Trace — the channels are grammar-neutral) — the model of a trace
  source that glitched upstream of the port.
- :class:`VectorFaultStage` sits between the IGM and delivery and
  drops *bursts* of encoded vectors — the model of a PTM-FIFO overflow
  window in which everything buffered is lost at once.

Byte-level corruption (bit flips, drops, frame desyncs) is not a
stage: it lives in :class:`repro.faults.injectors.StreamFaultInjector`
and applies to any frontend's *framed* byte stream.  Recovery from
those faults is each grammar's own resync path — TPIU frame hunt +
PFT ``resync_hunt`` for CoreSight, ETP sync-pattern hunt + E-Trace
alignment hunt for E-Trace — exercised side by side by the chaos
harness (:mod:`repro.eval.chaos`).

The stages are thin wrappers over pure, chunk-invariant helpers
(:func:`apply_event_faults`, :class:`VectorOverflowModel`) that the
per-event reference loop, :meth:`repro.soc.loop.LoopDataplane.run`,
reuses directly, so ``dataplane="batched"`` and ``dataplane="loop"`` inject
the identical fault pattern for the same :class:`FaultPlan`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import EVENT_KINDS, FaultKind, FaultPlan
from repro.obs import MetricsRegistry
from repro.pipeline.batch import EventBatch, TraceBatch
from repro.pipeline.stage import StageBase
from repro.workloads.cfg import BranchEvent


@dataclass
class EventFaultCounts:
    """What one :func:`apply_event_faults` pass did."""

    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0

    def __bool__(self) -> bool:
        return bool(self.dropped or self.duplicated or self.corrupted)


def corrupt_target(plan: FaultPlan, index: int) -> int:
    """Deterministic garbage branch target: word-aligned, 32-bit."""
    return plan.value(FaultKind.EVENT_CORRUPT, index) & 0xFFFF_FFFC


def apply_event_faults(
    events: Sequence[BranchEvent],
    plan: Optional[FaultPlan],
    start_index: int = 0,
) -> Tuple[Sequence[BranchEvent], EventFaultCounts]:
    """Apply event-level channels; indexes are absolute in the stream.

    Returns the (possibly new) event sequence plus the mutation counts;
    when nothing fires the original sequence object is returned
    untouched, preserving the rate=0 byte-identical guarantee.
    """
    counts = EventFaultCounts()
    if plan is None or not plan.active(EVENT_KINDS):
        return events, counts
    out: List[BranchEvent] = []
    for offset, event in enumerate(events):
        index = start_index + offset
        if plan.decide(FaultKind.EVENT_DROP, index):
            counts.dropped += 1
            continue
        if plan.decide(FaultKind.EVENT_CORRUPT, index):
            event = dataclasses.replace(
                event, target=corrupt_target(plan, index)
            )
            counts.corrupted += 1
        out.append(event)
        if plan.decide(FaultKind.EVENT_DUP, index):
            out.append(event)
            counts.duplicated += 1
    if not counts:
        return events, counts
    return out, counts


class VectorOverflowModel:
    """FIFO_OVERFLOW admission: triggered vectors start a loss burst.

    ``admit`` is called once per encoded vector in stream order.  When
    the channel fires at a vector's absolute index, that vector and the
    next ``burst - 1`` are lost — the whole buffered window drains to
    nowhere, like a real overflow.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.spec = plan.spec(FaultKind.FIFO_OVERFLOW)
        self.dropped = 0
        self.reset()

    def reset(self) -> None:
        self._index = 0
        self._burst_left = 0

    def admit(self) -> bool:
        if self.spec is None:
            self._index += 1
            return True
        index = self._index
        self._index += 1
        if self._burst_left > 0:
            self._burst_left -= 1
            self.dropped += 1
            return False
        if self.plan.decide(FaultKind.FIFO_OVERFLOW, index):
            self._burst_left = self.spec.burst - 1
            self.dropped += 1
            return False
        return True


class EventFaultStage(StageBase):
    """Head-of-pipeline stage applying the event-level channels."""

    name = "fault_events"
    # Legitimate mutation: the pipeline re-stamps the integrity tag
    # after this stage so injected event faults are not double-counted
    # as silent corruption.
    mutates_events = True

    def __init__(
        self,
        plan: FaultPlan,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.plan = plan
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self._m_dropped = self.metrics.counter("faults.events.dropped")
        self._m_duplicated = self.metrics.counter("faults.events.duplicated")
        self._m_corrupted = self.metrics.counter("faults.events.corrupted")
        self.reset()

    def reset(self) -> None:
        self._offset = 0

    def export_state(self) -> dict:
        return {
            "offset": self._offset,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
        }

    def restore_state(self, state: dict) -> None:
        self._offset = state["offset"]
        self.dropped = state["dropped"]
        self.duplicated = state["duplicated"]
        self.corrupted = state["corrupted"]

    @property
    def fault_drops(self) -> int:
        """Losses this stage injected (health-machine accounting)."""
        return self.dropped

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail or len(batch) == 0:
            return batch
        events = batch.events.events if batch.events else None
        assert events is not None
        start = self._offset
        self._offset += len(events)
        mutated, counts = apply_event_faults(events, self.plan, start)
        if counts:
            batch.events = EventBatch.from_events(list(mutated))
            self.dropped += counts.dropped
            self.duplicated += counts.duplicated
            self.corrupted += counts.corrupted
            self._m_dropped.inc(counts.dropped)
            self._m_duplicated.inc(counts.duplicated)
            self._m_corrupted.inc(counts.corrupted)
        return batch


class ChunkCorruptStage(StageBase):
    """Silent in-flight batch corruption (integrity-tag test channel).

    When the ``CHUNK_CORRUPT`` channel fires at a chunk's absolute
    index, one event's target in the batch is overwritten in place and
    — the point — the integrity tag is deliberately *not* re-stamped
    (``mutates_events`` stays False).  This models corruption between
    stages that the byte-level resync path can never observe; only the
    pipeline's per-boundary CRC check catches it, incrementing
    ``pipeline.integrity.crc_mismatches``.
    """

    name = "fault_chunks"

    def __init__(
        self,
        plan: FaultPlan,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.plan = plan
        self.corrupted_chunks = 0
        self._m_corrupted = self.metrics.counter("faults.chunks.corrupted")
        self.reset()

    def reset(self) -> None:
        self._chunk_index = 0

    def export_state(self) -> dict:
        return {
            "chunk_index": self._chunk_index,
            "corrupted_chunks": self.corrupted_chunks,
        }

    def restore_state(self, state: dict) -> None:
        self._chunk_index = state["chunk_index"]
        self.corrupted_chunks = state["corrupted_chunks"]

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail or len(batch) == 0:
            return batch
        index = self._chunk_index
        self._chunk_index += 1
        if self.plan.decide(FaultKind.CHUNK_CORRUPT, index):
            assert batch.events is not None
            pos = self.plan.value(FaultKind.CHUNK_CORRUPT, index) % len(batch)
            # Flip to the neighbouring word-aligned address — silently.
            batch.events.target[pos] ^= 4
            self.corrupted_chunks += 1
            self._m_corrupted.inc()
        return batch


class VectorFaultStage(StageBase):
    """Between IGM and delivery: burst-drop encoded vectors."""

    name = "fault_fifo"

    def __init__(
        self,
        plan: FaultPlan,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.model = VectorOverflowModel(plan)
        self._m_dropped = self.metrics.counter("faults.vectors.dropped")

    def reset(self) -> None:
        self.model.reset()

    def export_state(self) -> dict:
        return {
            "index": self.model._index,
            "burst_left": self.model._burst_left,
            "dropped": self.model.dropped,
        }

    def restore_state(self, state: dict) -> None:
        self.model._index = state["index"]
        self.model._burst_left = state["burst_left"]
        self.model.dropped = state["dropped"]

    @property
    def fault_drops(self) -> int:
        return self.model.dropped

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail or not batch.vectors:
            return batch
        keep = np.fromiter(
            (self.model.admit() for _ in batch.vectors),
            bool,
            count=len(batch.vectors),
        )
        lost = int(len(keep) - keep.sum())
        if not lost:
            return batch
        self._m_dropped.inc(lost)
        batch.vectors = [
            vector for vector, ok in zip(batch.vectors, keep) if ok
        ]
        if batch.vector_event_pos is not None:
            batch.vector_event_pos = batch.vector_event_pos[keep]
        return batch
