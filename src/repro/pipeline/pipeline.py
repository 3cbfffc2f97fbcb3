"""Pipeline assembler: an ordered chain of stages.

The :class:`Pipeline` owns an ordered list of stages.  ``run`` slices
the event stream into chunks and passes each chunk straight through
the stages in order, checking its integrity tag at every stage
boundary.  After the last chunk, a single tail batch walks the stage
list in order, draining carried state exactly like the per-event
loop's end-of-session flush.  The only buffers on the path are the
ones the hardware has: the PTM FIFO (:class:`PtmFifoStage`) and the
MCM internal FIFO behind the sink.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.errors import SocConfigError
from repro.igm.address_mapper import AddressMapper
from repro.igm.vector_encoder import InputVector, VectorEncoder
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.pipeline.batch import EventBatch, TraceBatch
from repro.pipeline.stage import Stage
from repro.pipeline.stages import (
    DeliverStage,
    IgmStage,
    PtmFifoStage,
)
from repro.workloads.cfg import BranchEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.frontends.base import TraceFrontend

#: Default events per batch: large enough to amortize numpy dispatch,
#: small enough that a chunk's arrays stay cache-resident.
DEFAULT_CHUNK_EVENTS = 32768


class Pipeline:
    """An ordered chain of stages, run one chunk at a time."""

    def __init__(
        self,
        stages: Sequence[Stage],
        metrics: Optional[MetricsRegistry] = None,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        if not stages:
            raise SocConfigError("pipeline needs at least one stage")
        if chunk_events < 1:
            raise SocConfigError("chunk_events must be >= 1")
        self.stages: List[Stage] = list(stages)
        self.metrics = metrics or NULL_REGISTRY
        self.chunk_events = chunk_events
        self._m_chunks = self.metrics.counter("pipeline.chunks")
        self._m_checks = self.metrics.counter("pipeline.integrity.checks")
        self._m_crc_bad = self.metrics.counter(
            "pipeline.integrity.crc_mismatches"
        )
        self._m_gaps = self.metrics.counter("pipeline.integrity.gaps")
        self._chunk_sequence = 0
        self._last_seen: List[Optional[int]] = [None] * len(self.stages)

    def reset(self) -> None:
        """New trace session: clear stage carry state."""
        for stage in self.stages:
            stage.reset()
        self._chunk_sequence = 0
        self._last_seen = [None] * len(self.stages)

    # ------------------------------------------------------------------
    # Integrity tags
    # ------------------------------------------------------------------

    def _check_integrity(self, batch: TraceBatch, index: int) -> None:
        """Verify a batch's CRC/sequence tag at a stage boundary.

        Catches *silent* in-flight corruption (a batch mutated without
        re-stamping) and chunk gaps — failure modes the byte-level
        resync path downstream can never observe.
        """
        if batch.events is None or batch.chunk_crc is None:
            return
        self._m_checks.inc()
        if batch.events.integrity_crc() != batch.chunk_crc:
            self._m_crc_bad.inc()
        sequence = batch.chunk_sequence
        previous = self._last_seen[index]
        if previous is not None and sequence != previous + 1:
            self._m_gaps.inc()
        self._last_seen[index] = sequence

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Stage carry state for checkpointing (see repro.durability).

        A pipeline holds no batch between ``run`` calls, so the stage
        carry state and the chunk sequence are the whole of it.
        """
        return {
            "chunk_sequence": self._chunk_sequence,
            "stages": [stage.export_state() for stage in self.stages],
        }

    def restore_state(self, state: dict) -> None:
        stage_states = state["stages"]
        if len(stage_states) != len(self.stages):
            raise SocConfigError(
                f"checkpoint has {len(stage_states)} stage states for a "
                f"{len(self.stages)}-stage pipeline"
            )
        self._chunk_sequence = state["chunk_sequence"]
        self._last_seen = [None] * len(self.stages)
        for stage, stage_state in zip(self.stages, stage_states):
            stage.restore_state(stage_state)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def run(self, events: Sequence[BranchEvent]) -> TraceBatch:
        """Push a whole event stream through, then drain the tail."""
        total = len(events)
        start = 0
        while start < total:
            chunk = events[start : start + self.chunk_events]
            batch = TraceBatch(events=EventBatch.from_events(chunk))
            batch.chunk_sequence = self._chunk_sequence
            batch.chunk_crc = batch.events.integrity_crc()
            self._chunk_sequence += 1
            self._m_chunks.inc()
            for index, stage in enumerate(self.stages):
                self._check_integrity(batch, index)
                batch = stage.process(batch)
                if (
                    getattr(stage, "mutates_events", False)
                    and batch.events is not None
                    and batch.chunk_crc is not None
                ):
                    # Legitimate event mutation (e.g. fault injection)
                    # re-stamps the tag; silent corruptors do not.
                    batch.chunk_crc = batch.events.integrity_crc()
            start += len(chunk)
        tail = TraceBatch.tail_marker()
        for stage in self.stages:
            tail = stage.process(tail)
        return tail


def build_trace_pipeline(
    mapper: AddressMapper,
    encoder: VectorEncoder,
    sink: Callable[[InputVector, float], None],
    *,
    igm_pipe_ns: float = 24.0,
    metrics: Optional[MetricsRegistry] = None,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    fault_plan: Optional["FaultPlan"] = None,
    frontend: Optional["TraceFrontend"] = None,
) -> Pipeline:
    """Assemble the standard five-stage trace dataplane.

    The batched twin of the per-event reference
    :meth:`repro.soc.loop.LoopDataplane.run`: the frontend's encode +
    framing stages (CoreSight PTM/TPIU by default), PTM-FIFO batching,
    address map + vector encode, and delivery into ``sink`` (usually
    ``Mcm.push``).  ``frontend`` selects the trace grammar; grammar
    configuration (e.g. a ``PtmConfig``) travels inside it.

    ``fault_plan`` optionally inserts fault-injection stages: an
    event-level injector ahead of the encode stages and a
    FIFO-overflow model ahead of delivery.  A plan with only zero
    rates (or ``None``) leaves the pipeline byte-identical to the
    fault-free build.
    """
    if frontend is None:
        # Deferred import: repro.frontends late-binds its builtins.
        from repro.frontends.coresight import CoreSightFrontend

        frontend = CoreSightFrontend()
    stages: List[Stage] = [
        *frontend.build_encode_stages(metrics=metrics),
        PtmFifoStage(metrics=metrics),
        IgmStage(mapper, encoder, metrics=metrics),
        DeliverStage(sink, igm_pipe_ns=igm_pipe_ns, metrics=metrics),
    ]
    if fault_plan is not None and not fault_plan.is_noop:
        # Deferred import: repro.faults.stages imports this package.
        from repro.faults.plan import EVENT_KINDS, FaultKind
        from repro.faults.stages import (
            ChunkCorruptStage,
            EventFaultStage,
            VectorFaultStage,
        )

        if fault_plan.active((FaultKind.CHUNK_CORRUPT,)):
            # Ahead of the IGM so the silent mutation has a real
            # downstream effect (a wrong mapper lookup).
            stages.insert(
                len(stages) - 2,
                ChunkCorruptStage(fault_plan, metrics=metrics),
            )
        if fault_plan.active(EVENT_KINDS):
            stages.insert(
                0, EventFaultStage(fault_plan, metrics=metrics)
            )
        if fault_plan.active((FaultKind.FIFO_OVERFLOW,)):
            stages.insert(
                len(stages) - 1,
                VectorFaultStage(fault_plan, metrics=metrics),
            )
    return Pipeline(stages, metrics=metrics, chunk_events=chunk_events)
