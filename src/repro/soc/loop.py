"""The per-event reference dataplane.

:meth:`LoopDataplane.run` is the one per-event model of the trace
path — frontend byte emission (CoreSight PTM/TPIU by default),
PTM-FIFO batching, address map + vector encode, and timed delivery
into a sink — behind the same ``run`` / ``reset`` / ``export_state``
surface as the staged :class:`repro.pipeline.Pipeline`.  It is the
behavioural oracle the batched pipeline is checked against, and both
:class:`repro.soc.rtad.RtadSoc` and
:class:`repro.soc.manager.TenantRuntime` host it when
``RtadConfig.dataplane`` is ``"loop"``, so the crash-recovery harness
can assert replay equivalence on either implementation.

Fault channels reuse the batched stages' pure helpers
(:func:`repro.faults.stages.apply_event_faults`,
:class:`repro.faults.stages.VectorOverflowModel`), so for one
:class:`~repro.faults.plan.FaultPlan` the two dataplanes inject the
identical pattern.  The ``CHUNK_CORRUPT`` channel is batched-only by
construction: there are no in-flight chunks here to corrupt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.igm.address_mapper import AddressMapper
from repro.igm.vector_encoder import InputVector, VectorEncoder
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.soc.clocks import CPU_CLOCK
from repro.soc.cpu import PtmFifoModel
from repro.workloads.cfg import BranchEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.faults.stages import VectorOverflowModel
    from repro.frontends.base import TraceDriver, TraceFrontend


class LoopDataplane:
    """Per-event trace path: PTM -> FIFO -> IGM -> sink, one event at
    a time.  Behaviour-identical to the five-stage batched pipeline
    built by :func:`repro.pipeline.build_trace_pipeline` on the same
    mapper/encoder/sink (the differential tests pin this)."""

    def __init__(
        self,
        mapper: AddressMapper,
        encoder: VectorEncoder,
        sink: Callable[[InputVector, float], None],
        *,
        igm_pipe_ns: float = 24.0,
        metrics: Optional[MetricsRegistry] = None,
        fault_plan: Optional["FaultPlan"] = None,
        frontend: Optional["TraceFrontend"] = None,
    ) -> None:
        self.mapper = mapper
        self.encoder = encoder
        self.sink = sink
        self.igm_pipe_ns = igm_pipe_ns
        self.metrics = metrics or NULL_REGISTRY
        self.fault_plan = fault_plan
        if frontend is None:
            # Deferred import: repro.frontends late-binds its builtins.
            from repro.frontends.coresight import CoreSightFrontend

            frontend = CoreSightFrontend()
        self.frontend = frontend
        # Created disabled; ``run`` powers it up at first use so no
        # trace bytes exist before the session starts.
        self.driver: "TraceDriver" = frontend.create_driver(
            metrics=self.metrics
        )
        self.fifo = PtmFifoModel(metrics=self.metrics)
        self._overflow: Optional["VectorOverflowModel"] = None
        if fault_plan is not None and not fault_plan.is_noop:
            from repro.faults.plan import FaultKind
            from repro.faults.stages import VectorOverflowModel

            if fault_plan.spec(FaultKind.FIFO_OVERFLOW) is not None:
                self._overflow = VectorOverflowModel(fault_plan)
        # Counter names match the batched fault stages so either
        # dataplane reports injected losses identically.
        self._m_ev_dropped = self.metrics.counter("faults.events.dropped")
        self._m_ev_duplicated = self.metrics.counter(
            "faults.events.duplicated"
        )
        self._m_ev_corrupted = self.metrics.counter(
            "faults.events.corrupted"
        )
        self._m_vec_dropped = self.metrics.counter("faults.vectors.dropped")
        self._m_read = self.metrics.histogram("pipeline.read_ns")
        self._m_vectorize = self.metrics.histogram("pipeline.vectorize_ns")
        self._injected_drops = 0

    @property
    def fault_drops(self) -> int:
        """Losses this dataplane injected (health-machine accounting).

        Same contract as the batched fault stages' ``fault_drops``:
        event drops plus overflow vector drops.
        """
        overflow = self._overflow.dropped if self._overflow else 0
        return self._injected_drops + overflow

    def reset(self) -> None:
        """New trace session: fresh encoder/link context, empty FIFO."""
        self.driver.disable()
        self.driver.enable()
        self.fifo.reset()
        if self._overflow is not None:
            self._overflow.reset()

    def run(self, events: Sequence[BranchEvent]) -> None:
        """Feed a whole event stream through, then flush the tail."""
        if not len(events):
            return
        if not self.driver.enabled:
            self.driver.enable()
        plan = self.fault_plan
        if plan is not None and not plan.is_noop:
            from repro.faults.stages import apply_event_faults

            events, counts = apply_event_faults(events, plan)
            if counts:
                self._injected_drops += counts.dropped
                self._m_ev_dropped.inc(counts.dropped)
                self._m_ev_duplicated.inc(counts.duplicated)
                self._m_ev_corrupted.inc(counts.corrupted)
            if not len(events):
                return
        pending: List[InputVector] = []
        for event in events:
            time_ns = CPU_CLOCK.to_ns(event.cycle)
            chunk = self.driver.trace(event)
            index = self.mapper.lookup(event.target)
            if index is not None:
                vector = self.encoder.push(
                    index=index, address=event.target, cycle=event.cycle
                )
                if vector is not None:
                    pending.append(vector)
            flushed = self.fifo.push(time_ns, len(chunk))
            if flushed is not None:
                self._deliver(pending, flushed)
                pending = []
        tail = self.driver.flush()
        last_ns = CPU_CLOCK.to_ns(events[-1].cycle)
        # The tail push may itself cross the threshold and drain the
        # FIFO; keep that handle, or the explicit session-end flush
        # sees an empty FIFO and the pending vectors are lost.
        flushed = self.fifo.push(last_ns, len(tail))
        if flushed is None:
            flushed = self.fifo.flush(last_ns)
        if flushed is not None:
            self._deliver(pending, flushed)

    def _deliver(
        self, vectors: List[InputVector], flush_ns: float
    ) -> None:
        for vector in vectors:
            if self._overflow is not None and not self._overflow.admit():
                self._m_vec_dropped.inc()
                continue
            trigger_ns = CPU_CLOCK.to_ns(vector.trigger_cycle)
            self._m_read.observe(max(0.0, flush_ns - trigger_ns))
            self._m_vectorize.observe(self.igm_pipe_ns)
            self.sink(vector, flush_ns + self.igm_pipe_ns)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Carry state for checkpointing, mirroring Pipeline's shape.

        The driver contributes its own sub-documents (``ptm``/``tpiu``
        for CoreSight, ``encoder``/``framer`` for E-Trace) so the
        CoreSight layout stays byte-identical to the pre-frontend one.
        """
        state = {
            **self.driver.export_state(),
            "fifo": self.fifo.export_state(),
            "injected_drops": self._injected_drops,
        }
        if self._overflow is not None:
            state["overflow"] = {
                "index": self._overflow._index,
                "burst_left": self._overflow._burst_left,
                "dropped": self._overflow.dropped,
            }
        return state

    def restore_state(self, state: dict) -> None:
        self.driver.restore_state(state)
        self.fifo.restore_state(state["fifo"])
        self._injected_drops = state["injected_drops"]
        if self._overflow is not None and "overflow" in state:
            self._overflow._index = state["overflow"]["index"]
            self._overflow._burst_left = state["overflow"]["burst_left"]
            self._overflow.dropped = state["overflow"]["dropped"]
