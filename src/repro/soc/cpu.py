"""Host-CPU side of the trace path: the PTM output FIFO.

Fig. 7's analysis attributes most of RTAD's residual latency to step
(1): "PTM does not send the packets until enough packets are buffered
in the FIFO inside the ARM CPU".  :class:`PtmFifoModel` reproduces
that batching: trace bytes accumulate and are drained to the TPIU
port only once the occupancy threshold is reached (or on an explicit
flush), so a branch's bytes leave the CPU some time *after* it
retired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import SocConfigError
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.soc.clocks import RTAD_CLOCK, ClockDomain


@dataclass
class PtmFifoModel:
    """Byte-batching model of the CPU-internal PTM FIFO.

    ``push(time_ns, nbytes)`` returns the *drain completion time* of
    those bytes if this push triggered a flush, else None; queued
    bytes flush together once occupancy reaches ``threshold_bytes``.
    The drain itself moves 4 bytes per trace-port cycle (125 MHz).
    """

    threshold_bytes: int = 176
    port_clock: ClockDomain = RTAD_CLOCK
    metrics: Optional[MetricsRegistry] = None
    _pending: List[Tuple[float, int]] = field(default_factory=list)
    _occupancy: int = 0

    def __post_init__(self) -> None:
        registry = self.metrics or NULL_REGISTRY
        self._m_occupancy = registry.gauge("ptm_fifo.occupancy")
        self._m_flushes = registry.counter("ptm_fifo.flushes")
        self._m_flushed_bytes = registry.counter("ptm_fifo.flushed_bytes")

    def push(self, time_ns: float, nbytes: int) -> Optional[float]:
        if nbytes < 0:
            raise SocConfigError("negative byte count")
        if nbytes == 0:
            return None
        self._pending.append((time_ns, nbytes))
        self._occupancy += nbytes
        self._m_occupancy.set(self._occupancy)
        if self._occupancy >= self.threshold_bytes:
            return self._flush(time_ns)
        return None

    def flush(self, time_ns: float) -> Optional[float]:
        """Explicit drain (trace-session end)."""
        if self._occupancy == 0:
            return None
        return self._flush(time_ns)

    def reset(self) -> None:
        """Discard buffered bytes (new trace session, nothing drains)."""
        self._pending.clear()
        self._occupancy = 0
        self._m_occupancy.set(0)

    def _flush(self, time_ns: float) -> float:
        drain_cycles = (self._occupancy + 3) // 4
        done = time_ns + self.port_clock.to_ns(drain_cycles)
        self._m_flushes.inc()
        self._m_flushed_bytes.inc(self._occupancy)
        self._pending.clear()
        self._occupancy = 0
        self._m_occupancy.set(0)
        return done

    @property
    def occupancy(self) -> int:
        return self._occupancy

    def export_state(self) -> dict:
        """JSON-able carry state for checkpointing (see repro.durability)."""
        return {
            "pending": [[time_ns, nbytes] for time_ns, nbytes in self._pending],
            "occupancy": self._occupancy,
        }

    def restore_state(self, state: dict) -> None:
        self._pending = [
            (time_ns, nbytes) for time_ns, nbytes in state["pending"]
        ]
        self._occupancy = state["occupancy"]
        self._m_occupancy.set(self._occupancy)

    def mean_buffer_delay_ns(self, byte_rate_per_ns: float) -> float:
        """Analytic expected delay of a byte through the FIFO.

        A byte waits on average for half the threshold to accumulate;
        used by the Fig. 7 step-(1) decomposition.
        """
        if byte_rate_per_ns <= 0:
            raise SocConfigError("byte rate must be positive")
        fill_ns = self.threshold_bytes / byte_rate_per_ns
        drain_ns = self.port_clock.to_ns((self.threshold_bytes + 3) // 4)
        return fill_ns / 2.0 + drain_ns
