"""Per-tenant rolling ingest windows.

Admitted batches wait here between the socket front door and the
drain loop.  A window is a bounded deque: a full window refuses the
incoming batch, and the server turns that refusal into a
client-visible SHED ``buffer_full`` with a retry-after hint, counted
in ``serve.shed.buffer_full`` (backpressure, nothing lost silently).

Each batch carries its admission wall-clock time and its deadline, so
the drain loop can shed work that went stale while queued.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.errors import ServeError
from repro.workloads.cfg import BranchEvent


@dataclass
class IngestBatch:
    """One admitted frame's worth of events, waiting to be drained."""

    tenant: str
    events: Tuple[BranchEvent, ...]
    #: Wall-clock admission time (``time.monotonic_ns`` domain).
    admit_ns: int
    #: Absolute staleness bound; ``None`` = never sheds as stale.
    deadline_ns: Optional[int] = None

    def stale(self, now_ns: int) -> bool:
        return self.deadline_ns is not None and now_ns > self.deadline_ns


class TenantWindow:
    """Bounded rolling window of one tenant's admitted batches."""

    def __init__(self, tenant: str, capacity_batches: int = 64) -> None:
        if capacity_batches < 1:
            raise ServeError(f"window {tenant!r} capacity must be >= 1")
        self.tenant = tenant
        self.capacity_batches = capacity_batches
        self._batches: Deque[IngestBatch] = deque()
        self.queued_events = 0

    def offer(self, batch: IngestBatch) -> bool:
        """Admit one batch; False when the window is full."""
        if len(self._batches) >= self.capacity_batches:
            return False
        self._batches.append(batch)
        self.queued_events += len(batch.events)
        return True

    def take(
        self, max_events: int, now_ns: int
    ) -> Tuple[List[IngestBatch], List[IngestBatch]]:
        """Pop up to ``max_events`` worth of batches for one round.

        Returns ``(fresh, stale)`` — stale batches passed their
        deadline while queued and must be *accounted* as shed, never
        silently discarded.  Takes whole batches; stops before a batch
        that would overflow the round budget (unless nothing was taken
        yet, so one oversized batch cannot wedge the window).
        """
        fresh: List[IngestBatch] = []
        stale: List[IngestBatch] = []
        taken_events = 0
        while self._batches:
            batch = self._batches[0]
            if batch.stale(now_ns):
                self._batches.popleft()
                self.queued_events -= len(batch.events)
                stale.append(batch)
                continue
            if fresh and taken_events + len(batch.events) > max_events:
                break
            self._batches.popleft()
            self.queued_events -= len(batch.events)
            taken_events += len(batch.events)
            fresh.append(batch)
        return fresh, stale

    @property
    def oldest_admit_ns(self) -> Optional[int]:
        """Admission time of the head batch (None when empty)."""
        return self._batches[0].admit_ns if self._batches else None

    @property
    def depth(self) -> int:
        return len(self._batches)

    @property
    def empty(self) -> bool:
        return not self._batches
