"""Concrete trace-path stages, batched.

Each stage reproduces one segment of the per-event reference loop in
:meth:`repro.soc.loop.LoopDataplane.run` — PTM packet encoding, TPIU
framing, PTM-FIFO batching, address map + vector encode, and vector
delivery — but operates on numpy arrays over whole chunks of events.

**Exactness contract.**  Every byte count, simulated timestamp, and
observability counter matches the reference loop bit-for-bit.  The
vectorized PTM encoder models the stream at the *byte-accounting*
level: per-packet lengths (prefix-compressed branch addresses, atom
packets, sync bursts) are computed with array arithmetic, and the
data-dependent sync placement is resolved with a binary-search loop
over the cumulative byte counts — one Python iteration per ~1 KiB of
trace instead of one per branch.  Configurations the fast path does
not model (waypoint mode, pathological sync intervals) fall back to
feeding a real :class:`~repro.coresight.ptm.Ptm` per event, so the
stage is always correct, merely slower off the happy path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.coresight.ptm import Ptm, PtmConfig
from repro.errors import PacketEncodeError
from repro.igm.address_mapper import AddressMapper
from repro.igm.vector_encoder import EncoderMode, InputVector, VectorEncoder
from repro.obs import MetricsRegistry
from repro.pipeline.batch import EventBatch, FifoFlush, TraceBatch
from repro.pipeline.stage import StageBase
from repro.soc.clocks import CPU_CLOCK, RTAD_CLOCK, ClockDomain

#: Branch-address diff thresholds: a diff below ``_DIFF_BOUNDS[k]``
#: fits in ``k + 1`` packet bytes (6 + 7 + 7 + 7 + 3 address bits).
_DIFF_BOUNDS = np.array(
    [1 << 6, 1 << 13, 1 << 20, 1 << 27], dtype=np.int64
)

#: a-sync (6) + i-sync (6) + context-ID (5) burst bytes.
_SYNC_BURST_BYTES = 17
#: Timestamp packet appended to the burst when enabled.
_TIMESTAMP_BYTES = 9

_TPIU_PAYLOAD = 15
_TPIU_FRAME = 16


class PtmEncodeStage(StageBase):
    """Branch events -> per-event PTM byte counts (batched).

    Carries the encoder context across batches: compression base
    address, pending atom count, bytes-since-sync, and the started
    flag — exactly the state a :class:`Ptm` holds.
    """

    name = "ptm"

    def __init__(
        self,
        config: Optional[PtmConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.config = config or PtmConfig()
        self._sync_len = _SYNC_BURST_BYTES + (
            _TIMESTAMP_BYTES if self.config.timestamps_enabled else 0
        )
        # The vectorized path assumes branch-broadcast encoding and a
        # sync interval that cannot retrigger within one burst.
        self._fast = (
            self.config.branch_broadcast
            and self.config.sync_interval_bytes > 2 * self._sync_len
        )
        self._ref_ptm: Optional[Ptm] = None
        self.reset()
        self._m_events = self.metrics.counter("ptm.events")
        self._m_bytes = self.metrics.counter("ptm.bytes")
        self._m_sync_bytes = self.metrics.counter("ptm.sync_bytes")
        self._m_packets = {
            kind: self.metrics.counter(f"ptm.packets.{kind}")
            for kind in (
                "async", "isync", "context", "timestamp", "atom", "branch",
            )
        }

    def reset(self) -> None:
        self._started = False
        self._last_address = 0
        self._pending_atoms = 0
        self._bytes_since_sync = 0
        self._ref_ptm = None

    def export_state(self) -> dict:
        return {
            "started": self._started,
            "last_address": self._last_address,
            "pending_atoms": self._pending_atoms,
            "bytes_since_sync": self._bytes_since_sync,
            "ref_ptm": (
                self._ref_ptm.export_state()
                if self._ref_ptm is not None
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        self._started = state["started"]
        self._last_address = state["last_address"]
        self._pending_atoms = state["pending_atoms"]
        self._bytes_since_sync = state["bytes_since_sync"]
        if state["ref_ptm"] is not None:
            self._ref_ptm = Ptm(self.config, metrics=self.metrics)
            self._ref_ptm.restore_state(state["ref_ptm"])
        else:
            self._ref_ptm = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _packet_len(target: int, previous: int, syscall: bool) -> int:
        """Byte length of one branch-address packet (reference math)."""
        if syscall:
            return 6  # full 5 address bytes + exception info byte
        diff = (target >> 2) ^ ((previous >> 2) & 0x3FFFFFFF)
        for count, bound in enumerate(_DIFF_BOUNDS, start=1):
            if diff < bound:
                return count
        return 5

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail:
            return self._process_tail(batch)
        if len(batch) == 0:
            batch.ptm_bytes = np.zeros(0, dtype=np.int64)
            return batch
        if not self._fast:
            return self._process_reference(batch)
        return self._process_fast(batch)

    def _process_tail(self, batch: TraceBatch) -> TraceBatch:
        if self._ref_ptm is not None:
            batch.tail_ptm_bytes = len(self._ref_ptm.flush())
            return batch
        if self._pending_atoms > 0:
            batch.tail_ptm_bytes = 1
            self._pending_atoms = 0
            self._bytes_since_sync += 1
            self._m_bytes.inc(1)
            self._m_packets["atom"].inc()
        return batch

    def _process_reference(self, batch: TraceBatch) -> TraceBatch:
        """Slow path: drive a real Ptm per event (exotic configs)."""
        if self._ref_ptm is None:
            self._ref_ptm = Ptm(self.config, metrics=self.metrics)
        ptm = self._ref_ptm
        assert batch.events is not None and batch.events.events is not None
        batch.ptm_bytes = np.fromiter(
            (len(ptm.feed(event)) for event in batch.events.events),
            np.int64,
            count=len(batch),
        )
        return batch

    def _process_fast(self, batch: TraceBatch) -> TraceBatch:
        ev = batch.events
        assert ev is not None
        n = len(ev)
        is_atom = ev.atom
        is_branch = ~is_atom
        bidx = np.nonzero(is_branch)[0]
        if len(bidx):
            btargets = ev.target[bidx]
            if np.any((btargets & 0x3) != 0):
                raise PacketEncodeError("branch address not word aligned")
            if np.any((btargets < 0) | (btargets > 0xFFFFFFFF)):
                raise PacketEncodeError("branch address out of range")

        # --- atom packets -------------------------------------------------
        # Atoms accumulate per run (between taken branches); a packet
        # closes at every 4th atom, and a branch flushes the remainder.
        cum_atoms = np.cumsum(is_atom.astype(np.int64))
        cum_branch = np.cumsum(is_branch.astype(np.int64))
        cum_branch_excl = cum_branch - is_branch.astype(np.int64)
        branch_marks = np.where(is_branch, cum_atoms, 0)
        prev_mark = np.concatenate(
            ([0], np.maximum.accumulate(branch_marks)[:-1])
        )
        base = np.where(cum_branch_excl == 0, self._pending_atoms, 0)
        run_count = cum_atoms - prev_mark + base
        atom_emit = is_atom & (run_count % 4 == 0)
        branch_flush = is_branch & (run_count % 4 != 0)

        nb = atom_emit.astype(np.int64)

        # --- branch-address packet lengths --------------------------------
        nbytes = np.zeros(0, dtype=np.int64)
        if len(bidx):
            word = ev.target[bidx] >> 2
            prev_word = np.empty_like(word)
            prev_word[0] = (self._last_address >> 2) & 0x3FFFFFFF
            prev_word[1:] = word[:-1]
            diff = word ^ prev_word
            nbytes = (
                np.searchsorted(_DIFF_BOUNDS, diff, side="right").astype(
                    np.int64
                )
                + 1
            )
            nbytes[ev.syscall[bidx]] = 6
            nb[bidx] = branch_flush[bidx].astype(np.int64) + nbytes

        # --- data-dependent sync placement --------------------------------
        # Walk sync-to-sync runs: inside a run the byte counts are the
        # precomputed vector above, except the *first* branch after a
        # sync restarts compression from the sync address (a patch of
        # one element).  Each run boundary is found with searchsorted
        # over the cumulative byte counts.
        interval = self.config.sync_interval_bytes
        sync_len = self._sync_len
        C = np.cumsum(nb)
        sync_events: List[int] = []
        initial_sync = False
        committed: Dict[int, int] = {}  # branch position -> length delta
        pend_pos, pend_delta, pend_event = -1, 0, n
        s = self._bytes_since_sync
        p = 0
        if not self._started:
            initial_sync = True
            sync_events.append(0)
            if len(bidx):
                reset = int(ev.source[0]) & ~0x3
                new_len = self._packet_len(
                    int(ev.target[bidx[0]]), reset, bool(ev.syscall[bidx[0]])
                )
                pend_pos = 0
                pend_delta = new_len - int(nbytes[0])
                pend_event = int(bidx[0])
            s = sync_len
            self._started = True
        while True:
            C0 = int(C[p - 1]) if p > 0 else 0
            j = -1
            hi = min(pend_event, n)
            if p < hi:
                jj = int(
                    np.searchsorted(C[p:hi], interval - s + C0, side="left")
                ) + p
                if jj < hi:
                    j = jj
            if j < 0 and pend_event < n:
                lo = max(p, pend_event)
                jj = int(
                    np.searchsorted(
                        C[lo:], interval - s + C0 - pend_delta, side="left"
                    )
                ) + lo
                if jj < n:
                    j = jj
            if j < 0:
                break
            if pend_pos >= 0 and pend_event <= j:
                # The patched branch is behind the new sync: it was
                # really encoded with the patched length.
                if pend_delta:
                    committed[pend_pos] = pend_delta
            # A pending patch *ahead* of the sync is superseded: that
            # branch restarts from the newer sync's address instead.
            sync_events.append(j)
            reset = int(ev.source[j]) & ~0x3
            k = int(np.searchsorted(bidx, j, side="right"))
            if k < len(bidx):
                fb = int(bidx[k])
                new_len = self._packet_len(
                    int(ev.target[fb]), reset, bool(ev.syscall[fb])
                )
                pend_pos, pend_delta, pend_event = (
                    k, new_len - int(nbytes[k]), fb,
                )
            else:
                pend_pos, pend_delta, pend_event = -1, 0, n
            s = sync_len
            p = j + 1
        if pend_pos >= 0 and pend_event < n and pend_delta:
            committed[pend_pos] = pend_delta
        C0 = int(C[p - 1]) if p > 0 else 0
        self._bytes_since_sync = (
            s + int(C[-1]) - C0
            + (pend_delta if pend_event < n else 0)
        )

        # --- finalize per-event byte counts -------------------------------
        for pos, delta in committed.items():
            nb[bidx[pos]] += delta
        for j in sync_events:
            nb[j] += sync_len

        # --- carry state ---------------------------------------------------
        if len(bidx):
            self._pending_atoms = int(
                cum_atoms[-1] - cum_atoms[bidx[-1]]
            ) % 4
        else:
            self._pending_atoms = (
                self._pending_atoms + int(cum_atoms[-1])
            ) % 4
        lb = int(bidx[-1]) if len(bidx) else -1
        # Mid-run syncs reset the compression base *after* the event's
        # own packet; the initial burst precedes the first packet.
        post_syncs = sync_events[1:] if initial_sync else sync_events
        ls = max(post_syncs) if post_syncs else -1
        if ls >= 0 and ls >= lb:
            self._last_address = int(ev.source[ls]) & ~0x3
        elif lb >= 0:
            self._last_address = int(ev.target[lb])
        elif initial_sync:
            self._last_address = int(ev.source[0]) & ~0x3

        # --- observability -------------------------------------------------
        num_syncs = len(sync_events)
        self._m_events.inc(n)
        self._m_bytes.inc(int(nb.sum()))
        self._m_sync_bytes.inc(sync_len * num_syncs)
        self._m_packets["branch"].inc(int(len(bidx)))
        self._m_packets["atom"].inc(
            int(atom_emit.sum()) + int(branch_flush.sum())
        )
        for kind in ("async", "isync", "context"):
            self._m_packets[kind].inc(num_syncs)
        if self.config.timestamps_enabled:
            self._m_packets["timestamp"].inc(num_syncs)

        batch.ptm_bytes = nb
        return batch


class ByteCountEncodeStage(StageBase):
    """Grammar-neutral encode stage: drives a per-event packet encoder.

    Any trace frontend whose encoder exposes ``feed(event) -> bytes``
    and ``flush() -> bytes`` (plus ``export_state``/``restore_state``)
    rides the batched dataplane through this stage.  Downstream stages
    consume only the per-event byte *counts* — framing, FIFO timing —
    so per-event reference encoding is exact by construction; grammars
    with a vectorized fast path (CoreSight) subclass or replace this
    stage rather than extend it.
    """

    def __init__(
        self,
        name: str,
        encoder_factory: Callable[[], object],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Counter names derive from ``self.name`` inside StageBase, so
        # the instance attribute must exist before super().__init__.
        self.name = name
        super().__init__(metrics=metrics)
        self._encoder_factory = encoder_factory
        self._encoder: Optional[object] = None

    def reset(self) -> None:
        self._encoder = None

    def export_state(self) -> dict:
        return {
            "encoder": (
                self._encoder.export_state()
                if self._encoder is not None
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        if state["encoder"] is not None:
            self._encoder = self._encoder_factory()
            self._encoder.restore_state(state["encoder"])
        else:
            self._encoder = None

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail:
            if self._encoder is not None:
                batch.tail_ptm_bytes = len(self._encoder.flush())
            return batch
        if len(batch) == 0:
            batch.ptm_bytes = np.zeros(0, dtype=np.int64)
            return batch
        if self._encoder is None:
            self._encoder = self._encoder_factory()
        encoder = self._encoder
        assert batch.events is not None and batch.events.events is not None
        batch.ptm_bytes = np.fromiter(
            (len(encoder.feed(event)) for event in batch.events.events),
            np.int64,
            count=len(batch),
        )
        return batch


class TpiuFrameStage(StageBase):
    """PTM byte counts -> TPIU frame bytes leaving the trace port."""

    name = "tpiu"

    def __init__(
        self,
        sync_period: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        if sync_period < 1:
            raise ValueError("sync_period must be >= 1")
        self.sync_period = sync_period
        self.reset()
        self._m_frames = self.metrics.counter("tpiu.frames")
        self._m_sync_frames = self.metrics.counter("tpiu.sync_frames")
        self._m_payload = self.metrics.counter("tpiu.payload_bytes")
        self._m_padding = self.metrics.counter("tpiu.padding_bytes")

    def reset(self) -> None:
        self._buffer = 0
        # A fresh TPIU emits a full-sync frame before its first frame.
        self._frames_since_sync = self.sync_period

    def export_state(self) -> dict:
        return {
            "buffer": self._buffer,
            "frames_since_sync": self._frames_since_sync,
        }

    def restore_state(self, state: dict) -> None:
        self._buffer = state["buffer"]
        self._frames_since_sync = state["frames_since_sync"]

    def _advance_frames(self, frames: int) -> int:
        """Consume ``frames`` data-frame slots; return sync frames."""
        period = self.sync_period
        g0 = period - self._frames_since_sync
        if frames <= g0:
            self._frames_since_sync += frames
            return 0
        syncs = (frames - g0 - 1) // period + 1
        last = g0 + (syncs - 1) * period
        self._frames_since_sync = frames - last
        return syncs

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail:
            total = self._buffer + batch.tail_ptm_bytes
            complete, remainder = divmod(total, _TPIU_PAYLOAD)
            data_frames = complete + (1 if remainder else 0)
            syncs = self._advance_frames(data_frames)
            batch.tail_frame_bytes = _TPIU_FRAME * (data_frames + syncs)
            self._buffer = 0
            self._m_frames.inc(data_frames)
            self._m_sync_frames.inc(syncs)
            self._m_payload.inc(total)
            if remainder:
                self._m_padding.inc(_TPIU_PAYLOAD - remainder)
            return batch
        if len(batch) == 0:
            batch.frame_bytes = np.zeros(0, dtype=np.int64)
            return batch
        assert batch.ptm_bytes is not None
        cumulative = self._buffer + np.cumsum(batch.ptm_bytes)
        frames_after = cumulative // _TPIU_PAYLOAD
        frames_per_event = np.diff(frames_after, prepend=0)
        total_frames = int(frames_after[-1])
        period = self.sync_period
        g0 = period - self._frames_since_sync
        syncs_before = np.where(
            frames_after <= g0,
            0,
            (frames_after - g0 - 1) // period + 1,
        )
        syncs_per_event = np.diff(syncs_before, prepend=0)
        batch.frame_bytes = (frames_per_event + syncs_per_event) * _TPIU_FRAME
        total_syncs = int(syncs_before[-1])
        self._advance_frames(total_frames)
        self._buffer = int(cumulative[-1]) % _TPIU_PAYLOAD
        self._m_frames.inc(total_frames)
        self._m_sync_frames.inc(total_syncs)
        self._m_payload.inc(_TPIU_PAYLOAD * total_frames)
        return batch


class PtmFifoStage(StageBase):
    """CPU-internal PTM FIFO: frame bytes accumulate, drain in bulk.

    Reproduces :class:`repro.soc.cpu.PtmFifoModel` batching: bytes
    queue until occupancy reaches the threshold, then everything
    drains at 4 bytes per trace-port cycle.  At the tail everything
    still buffered drains as one delivering flush — even when the
    final push itself crosses the threshold (the reference loop once
    dropped that drain handle, silently losing the session's last
    vectors; both dataplanes now deliver them).
    """

    name = "ptm_fifo"

    def __init__(
        self,
        threshold_bytes: int = 176,
        port_clock: ClockDomain = RTAD_CLOCK,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.threshold_bytes = threshold_bytes
        self.port_clock = port_clock
        self.reset()
        self._m_occupancy = self.metrics.gauge("ptm_fifo.occupancy")
        self._m_flushes = self.metrics.counter("ptm_fifo.flushes")
        self._m_flushed_bytes = self.metrics.counter("ptm_fifo.flushed_bytes")

    def reset(self) -> None:
        self._occupancy = 0
        self._last_ns = 0.0

    def export_state(self) -> dict:
        return {"occupancy": self._occupancy, "last_ns": self._last_ns}

    def restore_state(self, state: dict) -> None:
        self._occupancy = state["occupancy"]
        self._last_ns = state["last_ns"]

    def _drain_ns(self, occupancy: int) -> float:
        return self.port_clock.to_ns((occupancy + 3) // 4)

    def _record_flush(self, flush: FifoFlush) -> None:
        self._m_flushes.inc()
        self._m_flushed_bytes.inc(flush.amount)
        self._m_occupancy.set(flush.amount)
        self._m_occupancy.set(0)

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail:
            flushes: List[FifoFlush] = []
            occupancy = self._occupancy + batch.tail_frame_bytes
            if occupancy > 0:
                # End of session: everything left drains in one go and
                # carries the pending vectors with it, whether or not
                # the tail bytes happened to cross the threshold.
                flush = FifoFlush(
                    event_pos=0,
                    done_ns=self._last_ns + self._drain_ns(occupancy),
                    amount=occupancy,
                    delivers=True,
                )
                self._record_flush(flush)
                flushes.append(flush)
            self._occupancy = 0
            batch.flushes = flushes
            return batch
        if len(batch) == 0:
            return batch
        assert batch.frame_bytes is not None and batch.events is not None
        times = batch.events.time_ns
        cumulative = self._occupancy + np.cumsum(batch.frame_bytes)
        flushes = []
        flushed = 0
        threshold = self.threshold_bytes
        while True:
            i = int(
                np.searchsorted(cumulative, flushed + threshold, side="left")
            )
            if i >= len(cumulative):
                break
            amount = int(cumulative[i]) - flushed
            flush = FifoFlush(
                event_pos=i,
                done_ns=float(times[i]) + self._drain_ns(amount),
                amount=amount,
            )
            self._record_flush(flush)
            flushes.append(flush)
            flushed = int(cumulative[i])
        self._occupancy = int(cumulative[-1]) - flushed
        self._m_occupancy.set(self._occupancy)
        self._last_ns = float(times[-1])
        batch.flushes = flushes
        return batch


class IgmStage(StageBase):
    """Address map + vector encode over a batch of events.

    The mapper lookup becomes one ``searchsorted`` against the sorted
    monitored-address table (indices are assigned in sorted order, so
    position + 1 *is* the mapper index), and window completion becomes
    a sliding-window view over the mapped-index stream.  The stage
    mirrors its progress back onto the wrapped
    :class:`~repro.igm.vector_encoder.VectorEncoder` so sequence
    numbers stay coherent if the caller mixes batched and per-event
    use of the same SoC.
    """

    name = "igm"

    def __init__(
        self,
        mapper: AddressMapper,
        encoder: VectorEncoder,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        if encoder.stride != 1:
            raise ValueError(
                "batched IGM stage supports stride=1 encoders only"
            )
        self.mapper = mapper
        self.encoder = encoder
        self.reset()
        self._m_hits = self.metrics.counter("igm.mapper.hits")
        self._m_misses = self.metrics.counter("igm.mapper.misses")
        self._m_pushes = self.metrics.counter("igm.encoder.pushes")
        self._m_vectors = self.metrics.counter("igm.vectors_encoded")

    def reset(self) -> None:
        self._tail = np.zeros(0, dtype=np.int64)
        self._pushes = 0
        self._sequence = 0

    def export_state(self) -> dict:
        return {
            "tail": [int(v) for v in self._tail],
            "pushes": self._pushes,
            "sequence": self._sequence,
        }

    def restore_state(self, state: dict) -> None:
        self._tail = np.asarray(state["tail"], dtype=np.int64)
        self._pushes = state["pushes"]
        self._sequence = state["sequence"]
        self._sync_encoder()

    def _window_values(self, window: np.ndarray) -> np.ndarray:
        if self.encoder.mode is EncoderMode.SEQUENCE:
            return np.array(window, dtype=np.int64)
        counts = np.bincount(
            window, minlength=self.encoder.vocabulary_size
        ).astype(np.int64)
        return counts[: self.encoder.vocabulary_size]

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail or len(batch) == 0:
            self._sync_encoder()
            return batch
        ev = batch.events
        assert ev is not None
        table = np.fromiter(
            self.mapper.entries, np.int64, count=self.mapper.size
        )
        if len(table):
            pos = np.searchsorted(table, ev.target)
            safe = np.minimum(pos, len(table) - 1)
            hit = (pos < len(table)) & (table[safe] == ev.target)
        else:
            safe = np.zeros(len(ev), dtype=np.int64)
            hit = np.zeros(len(ev), dtype=bool)
        hit_idx = np.nonzero(hit)[0]
        num_hits = int(len(hit_idx))
        num_misses = len(ev) - num_hits
        self.mapper.hits += num_hits
        self.mapper.misses += num_misses
        self._m_hits.inc(num_hits)
        self._m_misses.inc(num_misses)
        self._m_pushes.inc(num_hits)

        window = self.encoder.window
        prior = self._pushes
        indices = (safe[hit_idx] + 1).astype(np.int64)
        vectors: List[InputVector] = []
        positions: List[int] = []
        emit_from = max(0, window - 1 - prior)
        if num_hits > emit_from:
            buf = np.concatenate([self._tail, indices])
            if window == 1:
                windows = indices[emit_from:, None]
            else:
                view = np.lib.stride_tricks.sliding_window_view(buf, window)
                start = len(self._tail) + emit_from - window + 1
                windows = view[start : start + (num_hits - emit_from)]
            for row, k in enumerate(range(emit_from, num_hits)):
                event_pos = int(hit_idx[k])
                vectors.append(
                    InputVector(
                        values=self._window_values(windows[row]),
                        sequence_number=self._sequence,
                        trigger_address=int(ev.target[event_pos]),
                        trigger_cycle=int(ev.cycle[event_pos]),
                    )
                )
                self._sequence += 1
                positions.append(event_pos)
        # carry the last window-1 mapped indices across the boundary
        keep = min(window - 1, prior + num_hits)
        if keep:
            merged = (
                indices
                if num_hits >= keep
                else np.concatenate([self._tail, indices])
            )
            self._tail = merged[len(merged) - keep :].copy()
        self._pushes = prior + num_hits
        self._m_vectors.inc(len(vectors))
        self._sync_encoder()
        batch.vectors = vectors
        batch.vector_event_pos = np.asarray(positions, dtype=np.int64)
        return batch

    def _sync_encoder(self) -> None:
        """Mirror progress onto the wrapped per-event encoder."""
        encoder = self.encoder
        encoder._sequence_number = self._sequence
        encoder.vectors_emitted = self._sequence
        encoder._history.clear()
        encoder._history.extend(int(v) for v in self._tail)


class DeliverStage(StageBase):
    """Join encoded vectors to FIFO drains and hand them to the sink.

    A vector leaves the IGM when the PTM FIFO drain that carries its
    trace bytes completes; the fixed IGM vectorize latency is added on
    top, exactly as in ``RtadSoc._deliver``.
    """

    name = "deliver"

    def __init__(
        self,
        sink: Callable[[InputVector, float], None],
        igm_pipe_ns: float = 24.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.sink = sink
        self.igm_pipe_ns = igm_pipe_ns
        self.reset()
        self._m_read = self.metrics.histogram("pipeline.read_ns")
        self._m_vectorize = self.metrics.histogram("pipeline.vectorize_ns")
        self._m_delivered = self.metrics.counter("pipeline.deliver.vectors")
        self._m_lost = self.metrics.counter("pipeline.deliver.lost_vectors")

    def reset(self) -> None:
        self._pending: List[InputVector] = []

    def export_state(self) -> dict:
        return {
            "pending": [
                {
                    "values": [int(v) for v in vector.values],
                    "sequence_number": vector.sequence_number,
                    "trigger_address": vector.trigger_address,
                    "trigger_cycle": vector.trigger_cycle,
                }
                for vector in self._pending
            ]
        }

    def restore_state(self, state: dict) -> None:
        self._pending = [
            InputVector(
                values=np.asarray(doc["values"], dtype=np.int64),
                sequence_number=doc["sequence_number"],
                trigger_address=doc["trigger_address"],
                trigger_cycle=doc["trigger_cycle"],
            )
            for doc in state["pending"]
        ]

    def _deliver(self, vectors: List[InputVector], flush_ns: float) -> None:
        for vector in vectors:
            trigger_ns = CPU_CLOCK.to_ns(vector.trigger_cycle)
            self._m_read.observe(max(0.0, flush_ns - trigger_ns))
            self._m_vectorize.observe(self.igm_pipe_ns)
            self._m_delivered.inc()
            self.sink(vector, flush_ns + self.igm_pipe_ns)

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail:
            for flush in batch.flushes:
                if flush.delivers:
                    self._deliver(self._pending, flush.done_ns)
                    self._pending = []
            if self._pending:
                # Safety net: a tail whose flushes were all marked
                # non-delivering strands its pending vectors; count
                # the loss instead of leaking them into the next
                # session.  (PtmFifoStage no longer produces such a
                # tail — its end-of-session drain always delivers.)
                self._m_lost.inc(len(self._pending))
                self._pending = []
            return batch
        vectors = batch.vectors
        flushes = batch.flushes
        if not flushes:
            self._pending.extend(vectors)
            return batch
        bounds = np.fromiter(
            (flush.event_pos for flush in flushes),
            np.int64,
            count=len(flushes),
        )
        slots = (
            np.searchsorted(bounds, batch.vector_event_pos, side="left")
            if len(vectors)
            else np.zeros(0, dtype=np.int64)
        )
        for index, flush in enumerate(flushes):
            group = [
                vectors[k] for k in np.nonzero(slots == index)[0]
            ]
            if index == 0 and self._pending:
                group = self._pending + group
                self._pending = []
            if group:
                self._deliver(group, flush.done_ns)
        leftover = np.nonzero(slots == len(flushes))[0]
        self._pending.extend(vectors[k] for k in leftover)
        return batch
