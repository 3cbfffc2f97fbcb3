"""The RTAD MPSoC: end-to-end anomaly-detection simulation.

Two run modes:

- :meth:`RtadSoc.run_events` — the *full path*: branch events go
  through PTM packet encoding, the CPU-internal PTM FIFO batching,
  TPIU framing, the (functionally exact) address mapper + vector
  encoder, then the MCM queue and the GPU engine.  Used by the
  integration tests and examples on short traces.
- :meth:`RtadSoc.run_monitored_stream` — the *queueing path* for the
  long Fig. 8 experiments: already-filtered monitored IDs with
  explicit arrival times, the trace-path latency folded in as the
  profile's analytic transfer delay.  The MCM/GPU portion is
  identical; only the per-raw-branch byte simulation is summarized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.errors import SocConfigError
from repro.igm.address_mapper import AddressMapper
from repro.igm.vector_encoder import EncoderMode, VectorEncoder
from repro.mcm.driver import MlMiaowDriver
from repro.mcm.engines import ProtocolConverter
from repro.mcm.mcm import InferenceRecord, Mcm, McmConfig
from repro.ml.detector import ThresholdDetector
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.soc.clocks import CPU_CLOCK
from repro.soc.metrics import rtad_transfer_breakdown
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.cfg import BranchEvent
from repro.workloads.program import SyntheticProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class RtadConfig:
    """SoC-level configuration."""

    model_kind: str = "lstm"            # "elm" | "lstm"
    window: int = 1                     # VE window (1 for lstm, 16 for elm)
    fifo_depth: int = 16
    igm_pipe_ns: float = 24.0           # decode + 2-cycle vectorize
    score_smoothing: int = 1            # interrupt-manager accumulator
    # Clock-scaling knobs (ablations; paper defaults).
    rtad_clock_hz: float = 125_000_000.0
    gpu_clock_hz: float = 50_000_000.0
    # Trace dataplane: "batched" runs the staged numpy pipeline
    # (repro.pipeline), "loop" the per-event reference implementation.
    # Both are behaviour-identical; batched is much faster.
    dataplane: str = "batched"
    chunk_events: int = 32768           # batched dataplane chunk size
    #: Run every inference twice from the same model state and flag
    #: divergent scores on the record (repro.durability voting mode).
    dual_run: bool = False
    #: Optional seeded fault-injection plan (repro.faults).  Event and
    #: FIFO-overflow channels apply identically to both dataplanes; a
    #: None (or all-zero-rate) plan leaves the SoC byte-identical.
    fault_plan: Optional["FaultPlan"] = None
    #: Trace grammar: any name in ``repro.frontends.frontend_names()``
    #: ("coresight" | "etrace").  Both grammars produce identical
    #: verdicts and IGM vectors; only byte counts (and therefore FIFO
    #: flush timestamps) differ.
    frontend: str = "coresight"

    def __post_init__(self) -> None:
        if self.model_kind not in ("elm", "lstm"):
            raise SocConfigError(f"unknown model kind {self.model_kind!r}")
        if self.model_kind == "lstm" and self.window != 1:
            raise SocConfigError("LSTM deployment uses window=1 vectors")
        if self.dataplane not in ("batched", "loop"):
            raise SocConfigError(f"unknown dataplane {self.dataplane!r}")
        if self.chunk_events < 1:
            raise SocConfigError("chunk_events must be >= 1")
        # Deferred import: repro.frontends late-binds its builtins.
        from repro.frontends import frontend_names

        if self.frontend not in frontend_names():
            raise SocConfigError(
                f"unknown trace frontend {self.frontend!r} "
                f"(have: {', '.join(frontend_names())})"
            )

    def mcm_config(self) -> McmConfig:
        """The MCM settings this SoC configuration implies."""
        return McmConfig(
            fifo_depth=self.fifo_depth,
            score_smoothing=self.score_smoothing,
            rtad_clock_hz=self.rtad_clock_hz,
            gpu_clock_hz=self.gpu_clock_hz,
            dual_run=self.dual_run,
        )


@dataclass
class AttackTrialResult:
    """Outcome of one injected-attack timing trial."""

    onset_ns: float
    detected: bool
    detection_latency_us: Optional[float]
    interrupts: int
    inferences: int
    dropped_vectors: int
    overflowed: bool
    false_interrupts_before_onset: int


class RtadSoc:
    """Host CPU + MLPU, assembled around one deployed model."""

    def __init__(
        self,
        program: SyntheticProgram,
        driver: MlMiaowDriver,
        converter: ProtocolConverter,
        monitored_addresses: Sequence[int],
        detector: Optional[ThresholdDetector] = None,
        config: Optional[RtadConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.program = program
        self.config = config or RtadConfig()
        self.metrics = metrics or NULL_REGISTRY
        self.mapper = AddressMapper(metrics=self.metrics)
        self.mapper.load(monitored_addresses)
        self.encoder = VectorEncoder(
            mode=EncoderMode.SEQUENCE,
            window=self.config.window,
            vocabulary_size=self.mapper.size + 1,
            metrics=self.metrics,
        )
        if self.metrics.enabled:
            # The driver (and its GPU) are built by the caller; adopt
            # them into this SoC's registry so kernel launches and
            # wavefront cycles land in the same snapshot.
            driver.bind_metrics(self.metrics)
        self.mcm = Mcm(
            driver=driver,
            converter=converter,
            detector=detector,
            config=self.config.mcm_config(),
            metrics=self.metrics,
        )
        # Imported here: repro.frontends late-binds its builtins, and
        # repro.pipeline depends on repro.soc.clocks, so module-level
        # imports would be circular through the repro.soc package
        # __init__.
        from repro.frontends import make_frontend
        from repro.pipeline import build_trace_pipeline
        from repro.soc.loop import LoopDataplane

        self.frontend = make_frontend(self.config.frontend)
        self.pipeline = build_trace_pipeline(
            self.mapper,
            self.encoder,
            self.mcm.push,
            frontend=self.frontend,
            igm_pipe_ns=self.config.igm_pipe_ns,
            metrics=self.metrics,
            chunk_events=self.config.chunk_events,
            fault_plan=self.config.fault_plan,
        )
        self.loop = LoopDataplane(
            self.mapper,
            self.encoder,
            self.mcm.push,
            frontend=self.frontend,
            igm_pipe_ns=self.config.igm_pipe_ns,
            metrics=self.metrics,
            fault_plan=self.config.fault_plan,
        )
        self._m_events = self.metrics.counter("soc.events")
        self._m_monitored_ids = self.metrics.counter("soc.monitored_ids")
        # Fig. 7 mirror, in simulated nanoseconds per delivered vector:
        # (1) read = PTM FIFO batching + trace-port drain, (2) the
        # fixed IGM vectorize stage (both observed by the dataplanes);
        # (3) copy is mcm.copy_ns.
        self._m_read = self.metrics.histogram("pipeline.read_ns")
        self._m_e2e = self.metrics.histogram("pipeline.e2e_ns")
        self._observed_records = 0

    # ------------------------------------------------------------------
    # Full-path run (byte-accurate trace path)
    # ------------------------------------------------------------------

    def run_events(
        self,
        events: Sequence[BranchEvent],
        dataplane: Optional[str] = None,
    ) -> List[InferenceRecord]:
        """Run raw branch events through the complete pipeline.

        Every call is an independent trace session: per-session state
        (PTM compression context, pending atoms, TPIU partial frame,
        PTM FIFO bytes, encoder window, LSTM recurrent state, MCM busy
        window) is reset first, so back-to-back calls behave like
        fresh SoCs.  ``mcm.records`` and the observability counters
        keep accumulating — they are the lifetime log.

        ``dataplane`` overrides the configured implementation:
        ``"batched"`` (the staged numpy pipeline) or ``"loop"`` (the
        per-event reference).  Both produce identical records.
        """
        mode = dataplane or self.config.dataplane
        if mode not in ("batched", "loop"):
            raise SocConfigError(f"unknown dataplane {mode!r}")
        with self.metrics.trace("soc.run_events", events=len(events)):
            self._m_events.inc(len(events))
            self.reset_session()
            if len(events):
                if mode == "batched":
                    self.pipeline.run(events)
                else:
                    self.loop.run(events)
            with self.metrics.trace("mcm.finalize"):
                records = self.mcm.finalize()
            self._observe_records(records)
            return records

    def reset_session(self) -> None:
        """Restore all per-session dataplane and model state.

        Fixes the state leakage between repeated ``run_events`` calls:
        residual PTM FIFO bytes, the CoreSight encoder's compression
        base / pending atoms / sync countdown, the TPIU partial frame,
        the vector-encoder window, LSTM recurrent state, and the MCM
        busy window all belong to one trace session.  On a freshly
        built SoC every step below is a no-op, so first runs are
        unaffected.
        """
        self.loop.reset()
        self.pipeline.reset()
        self.encoder.reset(reset_sequence=True)
        self.mcm.driver.reset()
        self.mcm.reset_session()

    def _observe_records(self, records: List[InferenceRecord]) -> None:
        """End-to-end latency per inference not yet observed.

        ``Mcm.records`` accumulates across runs, so only the tail that
        appeared since the last observation is recorded.
        """
        for record in records[self._observed_records:]:
            trigger_ns = CPU_CLOCK.to_ns(record.trigger_cycle)
            self._m_e2e.observe(max(0.0, record.done_ns - trigger_ns))
        self._observed_records = len(records)

    # ------------------------------------------------------------------
    # Queueing-path run (pre-filtered monitored stream)
    # ------------------------------------------------------------------

    def path_latency_ns(self) -> float:
        """Analytic trace-path latency for this benchmark (Fig. 7)."""
        breakdown = rtad_transfer_breakdown(
            self.program.profile, window=self.config.window
        )
        # Transfer step (3) and queueing are already modeled inside the
        # MCM; the path latency covers steps (1) and (2).
        return (breakdown.read_us + breakdown.vectorize_us) * 1e3

    def run_monitored_stream(
        self,
        ids: Sequence[int],
        times_ns: Sequence[float],
        path_latency_ns: Optional[float] = None,
    ) -> List[InferenceRecord]:
        """Feed already-filtered monitored branch IDs with timestamps."""
        if len(ids) != len(times_ns):
            raise SocConfigError("ids/times length mismatch")
        latency = (
            self.path_latency_ns()
            if path_latency_ns is None
            else path_latency_ns
        )
        with self.metrics.trace(
            "soc.run_monitored_stream", ids=len(ids)
        ):
            self._m_monitored_ids.inc(len(ids))
            for branch_id, time_ns in zip(ids, times_ns):
                vector = self.encoder.push(
                    index=int(branch_id),
                    address=0,
                    cycle=int(CPU_CLOCK.cycles(time_ns)),
                )
                if vector is not None:
                    self._m_read.observe(latency)
                    self.mcm.push(vector, time_ns + latency)
            records = self.mcm.finalize()
            self._observe_records(records)
            return records

    # ------------------------------------------------------------------
    # Attack trials (Fig. 8)
    # ------------------------------------------------------------------

    def run_attack_trial(
        self,
        normal_ids: Sequence[int],
        mean_interval_us: float,
        gadget_ids: Sequence[int],
        onset_index: int,
        gadget_interval_us: float = 2.0,
        seed: int = 0,
        timeout_us: float = 10_000.0,
    ) -> AttackTrialResult:
        """Inject a gadget into a monitored stream; time the detection.

        Normal arrivals are exponential with the benchmark's monitored
        interval; the gadget executes densely (an attacker sprinting
        through reused code).

        Following the paper's metric — "the total time taken for our
        inference engine ... to make a judgment on the normality of
        the behavior of a program immediately after the program
        executes a branch instruction" — the detection latency is the
        time from the first anomalous branch's retirement until the
        inference containing it completes (trace path + queueing +
        engine service).  Whether the model actually *flags* the
        anomaly is reported separately via ``detected``.
        """
        if not 0 < onset_index <= len(normal_ids):
            raise SocConfigError("onset index outside the normal stream")
        rng = make_rng(derive_seed(seed, "attack-trial", onset_index))
        gaps = rng.exponential(mean_interval_us * 1e3, len(normal_ids))
        normal_times = np.cumsum(gaps)

        onset_ns = float(normal_times[onset_index - 1]) + 1.0
        gadget_times = onset_ns + np.arange(len(gadget_ids)) * (
            gadget_interval_us * 1e3
        )
        shift = (
            float(gadget_times[-1]) - onset_ns + gadget_interval_us * 1e3
        )
        ids = list(normal_ids[:onset_index]) + list(gadget_ids) + list(
            normal_ids[onset_index:]
        )
        times = np.concatenate(
            [
                normal_times[:onset_index],
                gadget_times,
                normal_times[onset_index:] + shift,
            ]
        )
        records = self.run_monitored_stream(ids, times)

        interrupts = self.mcm.interrupts.fired
        false_before = sum(1 for i in interrupts if i.time_ns < onset_ns)
        # One deadline for the whole trial: the window filter below and
        # the judgment check further down must use the same instant, so
        # the us -> ns conversion happens exactly once.
        deadline_ns = onset_ns + timeout_us * 1e3
        detection = [
            i for i in interrupts
            if onset_ns <= i.time_ns <= deadline_ns
        ]
        # Judgment latency: the inference whose window first contains
        # the injected branch.  Event index onset_index completes the
        # vector with sequence number onset_index - (window - 1); if
        # the FIFO dropped it (overflow), the next surviving inference
        # carries the evidence.
        target_sequence = onset_index - (self.config.window - 1)
        judgment = next(
            (
                r for r in records
                if r.sequence_number >= target_sequence
                and r.done_ns >= onset_ns
            ),
            None,
        )
        # A judgment that lands after the timeout window counts as "no
        # judgment in time" — the trial reports None, matching how
        # ``detected`` is bounded above.
        latency_us: Optional[float] = None
        if judgment is not None and judgment.done_ns <= deadline_ns:
            latency_us = (judgment.done_ns - onset_ns) / 1e3
        return AttackTrialResult(
            onset_ns=onset_ns,
            detected=bool(detection),
            detection_latency_us=latency_us,
            interrupts=len(interrupts),
            inferences=len(records),
            dropped_vectors=self.mcm.dropped_vectors,
            overflowed=self.mcm.overflowed,
            false_interrupts_before_onset=false_before,
        )
