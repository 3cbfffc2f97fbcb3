"""Multi-tenant deployments: N monitored programs, one ML-MIAOW.

The paper deploys one model per SoC; production monitoring wants one
RTAD engine watching *several* programs at once.  :class:`SocManager`
runs N :class:`Deployment` tenants, each with its own trace dataplane
(address mapper, vector encoder, staged pipeline) and its own MCM lane
(FIFO, smoothing, detector, interrupt manager, records), while a
single GPU engine serves all lanes through round-robin arbitration
(:class:`repro.mcm.arbiter.ArbitratedMcm`).

Isolation contract: tenant A's trace volume can *delay* tenant B
(shared engine = longer queueing) but can never corrupt B's stream —
vectors, sequence numbers, scores, and records stay per-lane.

**Health state machine.**  Each tenant carries a health state::

    HEALTHY --(sustained loss rate)--> DEGRADED --(clean rounds)--> HEALTHY
       |                                  |
       +---(watchdog trips / crash)-------+--> QUARANTINED
                                               |  skipped for
                                               |  probation_rounds
                                               v
                                           DEGRADED (probation)

DEGRADED is advisory — the tenant keeps running, the state is visible
via :meth:`SocManager.health` and the ``socmgr.health.*`` counters.
QUARANTINED is enforced: the tenant's traces are skipped (its lane
receives no vectors), so one faulty tenant cannot starve the shared
engine; after ``probation_rounds`` skipped rounds it is re-admitted as
DEGRADED and must stay clean to recover.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Collection,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.coresight.ptm import PtmConfig
from repro.durability.journal import (
    MIN_RECORD_BYTES,
    Journal,
    RecordKind,
    decode_json_payload,
    decode_trace_chunk,
    encode_json_payload,
    encode_trace_chunk,
)
from repro.errors import (
    JournalCorruptionError,
    ProcessCrashError,
    SocConfigError,
    TenantCrashError,
)
from repro.faults.crashpoints import CrashPointInjector
from repro.faults.service import ServiceFaultInjector, crash_fraction
from repro.igm.address_mapper import AddressMapper
from repro.igm.vector_encoder import EncoderMode, InputVector, VectorEncoder
from repro.mcm.arbiter import ArbitratedMcm
from repro.mcm.driver import MlMiaowDriver
from repro.mcm.engines import ProtocolConverter
from repro.mcm.mcm import InferenceRecord, Mcm
from repro.ml.detector import ThresholdDetector
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.soc.rtad import RtadConfig
from repro.workloads.cfg import BranchEvent


class TenantHealth(enum.Enum):
    """Health of one tenant, as judged by the manager."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds of the tenant health state machine."""

    #: Per-round injected-loss + FIFO-drop rate (losses / trace events)
    #: above which a round counts as *bad*.
    degrade_loss_rate: float = 0.05
    #: Consecutive bad rounds before HEALTHY -> DEGRADED.
    sustain_rounds: int = 2
    #: Watchdog trips within one round that force QUARANTINED.
    quarantine_trips: int = 1
    #: Rounds a quarantined tenant sits out before re-admission.
    probation_rounds: int = 2
    #: Consecutive clean rounds before DEGRADED -> HEALTHY.
    recover_rounds: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.degrade_loss_rate <= 1.0:
            raise SocConfigError("degrade_loss_rate must be in [0, 1]")
        for name in (
            "sustain_rounds",
            "quarantine_trips",
            "probation_rounds",
            "recover_rounds",
        ):
            if getattr(self, name) < 1:
                raise SocConfigError(f"{name} must be >= 1")


@dataclass
class Deployment:
    """One tenant: a monitored program's model bound to the shared SoC.

    The ``driver`` must wrap the *shared* GPU engine — SocManager
    refuses mixed engines; arbitration is the whole point.
    """

    name: str
    driver: MlMiaowDriver
    converter: ProtocolConverter
    monitored_addresses: Sequence[int]
    detector: Optional[ThresholdDetector] = None
    config: RtadConfig = field(default_factory=RtadConfig)
    ptm_config: Optional[PtmConfig] = None


def refuse_unknown_tenants(
    traces: Mapping[str, object], known: Collection[str]
) -> None:
    """Raise SocConfigError naming every key of ``traces`` that is
    not a known tenant name (non-``str`` keys included)."""
    unknown = [
        key for key in traces
        if not isinstance(key, str) or key not in known
    ]
    if unknown:
        # Sorted by repr: mixed key types do not order among themselves.
        raise SocConfigError(f"unknown tenants {sorted(unknown, key=repr)}")


class TenantRuntime:
    """Per-tenant dataplane + MCM lane (internal to SocManager)."""

    def __init__(
        self,
        index: int,
        deployment: Deployment,
        metrics: MetricsRegistry,
    ) -> None:
        self.index = index
        self.name = deployment.name
        self.deployment = deployment
        self.metrics = metrics
        config = deployment.config
        self.fault_plan = config.fault_plan
        self.mapper = AddressMapper(metrics=metrics)
        self.mapper.load(deployment.monitored_addresses)
        self.encoder = VectorEncoder(
            mode=EncoderMode.SEQUENCE,
            window=config.window,
            vocabulary_size=self.mapper.size + 1,
            metrics=metrics,
        )
        self.mcm = Mcm(
            driver=deployment.driver,
            converter=deployment.converter,
            detector=deployment.detector,
            config=config.mcm_config(),
            metrics=metrics,
        )
        self.schedule: List[Tuple[InputVector, float]] = []
        # Deferred imports: repro.pipeline depends on repro.soc.clocks
        # and repro.frontends late-binds its builtins; module-level
        # imports here would be circular (see rtad.py).
        from repro.frontends import make_frontend
        from repro.pipeline import build_trace_pipeline
        from repro.soc.loop import LoopDataplane

        self.frontend = make_frontend(
            config.frontend, ptm_config=deployment.ptm_config
        )
        if config.dataplane == "loop":
            self.pipeline = LoopDataplane(
                self.mapper,
                self.encoder,
                self._capture,
                frontend=self.frontend,
                igm_pipe_ns=config.igm_pipe_ns,
                metrics=metrics,
                fault_plan=self.fault_plan,
            )
        else:
            self.pipeline = build_trace_pipeline(
                self.mapper,
                self.encoder,
                self._capture,
                frontend=self.frontend,
                igm_pipe_ns=config.igm_pipe_ns,
                metrics=metrics,
                chunk_events=config.chunk_events,
                fault_plan=self.fault_plan,
            )
        candidates = getattr(self.pipeline, "stages", [self.pipeline])
        self._fault_stages = [
            stage for stage in candidates if hasattr(stage, "fault_drops")
        ]
        self._observed_records = 0
        # --- health bookkeeping (plain attributes: decisions must not
        # depend on whether an obs registry is attached) ---
        self.health = TenantHealth.HEALTHY
        self.crashes = 0
        self._bad_rounds = 0
        self._clean_rounds = 0
        self._quarantined_rounds = 0
        self._seen_loss = 0
        self._seen_trips = 0

    def _capture(self, vector: InputVector, deliver_ns: float) -> None:
        """Pipeline sink: record the delivery for the global merge."""
        self.schedule.append((vector, deliver_ns))

    def reset(self) -> None:
        self.schedule = []
        self.pipeline.reset()
        self.encoder.reset(reset_sequence=True)
        self.mcm.driver.reset()

    def run_trace(
        self, events: Sequence[BranchEvent], round_index: int
    ) -> None:
        """Run this round's trace, honouring a planned tenant crash."""
        fraction = crash_fraction(self.fault_plan, round_index)
        if fraction is None:
            self.pipeline.run(events)
            return
        cut = int(len(events) * fraction)
        if cut:
            self.pipeline.run(events[:cut])
        self.crashes += 1
        raise TenantCrashError(
            f"tenant {self.name!r} crashed at event {cut}/{len(events)} "
            f"of round {round_index}"
        )

    def loss_delta(self) -> int:
        """Losses since last asked: lane FIFO drops + injected drops."""
        total = self.mcm.fifo.drops + sum(
            stage.fault_drops for stage in self._fault_stages
        )
        delta = total - self._seen_loss
        self._seen_loss = total
        return delta

    def take_new_records(self) -> List[InferenceRecord]:
        records = self.mcm.records[self._observed_records :]
        self._observed_records = len(self.mcm.records)
        return records


class SocManager:
    """Runs N tenant deployments sharing one inference engine.

    Each ``run_events`` call is one monitoring round: every tenant's
    branch trace goes through its *own* staged dataplane (tenant trace
    paths are independent hardware and proceed in parallel), the
    resulting vector deliveries are merged in global time order, and
    the shared engine serves the lanes under round-robin arbitration.

    ``deadline_us`` arms the arbiter's per-service watchdog;
    ``health_policy`` tunes the tenant health state machine (see the
    module docstring).  Both default to the permissive behaviour the
    single-fault-free tests expect: no watchdog, health tracked but
    never quarantining without watchdog trips or a crash.
    """

    def __init__(
        self,
        deployments: Sequence[Deployment],
        metrics: Optional[MetricsRegistry] = None,
        deadline_us: Optional[float] = None,
        health_policy: Optional[HealthPolicy] = None,
        *,
        batch_limit: int = 1,
        journal: Optional[Journal] = None,
        checkpoint_interval_events: Optional[int] = None,
        journal_chunk_events: int = 8192,
        crash_points: Optional[CrashPointInjector] = None,
    ) -> None:
        if not deployments:
            raise SocConfigError("SocManager needs at least one tenant")
        # Validate the arbiter knobs here, with the manager's own
        # vocabulary, instead of letting a bad value surface as an
        # arbiter failure deep inside a monitoring round.
        if deadline_us is not None and not deadline_us > 0:
            raise SocConfigError(
                f"deadline_us must be positive (or None), got {deadline_us!r}"
            )
        if not isinstance(batch_limit, int) or batch_limit < 1:
            raise SocConfigError(
                f"batch_limit must be a positive integer, got {batch_limit!r}"
            )
        if journal_chunk_events < 1:
            raise SocConfigError("journal_chunk_events must be >= 1")
        if (
            checkpoint_interval_events is not None
            and checkpoint_interval_events < 1
        ):
            raise SocConfigError(
                "checkpoint_interval_events must be >= 1 (or None)"
            )
        names = [d.name for d in deployments]
        if len(set(names)) != len(names):
            raise SocConfigError(f"duplicate tenant names in {names}")
        engines = {id(d.driver.gpu) for d in deployments}
        if len(engines) != 1:
            raise SocConfigError(
                "all tenants must share a single ML-MIAOW engine; "
                "build every driver around the same Gpu instance"
            )
        self.metrics = metrics or NULL_REGISTRY
        # The engine is shared by every tenant, so its counters
        # (gpu.*, miaow.fastpath.*, miaow.batch.*) belong to the
        # manager-level registry, not to any one tenant's.
        deployments[0].driver.gpu.bind_metrics(self.metrics)
        self.policy = health_policy or HealthPolicy()
        self.deadline_us = deadline_us
        self.tenants: List[TenantRuntime] = [
            TenantRuntime(
                index,
                deployment,
                metrics=self._tenant_registry(),
            )
            for index, deployment in enumerate(deployments)
        ]
        self.arbiter = ArbitratedMcm(
            [tenant.mcm for tenant in self.tenants],
            metrics=self.metrics,
            deadline_us=deadline_us,
            service_faults=[
                ServiceFaultInjector.from_plan(tenant.fault_plan)
                for tenant in self.tenants
            ],
            batch_limit=batch_limit,
        )
        self._round = 0
        # --- durability (repro.durability; docs/DURABILITY.md) ---
        self._journal = journal
        self._checkpoint_interval = checkpoint_interval_events
        self._journal_chunk_events = journal_chunk_events
        self._crash_points = crash_points
        self._replaying = False
        self._events_since_checkpoint = 0
        self._m_runs = self.metrics.counter("socmgr.runs")
        self._m_recoveries = self.metrics.counter("socmgr.recoveries")
        self._m_replayed = self.metrics.counter("socmgr.rounds_replayed")
        self._m_events = self.metrics.counter("socmgr.events")
        self._m_vectors = self.metrics.counter("socmgr.vectors")
        self._m_crashes = self.metrics.counter("socmgr.crashes")
        self._m_quarantines = self.metrics.counter(
            "socmgr.health.quarantines"
        )
        self._m_readmissions = self.metrics.counter(
            "socmgr.health.readmissions"
        )
        self._m_degradations = self.metrics.counter(
            "socmgr.health.degradations"
        )
        self._m_skipped = self.metrics.counter(
            "socmgr.health.skipped_rounds"
        )

    def _tenant_registry(self) -> MetricsRegistry:
        return MetricsRegistry() if self.metrics.enabled else NULL_REGISTRY

    def tenant(self, name: str) -> TenantRuntime:
        for runtime in self.tenants:
            if runtime.name == name:
                return runtime
        raise SocConfigError(f"unknown tenant {name!r}")

    def health(self) -> Dict[str, TenantHealth]:
        """Current health state of every tenant."""
        return {runtime.name: runtime.health for runtime in self.tenants}

    # ------------------------------------------------------------------
    # Tenant membership
    # ------------------------------------------------------------------

    def remove_tenant(self, name: str) -> Deployment:
        """Detach a tenant between rounds; returns its deployment."""
        runtime = self.tenant(name)
        if len(self.tenants) == 1:
            raise SocConfigError("cannot remove the last tenant")
        self.arbiter.remove_lane(runtime.index)
        self.tenants.remove(runtime)
        for index, survivor in enumerate(self.tenants):
            survivor.index = index
        return runtime.deployment

    def admit_tenant(self, deployment: Deployment) -> TenantRuntime:
        """Attach a tenant between rounds (fresh runtime, fresh lane)."""
        if deployment.name in {r.name for r in self.tenants}:
            raise SocConfigError(
                f"duplicate tenant name {deployment.name!r}"
            )
        if id(deployment.driver.gpu) != id(
            self.tenants[0].deployment.driver.gpu
        ):
            raise SocConfigError(
                "admitted tenant must share the existing ML-MIAOW engine"
            )
        runtime = TenantRuntime(
            len(self.tenants), deployment, metrics=self._tenant_registry()
        )
        self.tenants.append(runtime)
        self.arbiter.add_lane(
            runtime.mcm,
            ServiceFaultInjector.from_plan(runtime.fault_plan),
        )
        return runtime

    # ------------------------------------------------------------------
    # One monitoring round
    # ------------------------------------------------------------------

    def run_events(
        self, traces: Mapping[str, Sequence[BranchEvent]]
    ) -> Dict[str, List[InferenceRecord]]:
        """One monitoring round; per-tenant records from this round.

        ``traces`` maps tenant names to branch event streams; tenants
        without an entry idle this round.  Unknown names are refused
        rather than silently ignored.  Quarantined tenants are skipped
        (their traces produce no vectors) until probation expires.
        """
        refuse_unknown_tenants(
            traces, {runtime.name for runtime in self.tenants}
        )
        journaling = self._journal is not None and not self._replaying
        if journaling:
            # Write-ahead: the round's inputs are durable before any
            # processing, so a crash anywhere after this point can be
            # recovered by replay (or by discarding the uncommitted
            # tail and re-feeding).
            self._journal_round(self._round, traces)
        with self.metrics.trace(
            "socmgr.run_events", tenants=len(self.tenants)
        ):
            self.arbiter.reset_session()
            round_index = self._round
            self._round += 1
            ran: Dict[str, bool] = {}
            for runtime in self.tenants:
                events = traces.get(runtime.name, ())
                if runtime.health is TenantHealth.QUARANTINED:
                    self._probation_step(runtime, bool(len(events)))
                if runtime.health is TenantHealth.QUARANTINED:
                    runtime.reset()
                    ran[runtime.name] = False
                    continue
                runtime.reset()
                self._m_events.inc(len(events))
                ran[runtime.name] = False
                if len(events):
                    try:
                        runtime.run_trace(events, round_index)
                        ran[runtime.name] = True
                    except TenantCrashError:
                        # Partial deliveries die with the tenant; the
                        # healthy lanes never see its vectors.
                        runtime.schedule = []
                        self._m_crashes.inc()
                        self._quarantine(runtime)
            merged: List[Tuple[float, int, int, InputVector]] = []
            for runtime in self.tenants:
                for order, (vector, deliver_ns) in enumerate(
                    runtime.schedule
                ):
                    merged.append(
                        (deliver_ns, runtime.index, order, vector)
                    )
            merged.sort(key=lambda entry: entry[:3])
            self._sync_batch_eligibility()
            for deliver_ns, lane, _, vector in merged:
                self.arbiter.push(lane, vector, deliver_ns)
            self._m_vectors.inc(len(merged))
            self.arbiter.finalize()
            self._update_health(traces, ran)
            self._m_runs.inc()
            results = {
                runtime.name: runtime.take_new_records()
                for runtime in self.tenants
            }
            if journaling:
                self._commit_round(
                    round_index,
                    sum(len(events) for events in traces.values()),
                )
            return results

    # ------------------------------------------------------------------
    # Durability: write-ahead journal, checkpoints, recovery
    # ------------------------------------------------------------------

    @property
    def next_round(self) -> int:
        """Index of the next round ``run_events`` will run.

        After :meth:`recover` this is the first round whose inputs were
        *not* durably committed — the caller resumes feeding from here.
        """
        return self._round

    def _crash(self, site: str) -> None:
        if self._crash_points is not None:
            self._crash_points.reached(site)

    def _journal_round(
        self, round_index: int, traces: Mapping[str, Sequence[BranchEvent]]
    ) -> None:
        """Make one round's inputs durable ahead of processing."""
        journal = self._journal
        assert journal is not None
        active = [
            runtime.name
            for runtime in self.tenants
            if len(traces.get(runtime.name, ()))
        ]
        journal.append(
            RecordKind.ROUND_BEGIN,
            encode_json_payload({"round": round_index, "tenants": active}),
        )
        self._crash("wal.round_begin")
        step = self._journal_chunk_events
        for runtime in self.tenants:
            events = traces.get(runtime.name, ())
            if not len(events):
                continue
            for chunk_index, start in enumerate(
                range(0, len(events), step)
            ):
                payload = encode_trace_chunk(
                    runtime.name,
                    round_index,
                    chunk_index,
                    events[start : start + step],
                )
                injector = self._crash_points
                if injector is not None and injector.fires(
                    "wal.chunk.torn"
                ):
                    # Crash mid-write: only a prefix of the record
                    # reaches the journal — the torn tail the reopen
                    # scan must tolerate and truncate.
                    keep = (MIN_RECORD_BYTES + len(payload)) // 2
                    journal.append_torn(
                        RecordKind.TRACE_CHUNK, payload, keep
                    )
                    raise ProcessCrashError(
                        "injected process crash at 'wal.chunk.torn' "
                        f"(round {round_index}, tenant {runtime.name!r})"
                    )
                journal.append(RecordKind.TRACE_CHUNK, payload)
                self._crash("wal.chunk")
            self._crash("wal.chunk.done")

    def _commit_round(self, round_index: int, event_count: int) -> None:
        """Mark the round replayable; checkpoint when the interval is due."""
        journal = self._journal
        assert journal is not None
        journal.append(
            RecordKind.ROUND_COMMIT,
            encode_json_payload({"round": round_index}),
        )
        self._crash("wal.commit")
        self._events_since_checkpoint += event_count
        interval = self._checkpoint_interval
        if interval is None or self._events_since_checkpoint < interval:
            return
        # Deferred import: repro.durability.checkpoint imports this
        # module (for TenantHealth) inside its own functions.
        from repro.durability.checkpoint import capture_checkpoint

        journal.append(
            RecordKind.CHECKPOINT,
            encode_json_payload(capture_checkpoint(self)),
        )
        # Rolling at the checkpoint bounds replay work: recovery only
        # reads from the newest checkpoint forward, and older segments
        # become prunable.
        journal.roll()
        self._events_since_checkpoint = 0
        self._crash("wal.checkpoint")

    @classmethod
    def recover(
        cls,
        journal: Journal,
        deployments: Sequence[Deployment],
        *,
        metrics: Optional[MetricsRegistry] = None,
        deadline_us: Optional[float] = None,
        health_policy: Optional[HealthPolicy] = None,
        batch_limit: int = 1,
        checkpoint_interval_events: Optional[int] = None,
        journal_chunk_events: int = 8192,
        crash_points: Optional[CrashPointInjector] = None,
    ) -> "SocManager":
        """Rebuild a manager from its journal after a crash.

        ``deployments`` re-supplies the non-serializable parts (models,
        drivers, detectors) and must match the tenant set that was live
        at the newest checkpoint.  Recovery restores that checkpoint,
        replays every durably *committed* round after it (replay is
        deterministic, so the replayed inference records are
        byte-identical to the uninterrupted run's), and discards an
        uncommitted tail — :attr:`next_round` tells the caller which
        round to re-feed first.  ``crash_points`` is armed only after
        replay finishes; recovery itself never re-fires the injector
        that killed the original process.
        """
        manager = cls(
            deployments,
            metrics=metrics,
            deadline_us=deadline_us,
            health_policy=health_policy,
            batch_limit=batch_limit,
            journal=journal,
            checkpoint_interval_events=checkpoint_interval_events,
            journal_chunk_events=journal_chunk_events,
        )
        records = journal.records()
        start = 0
        checkpoint = None
        for position, record in enumerate(records):
            if record.kind is RecordKind.CHECKPOINT:
                checkpoint = record
                start = position + 1
        if checkpoint is not None:
            from repro.durability.checkpoint import restore_checkpoint

            restore_checkpoint(
                manager, decode_json_payload(checkpoint.payload)
            )
        replayed = 0
        manager._replaying = True
        try:
            pending_round: Optional[int] = None
            pending: Dict[str, List[BranchEvent]] = {}
            for record in records[start:]:
                if record.kind is RecordKind.ROUND_BEGIN:
                    # A BEGIN with an unfinished predecessor means the
                    # predecessor never committed; its buffer is dead.
                    header = decode_json_payload(record.payload)
                    pending_round = header["round"]
                    pending = {name: [] for name in header["tenants"]}
                elif record.kind is RecordKind.TRACE_CHUNK:
                    chunk = decode_trace_chunk(record.payload)
                    if (
                        pending_round is None
                        or chunk.round_index != pending_round
                    ):
                        raise JournalCorruptionError(
                            f"trace chunk for round {chunk.round_index} "
                            f"outside open round {pending_round}"
                        )
                    if chunk.tenant not in pending:
                        raise JournalCorruptionError(
                            f"trace chunk for tenant {chunk.tenant!r} "
                            "not named by its round header"
                        )
                    pending[chunk.tenant].extend(chunk.events)
                elif record.kind is RecordKind.ROUND_COMMIT:
                    header = decode_json_payload(record.payload)
                    if (
                        pending_round is None
                        or header["round"] != pending_round
                    ):
                        raise JournalCorruptionError(
                            f"commit for round {header['round']} without "
                            "a matching open round"
                        )
                    if pending_round != manager._round:
                        raise JournalCorruptionError(
                            f"journal replays round {pending_round} but "
                            f"the manager is at round {manager._round}"
                        )
                    manager.run_events(
                        {
                            name: tuple(events)
                            for name, events in pending.items()
                        }
                    )
                    replayed += 1
                    pending_round, pending = None, {}
        finally:
            manager._replaying = False
        # Fresh segment: post-recovery appends never share a file with
        # the (possibly truncated) crashed tail.
        journal.roll()
        manager._crash_points = crash_points
        manager._m_recoveries.inc()
        manager._m_replayed.inc(replayed)
        return manager

    # ------------------------------------------------------------------
    # Health transitions
    # ------------------------------------------------------------------

    def _sync_batch_eligibility(self) -> None:
        """Health-aware batching: only HEALTHY lanes may join a fused
        dispatch this round.  Degraded and probationary tenants keep
        being served, one dispatch at a time — a misbehaving tenant
        should not ride (or delay) another tenant's fused launch."""
        for runtime in self.tenants:
            self.arbiter.set_batch_eligible(
                runtime.index, runtime.health is TenantHealth.HEALTHY
            )

    def _quarantine(self, runtime: TenantRuntime) -> None:
        runtime.health = TenantHealth.QUARANTINED
        runtime._quarantined_rounds = 0
        runtime._bad_rounds = 0
        runtime._clean_rounds = 0
        runtime.loss_delta()  # absorb this round's losses
        self._m_quarantines.inc()

    def _probation_step(
        self, runtime: TenantRuntime, had_trace: bool
    ) -> None:
        """At round start: advance (or conclude) a quarantine."""
        if runtime._quarantined_rounds >= self.policy.probation_rounds:
            runtime.health = TenantHealth.DEGRADED
            runtime._quarantined_rounds = 0
            runtime._clean_rounds = 0
            self._m_readmissions.inc()
            return
        runtime._quarantined_rounds += 1
        if had_trace:
            self._m_skipped.inc()

    def _update_health(
        self,
        traces: Mapping[str, Sequence[BranchEvent]],
        ran: Mapping[str, bool],
    ) -> None:
        for runtime in self.tenants:
            trips = (
                self.arbiter.watchdog_trips[runtime.index]
                - runtime._seen_trips
            )
            runtime._seen_trips = self.arbiter.watchdog_trips[
                runtime.index
            ]
            if runtime.health is TenantHealth.QUARANTINED:
                continue
            if trips >= self.policy.quarantine_trips:
                self._quarantine(runtime)
                continue
            if not ran.get(runtime.name):
                continue  # idle rounds carry no health evidence
            events = len(traces.get(runtime.name, ()))
            loss_rate = runtime.loss_delta() / max(1, events)
            if loss_rate > self.policy.degrade_loss_rate:
                runtime._bad_rounds += 1
                runtime._clean_rounds = 0
                if (
                    runtime._bad_rounds >= self.policy.sustain_rounds
                    and runtime.health is TenantHealth.HEALTHY
                ):
                    runtime.health = TenantHealth.DEGRADED
                    self._m_degradations.inc()
            else:
                runtime._bad_rounds = 0
                if runtime.health is TenantHealth.DEGRADED:
                    runtime._clean_rounds += 1
                    if runtime._clean_rounds >= self.policy.recover_rounds:
                        runtime.health = TenantHealth.HEALTHY
                        runtime._clean_rounds = 0
