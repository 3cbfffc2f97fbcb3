"""The fleet coordinator: sharded SoC workers under supervision.

:class:`FleetCoordinator` shards tenants across N worker processes
(one :class:`~repro.soc.manager.SocManager` each, one modeled ML-MIAOW
engine each, own write-ahead journal each) and presents the same
surface the serve front door and the eval harness already speak:
``run_events`` / ``health`` / ``tenant`` / ``tenants``.  One
coordinator round fans out to every shard with traffic as a
TRACE_CHUNK dispatch, idle shards get a heartbeat ping instead, and
the replies are merged back into a single per-tenant record map — so
swapping a solo manager for a fleet is a constructor change, not a
protocol change.

**Supervision** (docs/FLEET.md has the full state machine):

- every dispatch and ping carries a deadline (the arbiter watchdog's
  vocabulary, applied to the pipe in the wall-clock domain); a missed
  deadline or a dead pipe marks the shard DEAD;
- a DEAD shard is restarted under a bounded-jitter
  :class:`~repro.errors.Backoff`; the fresh worker finds the shard's
  journal and *recovers* (checkpoint restore + committed-round
  replay), and the coordinator re-feeds the one in-flight round the
  crash may have eaten — admitted rounds are never lost;
- a shard that keeps crashing (``max_restarts`` consecutive) has its
  HEALTHY tenants migrated to sibling shards via checkpoint handoff
  (:func:`~repro.durability.checkpoint.capture_tenant_state`);
  DEGRADED and QUARANTINED tenants stay pinned — a sick tenant is not
  spread to healthy shards.

**Transport** (docs/FLEET.md §5): how round payloads and replies
cross the process boundary is pluggable (:mod:`repro.fleet.
transport`).  The default moves them through per-shard shared-memory
rings — written once by the coordinator, mapped zero-copy by the
worker — with the pickle-over-pipe path as the universal fallback;
control traffic (heartbeats, health, migration) always stays on the
pipe.  ``fleet.transport.*`` counters observe a second conservation
law: staged bytes equal worker-receipted consumed bytes plus the
bytes of dispatches that died or were refused before consumption.

**Placement**: tenants start round-robined; when
``rebalance_ratio`` is set, the coordinator tracks a per-shard EWMA
of the modeled round makespan (the imbalance signal BENCH_fleet.json
reports) and, at round boundaries, moves one HEALTHY tenant from the
hottest to the coldest shard through the same checkpoint-handoff
path crash-loop migration uses — hysteresis (ratio threshold, warmup,
cooldown) keeps placements from ping-ponging.  Every move bumps
``placement_epoch`` so the serve front door can refresh its sticky
routing table atomically at the boundary.

Every supervision event is a ``fleet.*`` counter, and
:meth:`counters` merges the workers' ``socmgr.*``/engine counters into
one fleet-wide view with the conservation law the eval harness
asserts: ``fleet.rounds.admitted == sum of per-shard fresh rounds +
fleet.rounds.replayed``.  Wall-clock transport timings are kept out
of that merged view (they can never be bit-identical across runs) and
reported via :meth:`transport_stats` instead.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import (
    Backoff,
    FleetError,
    ShardDeadError,
    SocConfigError,
    TransportError,
)
from repro.fleet import messages
from repro.fleet.transport import (
    DEFAULT_RING_BYTES,
    PipeCoordinatorTransport,
    ShmCoordinatorTransport,
    TRANSPORT_NAMES,
)
from repro.mcm.mcm import InferenceRecord
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.soc.manager import (
    Deployment,
    TenantHealth,
    refuse_unknown_tenants,
)
from repro.workloads.cfg import BranchEvent

#: Canonical coordinator-side counters (0 when nothing fired).
FLEET_COUNTERS = (
    "fleet.shards",
    "fleet.workers.spawned",
    "fleet.rounds",
    "fleet.rounds.admitted",
    "fleet.rounds.refed",
    "fleet.rounds.reconciled",
    "fleet.records.delivered",
    "fleet.heartbeats",
    "fleet.heartbeat.misses",
    "fleet.restarts",
    "fleet.migrations",
    "fleet.tenants.migrated",
)

#: Transport-layer counters.  The byte triple obeys the conservation
#: law ``staged == consumed + discarded``: every staged dispatch ends
#: in exactly one worker receipt (``consumed``, reported end-to-end by
#: the worker) or one discard (worker died / refused before consuming).
TRANSPORT_COUNTERS = (
    "fleet.transport.rounds",
    "fleet.transport.ns",          # wall transport time (wall - compute)
    "fleet.transport.c2w_ns",      # coordinator->worker byte path:
                                   # stage + send + worker recv + fetch
    "fleet.transport.stage_ns",    # coordinator-side staging share
    "fleet.transport.bytes.staged",
    "fleet.transport.bytes.consumed",
    "fleet.transport.bytes.discarded",
    "fleet.transport.payloads.inline",  # full-ring spills to the pipe
    "fleet.transport.fallbacks",   # permanent per-shard shm -> pipe
    "fleet.transport.torn_slots",
    "fleet.transport.shm.rings",
    "fleet.transport.shm.reinits",  # rings rebuilt after a worker death
    "fleet.transport.shm.wraps",
)

#: Load-aware placement counters.
PLACEMENT_COUNTERS = (
    "fleet.placement.rounds",      # boundaries the placer evaluated
    "fleet.placement.rebalances",
    "fleet.placement.tenants_moved",
    "fleet.placement.skipped",     # hysteresis vetoes (warmup/cooldown/
                                   # below-ratio/nothing movable)
    "fleet.placement.epoch",       # routing-table generation bumps
)

#: Wall-clock members of the transport counters: meaningful in
#: :meth:`FleetCoordinator.transport_stats` and the metrics registry,
#: but excluded from the merged :meth:`FleetCoordinator.counters`
#: snapshot so same-topology runs stay bit-identical.
_WALLCLOCK_COUNTERS = frozenset(
    {
        "fleet.transport.ns",
        "fleet.transport.c2w_ns",
        "fleet.transport.stage_ns",
    }
)

#: Transport-*shape* counters: they describe which byte path carried
#: the rounds (ring segments built, spills, wraps, fallbacks), not
#: what the SoC computed — so they differ between a pipe and a shm run
#: of the same workload.  Excluded from the merged
#: :meth:`FleetCoordinator.counters` snapshot (the byte-identity
#: surface must compare equal *across transports* too); reported by
#: :meth:`FleetCoordinator.transport_stats`.
_TRANSPORT_SHAPE_COUNTERS = frozenset(
    {
        "fleet.transport.payloads.inline",
        "fleet.transport.fallbacks",
        "fleet.transport.shm.rings",
        "fleet.transport.shm.reinits",
        "fleet.transport.shm.wraps",
    }
)


@dataclass(frozen=True)
class FleetConfig:
    """Fleet topology + supervision policy."""

    #: Worker process count; tenants are round-robined across shards.
    num_shards: int = 2
    #: Pipe deadline for one heartbeat reply.
    heartbeat_timeout_s: float = 10.0
    #: Pipe deadline for one round dispatch (simulation rounds are
    #: CPU-heavy; this guards hangs, not slowness).
    round_timeout_s: float = 120.0
    #: Consecutive restarts of one shard before its healthy tenants
    #: are migrated away.
    max_restarts: int = 2
    #: Restart pacing (bounded exponential + deterministic jitter).
    backoff: Backoff = field(
        default_factory=lambda: Backoff(
            base_s=0.05, cap_s=5.0, label="fleet.restart"
        )
    )
    #: TRACE_CHUNK size for round dispatches (same knob as the WAL).
    journal_chunk_events: int = 8192
    #: multiprocessing start method; fork is cheapest (and inherits
    #: warm model caches), spawn is the portable fallback.
    start_method: str = "fork"
    #: Bulk-byte transport: ``"shm"`` (zero-copy shared-memory rings,
    #: pipe fallback on failure) or ``"pipe"`` (always inline).
    transport: str = "shm"
    #: Per-direction ring capacity per shard.  One round's payloads
    #: should fit; larger payloads spill inline per-payload.
    shm_ring_bytes: int = DEFAULT_RING_BYTES
    #: Load-aware rebalancing threshold: move a tenant when the hottest
    #: shard's makespan EWMA exceeds the coldest's by this factor.
    #: ``None`` (default) keeps placement static — construction-time
    #: round-robin, migrations only on crash-loops.
    rebalance_ratio: Optional[float] = None
    #: EWMA smoothing for the per-shard makespan signal.
    rebalance_ewma_alpha: float = 0.4
    #: Rounds to observe before the first rebalance decision.
    rebalance_warmup_rounds: int = 2
    #: Rounds to hold still after a rebalance (hysteresis).
    rebalance_cooldown_rounds: int = 2

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise FleetError("num_shards must be >= 1")
        if self.max_restarts < 1:
            raise FleetError("max_restarts must be >= 1")
        if self.heartbeat_timeout_s <= 0 or self.round_timeout_s <= 0:
            raise FleetError("pipe deadlines must be positive")
        if self.journal_chunk_events < 1:
            raise FleetError("journal_chunk_events must be >= 1")
        if self.transport not in TRANSPORT_NAMES:
            raise FleetError(
                f"transport must be one of {TRANSPORT_NAMES}, "
                f"got {self.transport!r}"
            )
        if self.shm_ring_bytes < 4096:
            raise FleetError("shm_ring_bytes must be >= 4096")
        if self.rebalance_ratio is not None and self.rebalance_ratio <= 1.0:
            raise FleetError("rebalance_ratio must be > 1.0")
        if not 0.0 < self.rebalance_ewma_alpha <= 1.0:
            raise FleetError("rebalance_ewma_alpha must be in (0, 1]")
        if self.rebalance_warmup_rounds < 0:
            raise FleetError("rebalance_warmup_rounds must be >= 0")
        if self.rebalance_cooldown_rounds < 0:
            raise FleetError("rebalance_cooldown_rounds must be >= 0")


class _TenantFacade:
    """The slice of TenantRuntime the serve front door reads."""

    def __init__(self, name: str, frontend: str) -> None:
        self.name = name
        self.deployment = SimpleNamespace(
            config=SimpleNamespace(frontend=frontend)
        )


class _Shard:
    """Coordinator-side handle for one worker process."""

    def __init__(self, shard_id: int, journal_dir: str) -> None:
        self.id = shard_id
        self.journal_dir = journal_dir
        self.tenants: List[str] = []
        self.process = None
        self.conn = None
        self.restarts = 0          # consecutive, reset by migration
        self.total_restarts = 0    # lifetime, for liveness reporting
        self.attempt = 0           # backoff cursor
        self.transport = None      # coordinator transport half
        self.force_pipe = False    # sticky shm -> pipe fallback
        self.generation = 0        # spawns, for ring re-init accounting
        self.load_ewma: Optional[float] = None  # modeled makespan EWMA

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class FleetCoordinator:
    """Shards tenants across supervised SocManager worker processes.

    ``factory`` must be picklable (a module-level function, optionally
    wrapped in :func:`functools.partial`) with signature
    ``factory(tenant_names, gpu=None) -> List[Deployment]`` — called in
    the worker process to (re)build models and drivers; ``gpu`` is
    passed on tenant adoption so migrated deployments join the shard's
    existing engine.
    """

    def __init__(
        self,
        factory: Callable[..., List[Deployment]],
        tenant_names: Sequence[str],
        journal_root: str,
        config: Optional[FleetConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        manager_kwargs: Optional[dict] = None,
        tenant_frontends: Optional[Mapping[str, str]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        import multiprocessing
        import os

        names = list(tenant_names)
        if not names:
            raise FleetError("the fleet needs at least one tenant")
        if len(set(names)) != len(names):
            raise FleetError(f"duplicate tenant names in {names}")
        self.config = config or FleetConfig()
        if self.config.num_shards > len(names):
            raise FleetError(
                f"{self.config.num_shards} shards for {len(names)} "
                "tenants; every shard needs at least one tenant"
            )
        self.factory = factory
        self.metrics = metrics or NULL_REGISTRY
        self.manager_kwargs = dict(manager_kwargs or {})
        self._frontends = dict(tenant_frontends or {})
        self._clock = clock
        self._sleep = sleep
        self._ctx = multiprocessing.get_context(self.config.start_method)
        all_counters = (
            FLEET_COUNTERS + TRANSPORT_COUNTERS + PLACEMENT_COUNTERS
        )
        self.counts: Dict[str, int] = {
            name: 0 for name in all_counters
        }
        self._m = {
            name: self.metrics.counter(name) for name in all_counters
        }
        self._facades: Dict[str, _TenantFacade] = {
            name: _TenantFacade(
                name, self._frontends.get(name, "coresight")
            )
            for name in names
        }
        #: Lifetime records already handed to the caller, per tenant —
        #: the reconciliation cursor for post-commit crashes.
        self._delivered: Dict[str, int] = {name: 0 for name in names}
        self._health: Dict[str, TenantHealth] = {
            name: TenantHealth.HEALTHY for name in names
        }
        self._round = 0
        self._closed = False
        #: Per-tenant EWMA of modeled busy time (the placer's estimate
        #: of how much makespan a tenant would carry to another shard).
        self._busy_ewma: Dict[str, float] = {}
        self._rebalance_cooldown = 0
        #: Routing-table generation; bumped on every tenant move so the
        #: serve front door can detect staleness cheaply.
        self.placement_epoch = 0
        self.shards: List[_Shard] = []
        for shard_id in range(self.config.num_shards):
            shard = _Shard(
                shard_id,
                os.path.join(journal_root, f"shard-{shard_id}"),
            )
            self.shards.append(shard)
        for index, name in enumerate(names):
            self.shards[index % len(self.shards)].tenants.append(name)
        self._count("fleet.shards", len(self.shards))
        for shard in self.shards:
            self._spawn(shard)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount
        self._m[name].inc(amount)

    @property
    def tenants(self) -> List[_TenantFacade]:
        """Placement-ordered tenant facades (the serve duck surface)."""
        out: List[_TenantFacade] = []
        for shard in self.shards:
            out.extend(self._facades[name] for name in shard.tenants)
        return out

    def tenant(self, name: str) -> _TenantFacade:
        facade = self._facades.get(name)
        if facade is None:
            raise SocConfigError(f"unknown tenant {name!r}")
        return facade

    def health(self) -> Dict[str, TenantHealth]:
        """Tenant health as of the latest reply from each shard."""
        return dict(self._health)

    def shard_of(self, name: str) -> _Shard:
        for shard in self.shards:
            if name in shard.tenants:
                return shard
        raise SocConfigError(f"unknown tenant {name!r}")

    def routing_table(self) -> Dict[str, int]:
        """Current tenant -> shard-id placement snapshot.

        Placement only changes at round boundaries (rebalance or
        crash-loop migration), each change bumping
        :attr:`placement_epoch` — so a front door can keep sessions
        sticky by re-reading this table only when the epoch moved.
        """
        return {
            name: shard.id
            for shard in self.shards
            for name in shard.tenants
        }

    def liveness(self) -> List[Dict[str, object]]:
        """Per-shard liveness rows for the eval metrics report."""
        return [
            {
                "shard": shard.id,
                "pid": shard.pid,
                "alive": shard.alive,
                "restarts": shard.total_restarts,
                "tenants": list(shard.tenants),
            }
            for shard in self.shards
        ]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _make_transport(self, shard: _Shard):
        """Build the coordinator transport half for one worker spawn.

        Fresh rings per worker generation: a restarted worker never
        attaches a ring whose slots a dead sibling may have torn.
        Creation failure (no shm on this platform, exhausted
        ``/dev/shm``) degrades the shard to the pipe permanently.
        """
        if self.config.transport == "shm" and not shard.force_pipe:
            try:
                transport = ShmCoordinatorTransport(
                    self.config.shm_ring_bytes
                )
            except TransportError:
                shard.force_pipe = True
                self._count("fleet.transport.fallbacks")
                return PipeCoordinatorTransport()
            self._count("fleet.transport.shm.rings", 2)
            if shard.generation > 0:
                self._count("fleet.transport.shm.reinits")
            return transport
        return PipeCoordinatorTransport()

    def _spawn(self, shard: _Shard) -> None:
        from repro.fleet.worker import worker_main

        shard.transport = self._make_transport(shard)
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                child,
                shard.id,
                self.factory,
                list(shard.tenants),
                shard.journal_dir,
                self.manager_kwargs,
                shard.transport.spec(),
            ),
            daemon=True,
            name=f"fleet-shard-{shard.id}",
        )
        process.start()
        child.close()
        shard.process = process
        shard.conn = parent
        shard.generation += 1
        self._count("fleet.workers.spawned")

    def _reap(self, shard: _Shard) -> None:
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass
            shard.conn = None
        if shard.process is not None:
            if shard.process.is_alive():
                shard.process.terminate()
            shard.process.join(timeout=10.0)
            shard.process = None
        if shard.transport is not None:
            # After the join: the worker's ring views are gone, so the
            # owner side can unmap and unlink the segments.
            shard.transport.close()
            shard.transport = None

    def _request(
        self,
        shard: _Shard,
        request,
        timeout_s: float,
        timing: Optional[dict] = None,
    ):
        """One request/reply exchange; raises ShardDeadError on loss.

        When ``timing`` is given, its ``"send_ns"`` key receives the
        CPU time of the pipe send — the coordinator's wire share of
        the dispatch (pickle + kernel copy).  Thread CPU time, not
        wall time: a send wakes the blocked worker, and the scheduler
        is free to run it before the syscall returns, which would bill
        the worker's compute to the wire.
        """
        conn = shard.conn
        if conn is None or shard.process is None:
            raise ShardDeadError(f"shard {shard.id} has no live worker")
        try:
            if timing is None:
                conn.send(request)
            else:
                send_started_ns = time.thread_time_ns()
                conn.send(request)
                timing["send_ns"] = (
                    time.thread_time_ns() - send_started_ns
                )
            if not conn.poll(timeout_s):
                raise ShardDeadError(
                    f"shard {shard.id} missed its {timeout_s:.1f}s "
                    f"deadline for {request[0]!r}"
                )
            tag, payload = conn.recv()
        except (EOFError, OSError, BrokenPipeError) as error:
            raise ShardDeadError(
                f"shard {shard.id} pipe died during {request[0]!r}: "
                f"{type(error).__name__}"
            ) from error
        if tag == messages.ERR:
            raise FleetError(
                f"shard {shard.id} refused {request[0]!r}:\n{payload}"
            )
        return payload

    def _restart(self, shard: _Shard) -> None:
        """Backoff-paced restart; the fresh worker recovers its WAL."""
        self._reap(shard)
        delay = self.config.backoff.delay(shard.attempt)
        shard.attempt += 1
        if delay > 0:
            self._sleep(delay)
        self._spawn(shard)
        shard.restarts += 1
        shard.total_restarts += 1
        self._count("fleet.restarts")

    def _handoff(
        self, source: _Shard, names: List[str], target: _Shard
    ) -> None:
        """Move tenants via checkpoint handoff (EVICT -> ADOPT).

        The single placement-mutation primitive — crash-loop migration
        and load-aware rebalancing both route through here, so every
        move updates the routing table and bumps the placement epoch
        exactly once, at a round boundary.
        """
        docs = self._request(
            source,
            (messages.EVICT, names),
            self.config.round_timeout_s,
        )
        self._request(
            target,
            (messages.ADOPT, names, docs),
            self.config.round_timeout_s,
        )
        for name in names:
            source.tenants.remove(name)
            target.tenants.append(name)
            self._count("fleet.tenants.migrated")
        self.placement_epoch += 1
        self._count("fleet.placement.epoch")

    def _migrate_from(self, shard: _Shard) -> None:
        """Evict a crash-looping shard's HEALTHY tenants to siblings.

        The shard has just been restarted and recovered; its health
        map decides placement.  DEGRADED and QUARANTINED tenants stay
        pinned (pinning the sick, moving the healthy), and at least
        one tenant must remain — a shard cannot be emptied.
        """
        siblings = [
            other
            for other in self.shards
            if other is not shard and other.alive
        ]
        if not siblings:
            return
        health = self._request(
            shard,
            (messages.HEALTH,),
            self.config.heartbeat_timeout_s,
        )
        movable = [
            name
            for name in shard.tenants
            if health.get(name) == TenantHealth.HEALTHY.value
        ]
        if len(movable) == len(shard.tenants):
            movable = movable[1:]  # leave one behind
        if not movable:
            shard.restarts = 0
            return
        for index, name in enumerate(movable):
            self._handoff(shard, [name], siblings[index % len(siblings)])
        self._count("fleet.migrations")
        shard.restarts = 0

    # ------------------------------------------------------------------
    # Load-aware placement
    # ------------------------------------------------------------------

    def _observe_load(
        self,
        shard: _Shard,
        records: Mapping[str, List[InferenceRecord]],
    ) -> None:
        """Fold one round's modeled load into the placement EWMAs.

        The shard signal is the modeled makespan — ``max(done_ns) -
        min(arrival_ns)`` over the round's records, the same imbalance
        measure BENCH_fleet.json reports.  The per-tenant signal is
        the tenant's *share* of that makespan, weighted by its record
        count: the engine pipelines tenants' vectors, so summing each
        record's own span would count the same busy interval many
        times over and land in units incomparable with the shard
        makespan the placer's gap test is expressed in.  The shares
        sum to the makespan across a shard's tenants, which is what
        makes "moving this tenant narrows the gap by ~its share" a
        sound estimate.
        """
        alpha = self.config.rebalance_ewma_alpha
        spans = [
            (record.arrival_ns, record.done_ns)
            for tenant_records in records.values()
            for record in tenant_records
        ]
        if not spans:
            return
        makespan = max(done for _, done in spans) - min(
            arrival for arrival, _ in spans
        )
        if shard.load_ewma is None:
            shard.load_ewma = makespan
        else:
            shard.load_ewma = (
                alpha * makespan + (1.0 - alpha) * shard.load_ewma
            )
        for name, tenant_records in records.items():
            if not tenant_records:
                continue
            busy = makespan * len(tenant_records) / len(spans)
            previous = self._busy_ewma.get(name)
            self._busy_ewma[name] = (
                busy
                if previous is None
                else alpha * busy + (1.0 - alpha) * previous
            )

    def _maybe_rebalance(self) -> None:
        """One placement decision at a round boundary (hysteresis).

        Moves at most one tenant per boundary, hottest shard to
        coldest, only when the makespan-EWMA ratio exceeds
        ``rebalance_ratio`` and the move would actually narrow the gap
        — then holds still for the cooldown.  Only HEALTHY tenants
        move, a shard is never emptied, and the handoff itself is the
        exact crash-migration checkpoint path, so verdicts stay
        bit-identical to a static placement.
        """
        if self.config.rebalance_ratio is None:
            return
        self._count("fleet.placement.rounds")
        if self._round < self.config.rebalance_warmup_rounds:
            self._count("fleet.placement.skipped")
            return
        if self._rebalance_cooldown > 0:
            self._rebalance_cooldown -= 1
            self._count("fleet.placement.skipped")
            return
        loaded = [
            shard
            for shard in self.shards
            if shard.alive and shard.load_ewma is not None
        ]
        if len(loaded) < 2:
            self._count("fleet.placement.skipped")
            return
        hot = max(loaded, key=lambda shard: shard.load_ewma)
        cold = min(loaded, key=lambda shard: shard.load_ewma)
        if (
            cold.load_ewma <= 0.0
            or hot.load_ewma < self.config.rebalance_ratio * cold.load_ewma
        ):
            self._count("fleet.placement.skipped")
            return
        gap = hot.load_ewma - cold.load_ewma
        candidates = [
            name
            for name in hot.tenants
            if self._health.get(name) == TenantHealth.HEALTHY
            and name in self._busy_ewma
            # Moving more than the gap would just swap hot and cold.
            and self._busy_ewma[name] < gap
        ]
        if len(candidates) >= len(hot.tenants):
            candidates = candidates[1:]  # leave one behind
        if not candidates:
            self._count("fleet.placement.skipped")
            return
        # The tenant whose busy share best halves the gap.
        name = min(
            candidates,
            key=lambda tenant: abs(gap - 2.0 * self._busy_ewma[tenant]),
        )
        self._handoff(hot, [name], cold)
        self._count("fleet.placement.tenants_moved")
        busy = self._busy_ewma[name]
        hot.load_ewma -= busy
        cold.load_ewma += busy
        self._rebalance_cooldown = self.config.rebalance_cooldown_rounds
        self._count("fleet.placement.rebalances")

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def _fallback_to_pipe(self, shard: _Shard) -> None:
        """Permanently degrade one shard's bulk path to the pipe.

        Triggered by a ``transport:`` ERR — the worker could not map a
        descriptor (attach failed at startup) or found a torn chunk
        slot.  Either way nothing was run, the round is intact on the
        coordinator, and the worker can already serve inline wires
        (its transport mirrors the request channel), so no restart is
        needed: swap the coordinator half and re-send.
        """
        if shard.transport is not None:
            shard.transport.close()
        shard.transport = PipeCoordinatorTransport()
        shard.force_pipe = True
        self._count("fleet.transport.fallbacks")

    def _dispatch(
        self,
        shard: _Shard,
        round_index: int,
        payloads: List[bytes],
        crc: Optional[int] = None,
    ) -> dict:
        """Phase one of a round dispatch: stage and send, don't wait.

        Returns the in-flight state :meth:`_collect` needs.  Keeping
        the send separate from the reply wait lets :meth:`run_events`
        fan a round out to every busy shard before collecting any
        reply — workers fetch and compute while the coordinator is
        still staging for their siblings, and a dispatch never wakes a
        deeply idle system (waking a worker that has been blocked for
        a whole round costs several times a warm wake).
        """
        staged = sum(len(payload) for payload in payloads)
        transport = shard.transport
        state: dict = {"staged": staged, "transport": transport}
        state["started_ns"] = time.perf_counter_ns()
        stage_cpu_ns = time.thread_time_ns()
        wire = transport.stage(payloads, crc)
        state["stage_cpu_ns"] = time.thread_time_ns() - stage_cpu_ns
        self._count("fleet.transport.bytes.staged", staged)
        conn = shard.conn
        if conn is None or shard.process is None:
            self._count("fleet.transport.bytes.discarded", staged)
            raise ShardDeadError(f"shard {shard.id} has no live worker")
        try:
            send_cpu_ns = time.thread_time_ns()
            conn.send((messages.RUN, round_index, wire))
            state["send_ns"] = time.thread_time_ns() - send_cpu_ns
        except (OSError, BrokenPipeError) as error:
            self._count("fleet.transport.bytes.discarded", staged)
            raise ShardDeadError(
                f"shard {shard.id} pipe died during dispatch: "
                f"{type(error).__name__}"
            ) from error
        return state

    def _collect(
        self,
        shard: _Shard,
        round_index: int,
        payloads: List[bytes],
        crc: Optional[int],
        state: dict,
    ) -> dict:
        """Phase two: await one dispatched round's reply.

        Owns the transport bookkeeping: staged/consumed/discarded byte
        conservation, wall-minus-compute transport timing, fallback on
        transport refusal (re-sends the same round synchronously), and
        torn-reply-slot escalation (the round may be committed in the
        shard's journal, so a torn reply is treated as a dead worker —
        reconcile fetches, never re-runs).
        """
        staged = state["staged"]
        transport = state["transport"]
        try:
            conn = shard.conn
            if conn is None:
                raise ShardDeadError(
                    f"shard {shard.id} has no live worker"
                )
            if not conn.poll(self.config.round_timeout_s):
                raise ShardDeadError(
                    f"shard {shard.id} missed its "
                    f"{self.config.round_timeout_s:.1f}s deadline for "
                    f"{messages.RUN!r}"
                )
            tag, reply_wire = conn.recv()
            if tag == messages.ERR:
                raise FleetError(
                    f"shard {shard.id} refused {messages.RUN!r}:\n"
                    f"{reply_wire}"
                )
            reply = transport.fetch_reply(reply_wire)
            done_ns = time.perf_counter_ns()
        except (EOFError, OSError, BrokenPipeError) as error:
            self._count("fleet.transport.bytes.discarded", staged)
            raise ShardDeadError(
                f"shard {shard.id} pipe died during {messages.RUN!r}: "
                f"{type(error).__name__}"
            ) from error
        except ShardDeadError:
            # No receipt will ever arrive for these bytes; the
            # re-feed after recovery stages (and accounts) afresh.
            self._count("fleet.transport.bytes.discarded", staged)
            raise
        except TransportError as error:
            self._count("fleet.transport.torn_slots")
            self._count("fleet.transport.bytes.discarded", staged)
            raise ShardDeadError(
                f"shard {shard.id} returned a torn reply slot: "
                f"{error}"
            ) from error
        except FleetError as error:
            self._count("fleet.transport.bytes.discarded", staged)
            if messages.TRANSPORT_ERR in str(error):
                # Worker refused the descriptors without running
                # anything: fall back and re-send the same round.
                self._fallback_to_pipe(shard)
                return self._send_round(
                    shard, round_index, payloads, crc
                )
            raise
        self._count("fleet.transport.rounds")
        self._count(
            "fleet.transport.bytes.consumed",
            int(reply.get("consumed_bytes", staged)),
        )
        self._count("fleet.transport.stage_ns", state["stage_cpu_ns"])
        transport_ns = (done_ns - state["started_ns"]) - int(
            reply.get("compute_ns", 0)
        )
        self._count("fleet.transport.ns", max(0, transport_ns))
        # The coordinator->worker leg, summed from its four CPU
        # shares: staging here, the pipe send (pickle + kernel copy),
        # the worker's post-poll drain, and the worker's payload
        # fetch.  Each is thread CPU time — no idle waiting, no
        # preempting neighbour's slice — so the sum is the cost of
        # actually moving and validating the bytes, comparable across
        # transports without a cross-process clock.
        self._count(
            "fleet.transport.c2w_ns",
            state["stage_cpu_ns"]
            + int(state.get("send_ns", 0))
            + int(reply.get("recv_ns", 0))
            + int(reply.get("fetch_ns", 0)),
        )
        stats = transport.take_stats()
        if stats.get("spills"):
            self._count(
                "fleet.transport.payloads.inline", stats["spills"]
            )
        if stats.get("wraps"):
            self._count("fleet.transport.shm.wraps", stats["wraps"])
        return reply

    def _send_round(
        self,
        shard: _Shard,
        round_index: int,
        payloads: List[bytes],
        crc: Optional[int] = None,
    ) -> dict:
        """Synchronous dispatch + collect (re-feeds and re-sends)."""
        state = self._dispatch(shard, round_index, payloads, crc)
        return self._collect(shard, round_index, payloads, crc, state)

    def _reconcile(
        self,
        shard: _Shard,
        round_index: int,
        payloads: List[bytes],
        crc: Optional[int] = None,
    ) -> Dict[str, List[InferenceRecord]]:
        """Bring a restarted shard's round to a delivered conclusion.

        The recovered worker's ``next_round`` says whether the crashed
        dispatch committed: if not, the held payloads are re-fed (the
        WAL may replay them too — replay is deterministic, records are
        byte-identical); if it did commit, the records are fetched
        past the coordinator's delivery cursor instead of re-running.
        """
        next_round = self._request(
            shard, (messages.ROUND,), self.config.heartbeat_timeout_s
        )
        if next_round <= round_index:
            self._count("fleet.rounds.refed")
            reply = self._send_round(shard, round_index, payloads, crc)
            self._absorb_health(reply["health"])
            return reply["records"]
        cursors = {
            name: self._delivered[name] for name in shard.tenants
        }
        records = self._request(
            shard,
            (messages.RECORDS_AFTER, cursors),
            self.config.round_timeout_s,
        )
        self._absorb_health(
            self._request(
                shard,
                (messages.HEALTH,),
                self.config.heartbeat_timeout_s,
            )
        )
        self._count("fleet.rounds.reconciled")
        return records

    def _absorb_health(self, health: Mapping[str, str]) -> None:
        for name, value in health.items():
            self._health[name] = TenantHealth(value)

    def _round_crc(self, payloads: List[bytes]) -> Optional[int]:
        """Tag a round once at dispatch assembly (shm only).

        One ``zlib.crc32`` chained across the chunks — equal to the
        CRC of their concatenation, which is exactly what the batched
        ring slot holds.  The transport reuses the tag across stages,
        so the hot path never re-hashes payload bytes.
        """
        if self.config.transport != "shm":
            return None
        crc = 0
        for payload in payloads:
            crc = zlib.crc32(payload, crc)
        return crc

    def _run_shard(
        self,
        shard: _Shard,
        round_index: int,
        payloads: List[bytes],
        crc: Optional[int],
        state: Optional[dict] = None,
    ) -> Dict[str, List[InferenceRecord]]:
        """One shard's slice of one round, surviving worker deaths.

        ``state`` is the in-flight dispatch from the fan-out phase
        (None when that dispatch already failed at send time).  Crash
        recovery here stays strictly single-shard — restart, re-feed,
        reconcile all talk to this shard only — because siblings may
        still have their own rounds in flight.  Migration away from a
        crash-looping shard is therefore deferred to the round
        boundary in :meth:`run_events`, where no request is pending
        anywhere; ``shard.restarts`` is left above the threshold as
        the signal.
        """
        attempts = 0
        while True:
            try:
                if state is not None:
                    inflight, state = state, None
                    reply = self._collect(
                        shard, round_index, payloads, crc, inflight
                    )
                    self._absorb_health(reply["health"])
                    records = reply["records"]
                elif attempts == 0:
                    reply = self._send_round(
                        shard, round_index, payloads, crc
                    )
                    self._absorb_health(reply["health"])
                    records = reply["records"]
                else:
                    records = self._reconcile(
                        shard, round_index, payloads, crc
                    )
                if shard.restarts <= self.config.max_restarts:
                    shard.restarts = 0
                shard.attempt = 0
                return records
            except ShardDeadError:
                attempts += 1
                if attempts > self.config.max_restarts + 1:
                    raise
                self._restart(shard)

    def _split_round(
        self,
        round_index: int,
        traces: Mapping[str, Sequence[BranchEvent]],
    ):
        """Group one round's traces into per-shard chunk dispatches."""
        out = []
        for shard in self.shards:
            slice_traces = {
                name: traces[name]
                for name in shard.tenants
                if name in traces and len(traces[name])
            }
            if not slice_traces:
                continue
            out.append(
                (
                    shard,
                    messages.encode_round(
                        round_index,
                        slice_traces,
                        self.config.journal_chunk_events,
                    ),
                )
            )
        return out

    def run_events(
        self, traces: Mapping[str, Sequence[BranchEvent]]
    ) -> Dict[str, List[InferenceRecord]]:
        """One fleet-wide monitoring round (the SocManager surface).

        Shards with traffic get a RUN dispatch; idle shards get a
        heartbeat ping, so every round doubles as a liveness sweep.
        Returns the merged per-tenant records of this round.
        """
        if self._closed:
            raise FleetError("the fleet has been closed")
        refuse_unknown_tenants(traces, self._facades)
        round_index = self._round
        self._round += 1
        self._count("fleet.rounds")
        dispatches = self._split_round(round_index, traces)
        busy = {shard.id for shard, _ in dispatches}
        results: Dict[str, List[InferenceRecord]] = {}
        # Fan the round out before collecting any reply: every busy
        # shard is staged and sent back-to-back, so workers fetch and
        # compute while the coordinator is still serialising for their
        # siblings — and no dispatch after the first has to wake a
        # fully idle system (a cold wake costs several times a warm
        # one).  A send-time failure is recovered synchronously in the
        # collect phase below, which never touches a sibling.
        plan = []
        inflight: Dict[int, dict] = {}
        for shard, payloads in dispatches:
            crc = self._round_crc(payloads)
            try:
                inflight[shard.id] = self._dispatch(
                    shard, round_index, payloads, crc
                )
            except ShardDeadError:
                pass  # _run_shard restarts and reconciles it below
            plan.append((shard, payloads, crc))
        try:
            for shard, payloads, crc in plan:
                records = self._run_shard(
                    shard,
                    round_index,
                    payloads,
                    crc,
                    inflight.pop(shard.id, None),
                )
                self._count("fleet.rounds.admitted")
                self._observe_load(shard, records)
                for name, tenant_records in records.items():
                    results[name] = tenant_records
                    self._delivered[name] = self._delivered.get(
                        name, 0
                    ) + len(tenant_records)
                    self._count(
                        "fleet.records.delivered", len(tenant_records)
                    )
        except BaseException:
            # Giving up on the round: bytes dispatched to shards we
            # will never collect from are discarded, keeping the
            # staged == consumed + discarded conservation law honest.
            for state in inflight.values():
                self._count(
                    "fleet.transport.bytes.discarded", state["staged"]
                )
            raise
        # Crash-loop migrations deferred from the collect phase: every
        # shard's slice has concluded, so EVICT/ADOPT cannot race an
        # in-flight RUN reply on a sibling's pipe.
        for shard in self.shards:
            if shard.restarts > self.config.max_restarts:
                self._migrate_from(shard)
                shard.restarts = 0
        for shard in self.shards:
            if shard.id not in busy:
                self.heartbeat(shard)
        # Placement changes only here, after every shard's slice of the
        # round concluded — the atomic round boundary the routing table
        # (and the serve front door's sticky sessions) key off.
        self._maybe_rebalance()
        return results

    # ------------------------------------------------------------------
    # Supervision entry points
    # ------------------------------------------------------------------

    def heartbeat(self, shard: Optional[_Shard] = None) -> bool:
        """Ping one shard (or the whole fleet); restart on a miss.

        Returns True when every probed shard answered its deadline
        without needing a restart.
        """
        shards = [shard] if shard is not None else list(self.shards)
        clean = True
        for probe in shards:
            token = (probe.id, self._round, probe.total_restarts)
            try:
                self._count("fleet.heartbeats")
                echoed = self._request(
                    probe,
                    (messages.PING, token),
                    self.config.heartbeat_timeout_s,
                )
                if echoed != token:
                    raise ShardDeadError(
                        f"shard {probe.id} echoed a stale heartbeat"
                    )
                probe.restarts = 0
                probe.attempt = 0
            except ShardDeadError:
                clean = False
                self._count("fleet.heartbeat.misses")
                self._restart(probe)
                if probe.restarts > self.config.max_restarts:
                    self._migrate_from(probe)
        return clean

    def arm_kill(self, shard_id: int, site: str, index: int = 0) -> None:
        """Arm a deterministic ``kill -9`` in one worker (chaos only).

        The worker installs a
        :class:`~repro.faults.crashpoints.SigkillInjector` that SIGKILLs
        its own process at the ``index``-th visit of WAL crash site
        ``site`` — e.g. ``"wal.chunk.done"`` for "inputs journaled,
        round not yet committed".  The next :meth:`run_events` that
        routes work through the shard will lose the worker mid-round
        and exercise the full restart/recover/re-feed path.
        """
        self._request(
            self.shards[shard_id],
            (messages.ARM_KILL, site, index),
            self.config.heartbeat_timeout_s,
        )

    def counters(self) -> Dict[str, int]:
        """Fleet-wide merged counters: ``fleet.*`` + summed workers.

        Worker counters (``socmgr.*``, engine counters, durability
        counters) are summed across shards; the merged view also
        exposes ``fleet.rounds.replayed`` (the summed WAL replays) and
        per-shard ``fleet.shard.<id>.rounds`` so the conservation law
        can be checked from this one snapshot.

        Wall-clock transport timings and transport-shape counters are
        excluded: the merged snapshot is the byte-identity surface
        (same-topology runs must compare equal, pipe and shm runs of
        the same workload included), and neither nanosecond timings
        nor ring-segment bookkeeping ever can.  They are reported by
        :meth:`transport_stats` instead.
        """
        merged: Dict[str, int] = {
            name: value
            for name, value in self.counts.items()
            if name not in _WALLCLOCK_COUNTERS
            and name not in _TRANSPORT_SHAPE_COUNTERS
        }
        replayed = 0
        for shard in self.shards:
            snapshot = self._request(
                shard,
                (messages.COUNTERS,),
                self.config.heartbeat_timeout_s,
            )
            for name, value in snapshot.items():
                merged[name] = merged.get(name, 0) + int(value)
            runs = int(snapshot.get("socmgr.runs", 0))
            shard_replayed = int(
                snapshot.get("socmgr.rounds_replayed", 0)
            )
            replayed += shard_replayed
            merged[f"fleet.shard.{shard.id}.rounds"] = (
                runs - shard_replayed
            )
        merged["fleet.rounds.replayed"] = replayed
        return merged

    def transport_stats(self) -> Dict[str, int]:
        """The full transport + placement counter view, timings included.

        This is what the bench harness and ``repro.eval metrics`` read:
        ``fleet.transport.ns`` / ``fleet.transport.stage_ns`` are
        wall-clock sums across dispatches, alongside the deterministic
        byte/event counters (which must satisfy ``bytes.staged ==
        bytes.consumed + bytes.discarded``).
        """
        return {
            name: self.counts[name]
            for name in TRANSPORT_COUNTERS + PLACEMENT_COUNTERS
        }

    def transport_names(self) -> Dict[int, str]:
        """Per-shard active transport (``"pipe"`` or ``"shm"``)."""
        return {
            shard.id: (
                shard.transport.name
                if shard.transport is not None
                else "pipe"
            )
            for shard in self.shards
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            try:
                if shard.conn is not None and shard.alive:
                    self._request(
                        shard,
                        (messages.STOP,),
                        self.config.heartbeat_timeout_s,
                    )
            except (ShardDeadError, FleetError):
                pass
            self._reap(shard)

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
