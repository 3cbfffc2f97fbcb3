"""Fleet coordinator: sharded dispatch equals solo execution.

The coordinator's contract is transparency: sharding tenants across
worker processes must not change what the SoC computes.  Records from
a fleet shard are byte-identical to a solo :class:`SocManager` hosting
the same tenant subset (same topology → same engine interleaving), the
verdict flags match the all-tenants solo reference (scores and
anomaly decisions are topology-independent), and the ``fleet.*``
counter namespace obeys the conservation law the eval harness gates
on.  The serve front door runs over a coordinator unchanged — the same
duck surface as a solo manager.
"""

import asyncio
import tempfile

import pytest

from repro.errors import FleetError, SocConfigError
from repro.eval.metrics import demo_events
from repro.eval.recovery import record_signature
from repro.fleet import FleetConfig, FleetCoordinator, demo_factory
from repro.obs import MetricsRegistry
from repro.serve import IngestServer, ServeClient, ServeConfig
from repro.soc.manager import SocManager, TenantHealth

KIND = "lstm"
TENANTS = 4
EVENTS = 200


def _names(count=TENANTS):
    return [f"tenant{i}" for i in range(count)]


def _traces(round_index, names=None):
    return {
        name: demo_events(
            KIND, 0, EVENTS, run_label=f"fleet-{name}-r{round_index}"
        )
        for name in (names or _names())
    }


def _fleet(num_shards=2, names=None, config=None, **kwargs):
    return FleetCoordinator(
        demo_factory,
        names or _names(),
        tempfile.mkdtemp(prefix="repro-fleet-test-"),
        config or FleetConfig(num_shards=num_shards),
        **kwargs,
    )


def _signatures(records):
    return {
        name: [record_signature(r) for r in tenant_records]
        for name, tenant_records in records.items()
    }


class TestEquivalence:
    def test_records_byte_identical_to_same_topology_solo(self):
        rounds = [_traces(r) for r in range(2)]
        with _fleet(num_shards=2) as fleet:
            placement = {
                shard.id: list(shard.tenants) for shard in fleet.shards
            }
            fleet_logs = [
                _signatures(fleet.run_events(traces))
                for traces in rounds
            ]
        # Round-robin placement: shard0 = tenant0,2; shard1 = tenant1,3.
        assert placement == {
            0: ["tenant0", "tenant2"],
            1: ["tenant1", "tenant3"],
        }
        # A solo manager per shard tenant subset is the same topology
        # (same private engine, same lane set): byte-identical records,
        # virtual timestamps and sequence numbers included.
        for tenant_subset in placement.values():
            solo = SocManager(
                demo_factory(tenant_subset, kind=KIND),
                metrics=MetricsRegistry(),
            )
            for traces, fleet_log in zip(rounds, fleet_logs):
                solo_records = solo.run_events(
                    {name: traces[name] for name in tenant_subset}
                )
                for name in tenant_subset:
                    assert (
                        _signatures(solo_records)[name]
                        == fleet_log[name]
                    )

    def test_verdict_flags_match_all_tenants_reference(self):
        # Scores and anomaly verdicts do not depend on which engine a
        # tenant lands on — only engine-local bookkeeping (timestamps,
        # sequence numbers) does.
        traces = _traces(0)
        solo = SocManager(
            demo_factory(_names(), kind=KIND), metrics=MetricsRegistry()
        )
        reference = solo.run_events(traces)
        for num_shards in (1, 2, 4):
            with _fleet(num_shards=num_shards) as fleet:
                records = fleet.run_events(traces)
            for name in _names():
                assert [
                    (bool(r.anomalous), float(r.score))
                    for r in records[name]
                ] == [
                    (bool(r.anomalous), float(r.score))
                    for r in reference[name]
                ]


class TestTransports:
    def _run(self, transport, num_shards=2, rounds=2):
        config = FleetConfig(num_shards=num_shards, transport=transport)
        with _fleet(config=config) as fleet:
            logs = [
                _signatures(fleet.run_events(_traces(r)))
                for r in range(rounds)
            ]
            counters = fleet.counters()
            stats = fleet.transport_stats()
            names = fleet.transport_names()
        return logs, counters, stats, names

    def test_pipe_and_shm_runs_are_bit_identical(self):
        """The transport moves bytes; it must never change them.  Same
        workload over the pipe and over the rings: record signatures
        (timestamps and sequence numbers included) and the merged
        counter snapshot compare equal."""
        pipe = self._run("pipe")
        shm = self._run("shm")
        assert shm[3] == {0: "shm", 1: "shm"}, "shm attach fell back"
        assert pipe[0] == shm[0]  # per-round record signatures
        assert pipe[1] == shm[1]  # merged counters (identity surface)

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_bytes_conservation_per_transport(self, num_shards):
        for transport in ("pipe", "shm"):
            _, _, stats, _ = self._run(
                transport, num_shards=num_shards, rounds=1
            )
            staged = stats["fleet.transport.bytes.staged"]
            assert staged > 0
            assert staged == (
                stats["fleet.transport.bytes.consumed"]
                + stats["fleet.transport.bytes.discarded"]
            )

    def test_undersized_ring_spills_inline_without_loss(self):
        """A round bigger than the ring rides the pipe whole — same
        records, spill counted, conservation intact."""
        reference, _, _, _ = self._run("pipe", rounds=1)
        config = FleetConfig(
            num_shards=2, transport="shm", shm_ring_bytes=4096
        )
        with _fleet(config=config) as fleet:
            logs = [_signatures(fleet.run_events(_traces(0)))]
            stats = fleet.transport_stats()
        assert logs == reference
        assert stats["fleet.transport.payloads.inline"] > 0
        assert stats["fleet.transport.bytes.staged"] == (
            stats["fleet.transport.bytes.consumed"]
            + stats["fleet.transport.bytes.discarded"]
        )


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
class TestStartMethods:
    """The fleet must not assume fork inheritance: a spawned worker
    rebuilds everything from the pickled ``worker_main`` args (factory,
    tenant list, journal dir, transport spec).  Keyed so CI can select
    the portable path alone with ``-k spawn``."""

    def test_round_trip_matches_solo_reference(self, start_method):
        traces = _traces(0)
        solo = SocManager(
            demo_factory(_names(), kind=KIND), metrics=MetricsRegistry()
        )
        reference = solo.run_events(traces)
        config = FleetConfig(num_shards=2, start_method=start_method)
        with _fleet(config=config) as fleet:
            records = fleet.run_events(traces)
            counters = fleet.counters()
            names = fleet.transport_names()
        assert names == {0: "shm", 1: "shm"}
        for name in _names():
            assert [
                (bool(r.anomalous), float(r.score))
                for r in records[name]
            ] == [
                (bool(r.anomalous), float(r.score))
                for r in reference[name]
            ]
        assert counters["fleet.rounds.admitted"] == 2
        assert counters["fleet.restarts"] == 0


class TestCountersAndSurface:
    def test_counters_merge_and_conserve(self):
        registry = MetricsRegistry()
        with _fleet(num_shards=2, metrics=registry) as fleet:
            first = fleet.run_events(_traces(0))
            fleet.run_events(_traces(1))
            counters = fleet.counters()
            delivered = sum(
                len(r) for r in first.values()
            ) + sum(
                len(r)
                for r in fleet.run_events(_traces(2)).values()
            )
            counters = fleet.counters()
        assert counters["fleet.shards"] == 2
        assert counters["fleet.workers.spawned"] == 2
        assert counters["fleet.rounds"] == 3
        # Every shard had traffic every round; nothing crashed.
        assert counters["fleet.rounds.admitted"] == 6
        assert counters["fleet.restarts"] == 0
        assert counters["fleet.rounds.replayed"] == 0
        # Conservation: admitted == per-shard fresh rounds + replays.
        fresh = sum(
            value
            for name, value in counters.items()
            if name.startswith("fleet.shard.") and name.endswith(".rounds")
        )
        assert counters["fleet.rounds.admitted"] == (
            fresh + counters["fleet.rounds.replayed"]
        )
        # Worker socmgr.* counters are summed into the merged view,
        # and the coordinator mirror matches the registry.
        assert counters["socmgr.runs"] == 6
        snapshot = registry.snapshot()["counters"]
        assert snapshot["fleet.rounds"] == 3
        assert counters["fleet.records.delivered"] >= delivered

    def test_idle_shards_get_heartbeats(self):
        with _fleet(num_shards=2) as fleet:
            shard0_only = {
                name: trace
                for name, trace in _traces(0).items()
                if name in fleet.shards[0].tenants
            }
            records = fleet.run_events(shard0_only)
            counters = dict(fleet.counts)
        assert set(records) == set(shard0_only)
        assert counters["fleet.rounds.admitted"] == 1
        assert counters["fleet.heartbeats"] == 1  # idle shard pinged
        assert counters["fleet.heartbeat.misses"] == 0

    def test_manager_duck_surface(self):
        with _fleet(num_shards=2) as fleet:
            assert [t.name for t in fleet.tenants] == [
                "tenant0", "tenant2", "tenant1", "tenant3",
            ]
            facade = fleet.tenant("tenant1")
            assert facade.deployment.config.frontend == "coresight"
            with pytest.raises(SocConfigError):
                fleet.tenant("nobody")
            assert fleet.health() == {
                name: TenantHealth.HEALTHY for name in _names()
            }
            rows = fleet.liveness()
            assert [row["shard"] for row in rows] == [0, 1]
            assert all(row["alive"] for row in rows)
            assert all(row["restarts"] == 0 for row in rows)

    def test_run_after_close_refused(self):
        fleet = _fleet(num_shards=2)
        fleet.close()
        fleet.close()  # idempotent
        with pytest.raises(FleetError, match="closed"):
            fleet.run_events(_traces(0))

    def test_unknown_tenant_traffic_refused(self):
        with _fleet(num_shards=2) as fleet:
            with pytest.raises(SocConfigError, match="nobody"):
                fleet.run_events({"nobody": _traces(0)["tenant0"]})
            with pytest.raises(SocConfigError, match="zz"):
                fleet.run_events({1: [], "zz": []})


class TestValidation:
    def test_no_tenants_refused(self):
        with pytest.raises(FleetError):
            FleetCoordinator(demo_factory, [], "/tmp/unused")

    def test_duplicate_tenants_refused(self):
        with pytest.raises(FleetError, match="duplicate"):
            FleetCoordinator(
                demo_factory, ["a", "a"], "/tmp/unused"
            )

    def test_more_shards_than_tenants_refused(self):
        with pytest.raises(FleetError, match="at least one tenant"):
            FleetCoordinator(
                demo_factory,
                ["a", "b"],
                "/tmp/unused",
                FleetConfig(num_shards=3),
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_shards=0),
            dict(max_restarts=0),
            dict(heartbeat_timeout_s=0),
            dict(round_timeout_s=-1),
            dict(journal_chunk_events=0),
        ],
    )
    def test_bad_config_refused(self, kwargs):
        with pytest.raises(FleetError):
            FleetConfig(**kwargs)


class TestServeOverFleet:
    def test_front_door_runs_unchanged_over_a_fleet(self):
        # Swapping the solo manager for a coordinator is a constructor
        # change: HELLO validation, ingestion, drain, and verdict
        # accounting all ride the same duck surface.
        async def scenario():
            fleet = _fleet(num_shards=2)
            clock = {"ns": 0}
            server = IngestServer(
                fleet, ServeConfig(), clock_ns=lambda: clock["ns"]
            )
            try:
                client = ServeClient.local(server)
                await client.hello("tenant1")
                response = await client.send_events(
                    demo_events(KIND, 0, 60)
                )
                served = server.drain_once()
                summary = await client.bye()
                await server.stop()
                return response, served, summary, server, dict(
                    fleet.counts
                )
            finally:
                fleet.close()

        response, served, summary, server, counts = asyncio.run(
            scenario()
        )
        assert response["accepted_events"] == 60
        assert served == 60
        assert summary["admitted"] == 1
        assert server.counts["serve.rounds"] == 1
        assert server.counts["serve.verdicts"] > 0
        assert counts["fleet.rounds"] == 1
        assert counts["fleet.rounds.admitted"] == 1  # one busy shard

    def test_unknown_tenant_hello_refused_by_fleet(self):
        async def scenario():
            fleet = _fleet(num_shards=2)
            server = IngestServer(fleet, ServeConfig())
            try:
                client = ServeClient.local(server)
                from repro.errors import ServeError

                with pytest.raises(ServeError, match="HELLO refused"):
                    await client.hello("nobody")
                await server.stop()
            finally:
                fleet.close()

        asyncio.run(scenario())
