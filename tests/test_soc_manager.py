"""Multi-tenant deployments: N programs, one shared ML-MIAOW.

The isolation contract under test: sharing the engine may *delay* a
tenant (single-server queueing) but never corrupts its stream — each
tenant's vectors, sequence numbers, and records are exactly what a
dedicated SoC running the same trace would produce, and the shared
engine never serves two lanes at once.
"""

from __future__ import annotations

import pytest

from repro.errors import McmError, SocConfigError
from repro.eval.metrics import (
    build_demo_manager,
    build_demo_soc,
    demo_events,
)
from repro.mcm.arbiter import ArbitratedMcm
from repro.mcm.driver import MlMiaowDriver
from repro.miaow.gpu import Gpu
from repro.obs import MetricsRegistry
from repro.soc.manager import Deployment, SocManager

NUM_TENANTS = 4


@pytest.fixture(scope="module")
def four_tenant_run():
    registry = MetricsRegistry()
    # Deep lane FIFOs: 4 tenants on one engine queue ~4x longer than a
    # dedicated SoC, and this fixture wants a loss-free round so the
    # content-isolation assertions are exact.
    manager = build_demo_manager(
        num_tenants=NUM_TENANTS, kind="lstm", metrics=registry,
        fifo_depth=256,
    )
    traces = {
        f"tenant{i}": demo_events("lstm", 0, 6_000, run_label=f"tenant-{i}")
        for i in range(NUM_TENANTS)
    }
    records = manager.run_events(traces)
    return manager, traces, records, registry


class TestFourTenants:
    def test_single_shared_engine(self, four_tenant_run):
        manager, _, _, _ = four_tenant_run
        engines = {
            id(t.deployment.driver.gpu) for t in manager.tenants
        }
        assert len(engines) == 1

    def test_every_tenant_gets_records(self, four_tenant_run):
        _, _, records, _ = four_tenant_run
        assert set(records) == {f"tenant{i}" for i in range(NUM_TENANTS)}
        for name, stream in records.items():
            assert len(stream) > 0, f"{name} produced no inferences"

    def test_streams_are_isolated_sequences(self, four_tenant_run):
        # Per-tenant sequence numbers are contiguous from zero: no
        # vector from another tenant ever lands in this lane.
        _, _, records, _ = four_tenant_run
        for name, stream in records.items():
            sequences = [r.sequence_number for r in stream]
            assert sequences == list(range(len(sequences))), name

    def test_engine_serves_one_lane_at_a_time(self, four_tenant_run):
        # Single-server invariant: the service intervals of all lanes,
        # merged, never overlap.
        _, _, records, _ = four_tenant_run
        intervals = sorted(
            (r.start_ns, r.done_ns)
            for stream in records.values()
            for r in stream
        )
        for (_, prev_done), (next_start, _) in zip(
            intervals, intervals[1:]
        ):
            assert next_start >= prev_done

    def test_tenant_matches_dedicated_soc(self, four_tenant_run):
        # Tenant 0's inference *content* equals a dedicated SoC run of
        # the same trace: same vectors in, same scores/anomaly flags
        # out.  (Timing differs: the shared engine adds queueing.)
        _, traces, records, _ = four_tenant_run
        solo = build_demo_soc("lstm", fifo_depth=256).run_events(
            traces["tenant0"]
        )
        shared = records["tenant0"]
        assert len(shared) == len(solo)
        for a, b in zip(shared, solo):
            assert a.sequence_number == b.sequence_number
            assert a.trigger_cycle == b.trigger_cycle
            assert a.arrival_ns == b.arrival_ns
            assert a.score == b.score
            assert a.anomalous == b.anomalous

    def test_arbiter_grants_cover_all_lanes(self, four_tenant_run):
        manager, _, records, registry = four_tenant_run
        counters = registry.snapshot()["counters"]
        for index in range(NUM_TENANTS):
            expected = len(records[f"tenant{index}"])
            assert counters[f"mcm.arbiter.grants.{index}"] == expected
        assert counters["socmgr.vectors"] == sum(
            len(stream) for stream in records.values()
        )

    def test_idle_tenant_and_second_round(self, four_tenant_run):
        manager, traces, first, _ = four_tenant_run
        # Second round: only tenant1 runs; others idle and return no
        # *new* records.  take_new_records semantics keep rounds
        # separable even though mcm.records accumulates.
        second = manager.run_events({"tenant1": traces["tenant1"]})
        assert len(second["tenant1"]) == len(first["tenant1"])
        for name in ("tenant0", "tenant2", "tenant3"):
            assert second[name] == []
        # Per-round sessions reset: the repeat run is reproducible.
        repeat = manager.run_events({"tenant1": traces["tenant1"]})
        assert [r.done_ns for r in repeat["tenant1"]] == [
            r.done_ns for r in second["tenant1"]
        ]


def test_contention_losses_stay_per_lane():
    # With the demo's shallow default FIFO (64), four tenants on one
    # engine overflow their *own* lanes; the drops are accounted
    # per-tenant and never corrupt the surviving record prefix.
    manager = build_demo_manager(num_tenants=NUM_TENANTS, kind="lstm")
    traces = {
        f"tenant{i}": demo_events("lstm", 0, 6_000, run_label=f"tenant-{i}")
        for i in range(NUM_TENANTS)
    }
    records = manager.run_events(traces)
    total_dropped = sum(
        t.mcm.dropped_vectors for t in manager.tenants
    )
    assert total_dropped > 0, "expected contention at fifo_depth=64"
    for name, stream in records.items():
        sequences = [r.sequence_number for r in stream]
        assert sequences == list(range(len(sequences))), name


class TestManagerValidation:
    def test_unknown_tenant_refused(self, four_tenant_run):
        manager, _, _, _ = four_tenant_run
        with pytest.raises(SocConfigError):
            manager.run_events({"ghost": []})
        with pytest.raises(SocConfigError, match="zz"):
            manager.run_events({1: [], "zz": []})
        with pytest.raises(SocConfigError):
            manager.tenant("ghost")

    def test_mixed_engines_refused(self):
        manager = build_demo_manager(num_tenants=2, kind="lstm")
        deployments = [t.deployment for t in manager.tenants]
        # rebuild tenant 1 around its own private GPU
        lone = deployments[1]
        lone_driver = MlMiaowDriver(
            lone.driver.deployment, Gpu(num_cus=5), execute_on_gpu=False
        )
        with pytest.raises(SocConfigError):
            SocManager(
                [
                    deployments[0],
                    Deployment(
                        name="rogue",
                        driver=lone_driver,
                        converter=lone.converter,
                        monitored_addresses=lone.monitored_addresses,
                        detector=lone.detector,
                        config=lone.config,
                    ),
                ]
            )

    def test_duplicate_names_refused(self):
        manager = build_demo_manager(num_tenants=2, kind="lstm")
        deployments = [t.deployment for t in manager.tenants]
        clone = Deployment(
            name=deployments[0].name,
            driver=deployments[1].driver,
            converter=deployments[1].converter,
            monitored_addresses=deployments[1].monitored_addresses,
            detector=deployments[1].detector,
            config=deployments[1].config,
        )
        with pytest.raises(SocConfigError):
            SocManager([deployments[0], clone])

    def test_empty_manager_refused(self):
        with pytest.raises(SocConfigError):
            SocManager([])

    def test_arbiter_requires_shared_engine(self):
        a = build_demo_manager(num_tenants=1, kind="lstm")
        b = build_demo_manager(num_tenants=1, kind="lstm")
        with pytest.raises(McmError):
            ArbitratedMcm([a.tenants[0].mcm, b.tenants[0].mcm])

    def test_arbiter_requires_lanes(self):
        with pytest.raises(McmError):
            ArbitratedMcm([])
