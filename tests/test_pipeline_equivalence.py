"""Differential proof that the staged dataplane is behaviour-preserving.

The same demo SoC runs the same trace twice — once through the
per-event reference loop, once through the batched staged pipeline —
and every observable output must match exactly: inference records
(timestamps to the last bit), interrupts, and the full observability
counter set.  This is the contract that let the refactor land without
regenerating a single golden fixture.
"""

from __future__ import annotations

import pytest

from repro.eval.metrics import build_demo_soc, demo_events
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.obs import MetricsRegistry

#: Event- and vector-level faults whose decisions are keyed by absolute
#: index, so chunk boundaries must not move them.  CHUNK_CORRUPT is
#: left out: it fires per chunk by design.
MULTI_CHUNK_FAULTS = FaultPlan(
    seed=5,
    specs=(
        FaultSpec(FaultKind.EVENT_DROP, rate=0.02),
        FaultSpec(FaultKind.EVENT_DUP, rate=0.02),
        FaultSpec(FaultKind.EVENT_CORRUPT, rate=0.02),
        FaultSpec(FaultKind.FIFO_OVERFLOW, rate=0.1, burst=2),
    ),
)


def record_key(record):
    return (
        record.sequence_number,
        record.trigger_cycle,
        record.arrival_ns,
        record.start_ns,
        record.done_ns,
        record.score,
        record.anomalous,
        record.gpu_cycles,
    )


def run_one(
    kind: str,
    events,
    dataplane: str,
    chunk_events: int = 32768,
    fault_plan=None,
):
    registry = MetricsRegistry()
    soc = build_demo_soc(kind, metrics=registry, fault_plan=fault_plan)
    soc.pipeline.chunk_events = chunk_events
    records = soc.run_events(events, dataplane=dataplane)
    interrupts = [
        (i.time_ns, i.sequence_number) for i in soc.mcm.interrupts.fired
    ]
    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        # pipeline.stage/deliver/chunk/integrity bookkeeping exists
        # only on the batched path; every shared counter must agree
        # exactly.
        if not name.startswith("pipeline.stage.")
        and not name.startswith("pipeline.deliver.")
        and not name.startswith("pipeline.integrity.")
        and name != "pipeline.chunks"
    }
    return records, interrupts, counters


@pytest.mark.parametrize("kind,count", [("lstm", 12_000), ("elm", 30_000)])
def test_batched_matches_loop(kind, count):
    events = demo_events(kind, 0, count)
    loop_records, loop_irqs, loop_counters = run_one(kind, events, "loop")
    bat_records, bat_irqs, bat_counters = run_one(kind, events, "batched")

    assert len(loop_records) > 10, "demo trace produced too few inferences"
    assert [record_key(r) for r in bat_records] == [
        record_key(r) for r in loop_records
    ]
    assert bat_irqs == loop_irqs
    assert bat_counters == loop_counters


CHUNK_SIZES = (1, 17, 997, 100_000)


@pytest.mark.parametrize(
    "chunk_events,fault_plan",
    [pytest.param(size, None, id=str(size)) for size in CHUNK_SIZES]
    + [
        pytest.param(size, MULTI_CHUNK_FAULTS, id=f"faults-{size}")
        for size in CHUNK_SIZES
    ],
)
def test_chunk_size_is_invisible(chunk_events, fault_plan):
    events = demo_events("lstm", 0, 6_000)
    baseline, _, base_counters = run_one(
        "lstm", events, "loop", fault_plan=fault_plan
    )
    got, _, counters = run_one(
        "lstm",
        events,
        "batched",
        chunk_events=chunk_events,
        fault_plan=fault_plan,
    )
    assert [record_key(r) for r in got] == [record_key(r) for r in baseline]
    faults = {k: v for k, v in counters.items() if k.startswith("faults.")}
    assert faults == {
        k: v for k, v in base_counters.items() if k.startswith("faults.")
    }
    if fault_plan is not None:
        assert faults["faults.vectors.dropped"] > 0


def test_dataplane_override_validated():
    from repro.errors import SocConfigError

    soc = build_demo_soc("lstm")
    with pytest.raises(SocConfigError):
        soc.run_events(demo_events("lstm", 0, 10), dataplane="simd")
