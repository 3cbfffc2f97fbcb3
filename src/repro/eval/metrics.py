"""``python -m repro.eval metrics`` — instrumented short-trace runs.

Runs a fixed-seed :class:`SyntheticProgram` through the *full*
``RtadSoc.run_events`` path with a live :class:`MetricsRegistry` and
reports the per-stage breakdown: counters for every pipeline stage
(PTM bytes/packets, TPIU frames, mapper hits/misses, vectors, MCM
inferences, kernel launches) and p50/p95/p99 latency histograms
mirroring Fig. 7's read/vectorize/copy decomposition.

The demo deployments are deliberately small (they train in seconds);
the same builders back ``tests/test_golden_trace.py``, so the metrics
command exercises exactly the configuration the golden regression
pins down.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.prep import get_program
from repro.eval.report import format_snapshot, format_table
from repro.mcm.driver import MlMiaowDriver
from repro.mcm.engines import ProtocolConverter
from repro.miaow.gpu import Gpu
from repro.ml.detector import ThresholdDetector
from repro.ml.elm import ExtremeLearningMachine
from repro.ml.features import PatternDictionary
from repro.ml.kernels import DeployedElm, DeployedLstm
from repro.ml.lstm import LstmModel
from repro.faults.plan import FaultPlan
from repro.obs import MetricsRegistry
from repro.soc.manager import Deployment, HealthPolicy, SocManager
from repro.soc.rtad import RtadConfig, RtadSoc
from repro.workloads.dataset import (
    Vocabulary,
    build_dataset,
    sliding_windows,
)

#: Fixed demo configuration — also pinned by the golden-trace test.
DEMO_BENCHMARK = "403.gcc"
DEMO_ELM_WINDOW = 16
DEMO_MAPPER_SIZE = 30
DEMO_KINDS = ("elm", "lstm")

#: Histograms worth surfacing in the condensed per-stage table.
_LATENCY_METRICS = (
    ("pipeline.read_ns", "(1) read (PTM FIFO batching)"),
    ("pipeline.vectorize_ns", "(2) vectorize (IGM)"),
    ("mcm.copy_ns", "(3) copy (TX burst)"),
    ("mcm.queue_ns", "MCM queue wait"),
    ("mcm.gpu_ns", "GPU kernel time"),
    ("mcm.service_ns", "MCM service total"),
    ("pipeline.e2e_ns", "end-to-end (branch -> judgment)"),
)

#: Robustness counters always reported (0 when nothing fired), so the
#: metrics output shape is stable whether or not faults are injected.
ROBUSTNESS_COUNTERS = (
    "faults.bytes.flipped",
    "faults.bytes.dropped",
    "faults.bytes.duplicated",
    "faults.bytes.desyncs",
    "faults.events.dropped",
    "faults.events.duplicated",
    "faults.events.corrupted",
    "faults.vectors.dropped",
    "faults.chunks.corrupted",
    "coresight.decoder.resyncs",
    "coresight.decoder.truncated",
    "coresight.decoder.hunt_bytes",
    "tpiu.frame_resyncs",
    "tpiu.bytes_discarded",
    "etrace.decoder.resyncs",
    "etrace.decoder.truncated",
    "etrace.decoder.hunt_bytes",
    "etrace.deframer.resyncs",
    "etrace.deframer.bytes_discarded",
    "pipeline.integrity.checks",
    "pipeline.integrity.crc_mismatches",
    "pipeline.integrity.gaps",
    "mcm.dropped_vectors",
    "mcm.cancelled",
    "mcm.dual_run.runs",
    "mcm.dual_run.divergences",
    "mcm.arbiter.watchdog.cancelled",
    "mcm.arbiter.hangs",
    "socmgr.crashes",
    "socmgr.health.quarantines",
    "socmgr.health.readmissions",
    "socmgr.health.degradations",
    "socmgr.recoveries",
    "socmgr.rounds_replayed",
    "durability.journal.appends",
    "durability.journal.bytes",
    "durability.journal.rolls",
    "durability.journal.torn_drops",
)

#: Fast-path counters always reported (0 when the engine never took
#: the compiled path — e.g. the calibrated demo mode, which dispatches
#: only the warm-up calibration inference), so the output shape is
#: stable across execution modes.
PERF_COUNTERS = (
    "miaow.compile.hits",
    "miaow.compile.misses",
    "miaow.compile.evictions",
    "miaow.fastpath.dispatches",
    "miaow.fastpath.interpreted",
    "miaow.fastpath.fallback.disabled",
    "miaow.fastpath.fallback.coverage",
    "miaow.fastpath.fallback.occupancy",
    "miaow.fastpath.fallback.unsupported",
    "miaow.batch.dispatches",
    "miaow.batch.requests",
    "miaow.batch.fallback.engine",
    "miaow.batch.fallback.unsupported",
    "miaow.batch.fallback.replayed",
)

_DEMO_PARTS: Dict[Tuple[str, int], dict] = {}


def _demo_parts(kind: str, seed: int) -> dict:
    """Train (once per process) the small demo model for ``kind``."""
    key = (kind, seed)
    if key in _DEMO_PARTS:
        return _DEMO_PARTS[key]
    program = get_program(DEMO_BENCHMARK, seed=seed)
    if kind == "elm":
        # Syscalls are far too sparse for a short full-path trace, so
        # the demo ELM scores n-gram patterns over monitored *call*
        # targets — same kernel, same dictionary machinery, but the
        # mapper hits often enough that a few-thousand-event trace
        # completes many windows.  Separate CFG walks land in
        # different phase behaviour, so training pools windows from
        # many walks and the detector is calibrated on *held-out*
        # walks (cross-walk variance, not same-walk residuals).
        monitored = program.monitored_call_targets(count=DEMO_MAPPER_SIZE)
        vocabulary = Vocabulary.from_addresses(monitored)

        def walk_windows(label: str) -> np.ndarray:
            trace = program.run(30_000, run_label=label)
            ids = vocabulary.encode_events(trace.events)
            return sliding_windows(ids, DEMO_ELM_WINDOW)

        train_windows = np.concatenate(
            [
                windows
                for index in range(20)
                if len(windows := walk_windows(f"elm-train-{index}"))
            ]
        )
        dictionary = PatternDictionary(n=2, capacity=255, unseen_gain=2)
        dictionary.fit(train_windows)
        model = ExtremeLearningMachine(
            input_dim=dictionary.size, hidden_dim=64, seed=seed + 7
        ).fit(dictionary.features(train_windows))
        calibration = np.concatenate(
            [
                windows
                for index in range(6)
                if len(windows := walk_windows(f"elm-cal-{index}"))
            ]
        )
        detector = ThresholdDetector(0.995).fit(
            model.score_mahalanobis_f32(dictionary.features(calibration))
        )
        parts = {
            "kind": kind,
            "program": program,
            "monitored": monitored,
            "model": model,
            "dictionary": dictionary,
            "detector": detector,
            "window": DEMO_ELM_WINDOW,
            "smoothing": 1,
        }
    elif kind == "lstm":
        dataset = build_dataset(
            program,
            feature="call",
            window=8,
            train_events=60_000,
            test_events=25_000,
            num_attacks=4,
            seed=seed,
            mapper_size=DEMO_MAPPER_SIZE,
        )
        model = LstmModel(
            vocabulary_size=dataset.vocabulary.size,
            hidden_size=16,
            seed=seed + 7,
        )
        model.fit(dataset.train_windows[:2500], epochs=4, seed=seed + 7)
        reference = DeployedLstm(model).make_reference()
        stream = dataset.test_normal[::8].ravel()[:600]
        detector = ThresholdDetector(0.99).fit(
            [reference.infer(int(b)) for b in stream]
        )
        parts = {
            "kind": kind,
            "program": program,
            "monitored": program.monitored_call_targets(
                count=DEMO_MAPPER_SIZE
            ),
            "model": model,
            "detector": detector,
            "window": 1,
            "smoothing": 1,
        }
    else:
        raise ValueError(f"unknown demo model kind {kind!r}")
    _DEMO_PARTS[key] = parts
    return parts


def build_demo_soc(
    kind: str = "lstm",
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    execute_on_gpu: bool = False,
    num_cus: int = 5,
    fifo_depth: int = 64,
    fault_plan: Optional[FaultPlan] = None,
    frontend: Optional[str] = None,
) -> RtadSoc:
    """A small, deterministic, fully assembled SoC for short traces.

    ``frontend`` selects the trace grammar (``"coresight"`` or
    ``"etrace"``).  When None it falls back to the ``REPRO_FRONTEND``
    environment variable, defaulting to CoreSight — so CI can re-run
    the whole demo surface under the other grammar without touching
    call sites.
    """
    if frontend is None:
        frontend = os.environ.get("REPRO_FRONTEND", "coresight")
    parts = _demo_parts(kind, seed)
    if kind == "elm":
        deployment = DeployedElm(
            parts["model"], parts["dictionary"], parts["window"]
        )
        converter = ProtocolConverter("elm", parts["dictionary"])
    else:
        deployment = DeployedLstm(parts["model"])
        converter = ProtocolConverter("lstm")
    driver = MlMiaowDriver(
        deployment,
        Gpu(num_cus=num_cus, name="ML-MIAOW"),
        execute_on_gpu=execute_on_gpu,
    )
    config = RtadConfig(
        model_kind=kind,
        window=parts["window"],
        fifo_depth=fifo_depth,
        score_smoothing=parts["smoothing"],
        fault_plan=fault_plan,
        frontend=frontend,
    )
    return RtadSoc(
        program=parts["program"],
        driver=driver,
        converter=converter,
        monitored_addresses=parts["monitored"],
        detector=parts["detector"],
        config=config,
        metrics=metrics,
    )


def demo_events(
    kind: str, seed: int, count: int, run_label: Optional[str] = None
):
    """The fixed branch-event stream the metrics run replays.

    ``run_label`` selects a different (deterministic) CFG walk of the
    *same* demo program — distinct traces that still hit the demo
    monitored addresses, which is what multi-tenant tests need.
    """
    program = _demo_parts(kind, seed)["program"]
    return program.run(
        count, run_label=run_label or f"metrics-{kind}"
    ).events


def build_demo_deployments(
    num_tenants: int = 4,
    kind: str = "lstm",
    seed: int = 0,
    num_cus: int = 5,
    fifo_depth: int = 64,
    fault_plans: Optional[Dict[str, FaultPlan]] = None,
    dataplane: str = "batched",
    dual_run: bool = False,
    execute_on_gpu: bool = False,
    frontends: Optional[Dict[str, str]] = None,
) -> List[Deployment]:
    """Fresh demo deployments sharing one engine (see build_demo_manager).

    Called a second time with the same arguments this returns an
    equivalent tenant set around a *new* Gpu — exactly what
    :meth:`SocManager.recover` needs to re-supply models and drivers
    after a simulated process crash.  ``execute_on_gpu=True`` builds
    exact-mode drivers (every inference really dispatches), the mode
    cross-tenant batched dispatch requires.
    """
    parts = _demo_parts(kind, seed)
    gpu = Gpu(num_cus=num_cus, name="ML-MIAOW")
    deployments = []
    for index in range(num_tenants):
        if kind == "elm":
            deployed = DeployedElm(
                parts["model"], parts["dictionary"], parts["window"]
            )
            converter = ProtocolConverter("elm", parts["dictionary"])
        else:
            deployed = DeployedLstm(parts["model"])
            converter = ProtocolConverter("lstm")
        driver = MlMiaowDriver(deployed, gpu, execute_on_gpu=execute_on_gpu)
        name = f"tenant{index}"
        deployments.append(
            Deployment(
                name=name,
                driver=driver,
                converter=converter,
                monitored_addresses=parts["monitored"],
                detector=parts["detector"],
                config=RtadConfig(
                    model_kind=kind,
                    window=parts["window"],
                    fifo_depth=fifo_depth,
                    score_smoothing=parts["smoothing"],
                    fault_plan=(fault_plans or {}).get(name),
                    dataplane=dataplane,
                    dual_run=dual_run,
                    frontend=(frontends or {}).get(name, "coresight"),
                ),
            )
        )
    return deployments


def build_demo_manager(
    num_tenants: int = 4,
    kind: str = "lstm",
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    num_cus: int = 5,
    fifo_depth: int = 64,
    fault_plans: Optional[Dict[str, FaultPlan]] = None,
    deadline_us: Optional[float] = None,
    health_policy: Optional[HealthPolicy] = None,
    dataplane: str = "batched",
    dual_run: bool = False,
    batch_limit: int = 1,
    execute_on_gpu: bool = False,
    frontends: Optional[Dict[str, str]] = None,
    journal=None,
    checkpoint_interval_events: Optional[int] = None,
    journal_chunk_events: int = 8192,
    crash_points=None,
) -> SocManager:
    """A multi-tenant manager: N demo deployments, one shared engine.

    Every tenant monitors the same demo program configuration (its own
    mapper/encoder/detector instances), and every driver wraps the
    *same* calibrated-mode Gpu — the arbitration configuration the
    SocManager tests exercise.
    """
    deployments = build_demo_deployments(
        num_tenants=num_tenants,
        kind=kind,
        seed=seed,
        num_cus=num_cus,
        fifo_depth=fifo_depth,
        fault_plans=fault_plans,
        dataplane=dataplane,
        dual_run=dual_run,
        execute_on_gpu=execute_on_gpu,
        frontends=frontends,
    )
    return SocManager(
        deployments,
        metrics=metrics,
        deadline_us=deadline_us,
        health_policy=health_policy,
        batch_limit=batch_limit,
        journal=journal,
        checkpoint_interval_events=checkpoint_interval_events,
        journal_chunk_events=journal_chunk_events,
        crash_points=crash_points,
    )


@dataclass
class MetricsRunResult:
    """One instrumented run plus its full registry snapshot."""

    kind: str
    events: int
    inferences: int
    interrupts: int
    dropped: int
    wall_s: float
    snapshot: Dict[str, object]


def run_metrics(
    kind: str = "lstm", events: int = 12_000, seed: int = 0
) -> MetricsRunResult:
    """Run one instrumented short trace and snapshot every stage."""
    registry = MetricsRegistry()
    soc = build_demo_soc(kind, seed=seed, metrics=registry)
    stream = demo_events(kind, seed, events)
    start = time.perf_counter()
    records = soc.run_events(stream)
    wall_s = time.perf_counter() - start
    return MetricsRunResult(
        kind=kind,
        events=len(stream),
        inferences=len(records),
        interrupts=soc.mcm.interrupts.count,
        dropped=soc.mcm.dropped_vectors,
        wall_s=wall_s,
        snapshot=registry.snapshot(),
    )


def run_metrics_all(
    kinds: Sequence[str] = DEMO_KINDS,
    events: int = 12_000,
    seed: int = 0,
) -> List[MetricsRunResult]:
    return [run_metrics(kind, events=events, seed=seed) for kind in kinds]


def stage_table(result: MetricsRunResult) -> str:
    histograms = result.snapshot["histograms"]
    rows = []
    for name, label in _LATENCY_METRICS:
        entry = histograms.get(name)
        if not entry or not entry["count"]:
            continue
        rows.append(
            (
                label,
                entry["count"],
                entry["p50"] / 1e3,
                entry["p95"] / 1e3,
                entry["p99"] / 1e3,
                entry["max"] / 1e3,
            )
        )
    return format_table(
        ["stage", "n", "p50 us", "p95 us", "p99 us", "max us"],
        rows,
        title=f"{result.kind}: per-stage latency breakdown "
              f"({result.events} events, {result.inferences} inferences, "
              f"{result.interrupts} interrupts, {result.dropped} dropped)",
    )


def robustness_counters(snapshot: Dict[str, object]) -> Dict[str, int]:
    """Loss/recovery counters from one registry snapshot.

    Every canonical fault/recovery counter is present (0 when it never
    fired).
    """
    counters: Dict[str, int] = snapshot.get("counters", {})  # type: ignore
    return {name: int(counters.get(name, 0)) for name in ROBUSTNESS_COUNTERS}


def perf_counters(snapshot: Dict[str, object]) -> Dict[str, int]:
    """Engine fast-path counters from one registry snapshot.

    Mirrors :func:`robustness_counters`: every canonical
    compiled-fast-path counter is present even when it reads zero.
    """
    counters: Dict[str, int] = snapshot.get("counters", {})  # type: ignore
    return {name: int(counters.get(name, 0)) for name in PERF_COUNTERS}


def serve_counters(snapshot: Dict[str, object]) -> Dict[str, int]:
    """Ingestion front-door counters from one registry snapshot.

    Mirrors :func:`robustness_counters`: every canonical ``serve.*``
    counter is present with a stable shape — all zeros when the
    snapshot came from an in-process run that never went through
    :class:`repro.serve.IngestServer`.
    """
    from repro.serve.server import SERVE_COUNTERS

    counters: Dict[str, int] = snapshot.get("counters", {})  # type: ignore
    return {name: int(counters.get(name, 0)) for name in SERVE_COUNTERS}


def serve_table(result: MetricsRunResult) -> str:
    rows = [
        (name, value)
        for name, value in serve_counters(result.snapshot).items()
    ]
    return format_table(
        ["counter", "count"],
        rows,
        title=f"{result.kind}: ingestion front door (admission / "
              "shed / breaker)",
    )


def perf_table(result: MetricsRunResult) -> str:
    rows = [
        (name, value)
        for name, value in perf_counters(result.snapshot).items()
    ]
    return format_table(
        ["counter", "count"],
        rows,
        title=f"{result.kind}: engine fast path (compile cache / "
              "dispatch routing)",
    )


def robustness_table(result: MetricsRunResult) -> str:
    rows = [
        (name, value)
        for name, value in robustness_counters(result.snapshot).items()
    ]
    return format_table(
        ["counter", "count"],
        rows,
        title=f"{result.kind}: robustness (drops / stalls / faults / "
              "recovery)",
    )


def format_metrics(results: Sequence[MetricsRunResult]) -> str:
    """Condensed stage tables plus the full instrument dump."""
    sections = []
    for result in results:
        sections.append(stage_table(result))
        sections.append(perf_table(result))
        sections.append(robustness_table(result))
        sections.append(serve_table(result))
        sections.append(
            format_snapshot(
                result.snapshot, title=f"{result.kind} full metrics"
            )
        )
    return "\n\n".join(sections)


def metrics_to_json(results: Sequence[MetricsRunResult]) -> Dict[str, object]:
    """JSON document: one entry per model kind."""
    return {
        result.kind: {
            "events": result.events,
            "inferences": result.inferences,
            "interrupts": result.interrupts,
            "dropped": result.dropped,
            "perf": perf_counters(result.snapshot),
            "robustness": robustness_counters(result.snapshot),
            "serve": serve_counters(result.snapshot),
            "metrics": result.snapshot,
        }
        for result in results
    }
