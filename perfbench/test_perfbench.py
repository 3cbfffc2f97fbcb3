"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload is run smoke-sized (``--seconds 1``: one pass over the
round pool) with and without tracing, and must leave no process
running; the output check is shown to reject a perturbed verdict.
"""

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]


def _session(sid: int):
    """Processes, zombies too, that are still in session ``sid``."""
    found = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # ended while we looked
        fields = text.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:
            found.append(text.split(" ", 1)[0] + " " + fields[0])
    return found


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT):
    """Run the benchmark in a session of its own; it must leave no
    process behind."""
    command = [
        sys.executable,
        str(cwd / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", "5",
        "--seconds", "1",
        "--trace", str(trace),
    ]
    child = subprocess.Popen(
        command,
        cwd=str(cwd),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=600)
    assert _session(child.pid) == [], "the benchmark left processes running"
    return subprocess.CompletedProcess(command, child.returncode, stdout, stderr)


def _check_output(done, declared):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {metric["name"] for metric in declared}
    for metric in declared:
        entry = metrics[metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], float)
        printed = f"{metric['name']} = "
        assert any(line.startswith(printed) for line in done.stdout.splitlines())
    return metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    done = _run(workload, 0)
    metrics = _check_output(done, BENCH["end_to_end"])
    for metric in BENCH["end_to_end"]:
        assert metrics[metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    done = _run(workload, 1)
    metrics = _check_output(done, BENCH["per_layer"])
    if workload in workloads.BATCH_WORKLOADS:
        assert "checked against the recorded digests of seed 5" in done.stdout
    assert 0 < metrics["trace.attributed_frac"]["value"] <= 1
    assert metrics["soc.run_trace.ms"]["value"] > 0
    assert metrics["miaow.compile.misses"]["value"] == 0
    if workload == "solo-exact":
        assert metrics["miaow.dispatch_batch.ms"]["value"] > 0
        assert metrics["durability.journal.append.ms"]["value"] == 0
    else:
        assert metrics["fleet.worker.run_events.ms"]["value"] > 0
        assert metrics["durability.decode_trace_chunk.ms"]["value"] > 0
        assert metrics["miaow.dispatches"]["value"] == 0
    if workload == "serve-open":
        assert metrics["frontends.decode.ns_per_event"]["value"] > 0


def test_output_check_rejects_a_flipped_verdict():
    from repro.eval.metrics import build_demo_manager, demo_events

    manager = build_demo_manager(num_tenants=2)
    records = manager.run_events(
        {
            name: demo_events("lstm", 0, 1500, run_label=f"check-{name}")
            for name in harness.tenant_names(2)
        }
    )
    expected = harness.digest(records)
    flipped = {name: list(found) for name, found in records.items()}
    victim = next(name for name in flipped if flipped[name])
    first = flipped[victim][0]
    flipped[victim][0] = dataclasses.replace(
        first, anomalous=not first.anomalous
    )
    result = workloads.Result()
    workloads._check_rounds(
        result,
        [(0, harness.digest(records), None), (0, harness.digest(flipped), None)],
        {"live reference": [expected], "recorded digest": [expected]},
    )
    assert (result.attempted, result.failed) == (2, 1)
    assert result.problems
    assert harness.digest(records) == expected  # the copy left it intact


def test_output_check_fails_a_round_only_the_recording_rejects():
    # A change that moves the live reference along with the system
    # under test is still caught by the recorded digest.
    result = workloads.Result()
    workloads._check_rounds(
        result,
        [(0, "a" * harness.DIGEST_HEX, None)],
        {"live reference": ["a" * harness.DIGEST_HEX],
         "recorded digest": ["b" * harness.DIGEST_HEX]},
    )
    assert (result.attempted, result.failed) == (1, 1)
    assert "recorded digest" in result.problems[0]


def test_recorded_digests_cover_every_round():
    for workload in workloads.BATCH_WORKLOADS:
        digests = harness.recorded_digests(workload, 5)
        assert len(digests) == workloads.POOL_ROUNDS
        assert all(len(item) == harness.DIGEST_HEX for item in digests)
        assert harness.recorded_digests(workload, 10**9) is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run("fleet-rounds", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_attribution_counts_time_any_layer_runs():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["round", 0, 100, -1, 0],
        ["fleet.run_events", 5, 95, 0, 0],
        ["fleet.encode_round", 10, 20, 1, 0],
    ]
    tracer.fleet_rounds = {7: 0}
    worker = {
        "spans": [
            ["fleet.decode_round", 30, 40, -1, 7],
            ["soc.run_events", 40, 80, -1, 7],
            ["soc.run_trace", 50, 60, 1, 7],
            ["soc.run_events", 200, 300, -1, 6],  # a warm-up dispatch
        ],
        "counts": [["mcm.inferences.single", 7, 3], ["x", 6, 1]],
    }
    analysis = tracing.analyse(tracer, [worker])
    assert analysis["rounds"] == 1
    # Covered: encode [10, 20) and the worker's dispatch [30, 80).
    assert analysis["attributed_frac"] == pytest.approx(0.6)
    layer = analysis["layer_ms"]
    assert layer["fleet.run_events"] == pytest.approx(80 / 1e6)
    assert layer["soc.run_events"] == pytest.approx(30 / 1e6)
    assert layer["soc.run_trace"] == pytest.approx(10 / 1e6)
    assert analysis["counts"] == {"mcm.inferences.single": 3}
