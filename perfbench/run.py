"""End-to-end benchmark of the RTAD system: one command per workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-rounds --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the workload a second way, with spans recorded
around every layer, and reports per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  See
perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is timed from process start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

#: CPUs the benchmark may use (serve-open narrows its own set to one).
NPROC = len(os.sched_getaffinity(0))
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-rounds", "solo-exact", "serve-open")
#: Set-ups per measured run; setup_s is their median.
SETUP_REPEATS = 3
#: Set-up runs in a child process must finish within this.
SETUP_TIMEOUT_S = 120


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build the workload, report its set-up time and stop",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: the program's sources are missing ({source}/repro)\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, str(source))


def _child_setups(args, count: int):
    """Set-up times of ``count`` fresh processes, one after another."""
    times = []
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    for _ in range(count):
        # A session of its own, so a child that overruns is killed
        # together with every process it started.
        child = subprocess.Popen(
            command,
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
        if child.returncode != 0:
            raise subprocess.CalledProcessError(
                child.returncode, command, stdout, stderr
            )
        times.append(float(json.loads(stdout.splitlines()[-1])["setup_s"]))
    return times


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The fleet's shared-memory rings start the tracker, a process of its
    own that otherwise outlives the benchmark for a moment after it
    exits.  The fleet has joined its workers and unlinked its segments
    by now, so the tracker has nothing left to clean up.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import numpy
    import workloads

    run_dir = ROOT / ".perfbench-run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.workload == "serve-open":
            result = workloads.run_serve(
                args.seed, args.seconds, bool(args.trace), STARTED,
                str(run_dir), setup_only=args.setup_only,
            )
        else:
            result = workloads.run_batch(
                args.workload, args.seed, args.seconds, bool(args.trace),
                STARTED, str(run_dir), setup_only=args.setup_only,
            )
    finally:
        _stop_resource_tracker()
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.setup_only:
        print(json.dumps({"setup_s": result.setup_s}))
        return 0
    if not args.trace:
        setups = [result.setup_s]
        setups += _child_setups(args, SETUP_REPEATS - 1)
        result.put("setup_s", statistics.median(setups), "s")
        result.notes.append(
            "setup_s is the median of "
            + ", ".join(f"{value:.3f}" for value in setups)
            + " s"
        )
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g}"
        f" trace={args.trace} nproc={NPROC}"
        f" python={platform.python_version()} numpy={numpy.__version__}"
    )
    for note in result.notes:
        print(f"# {note}")
    for problem in result.problems:
        print(f"# CHECK FAILED: {problem}")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in sorted(result.metrics.items())
    }
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": not result.problems,
                "attempted": max(1, result.attempted),
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
