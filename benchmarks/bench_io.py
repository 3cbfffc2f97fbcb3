"""Shared benchmark-result I/O: one writer, two synchronized homes.

Every ``BENCH_*.json`` document lives in the canonical
``benchmarks/results/`` directory *and* as a mirror at the repository
root, where the acceptance gate looks for it.  Historically each
benchmark script hand-rolled its own mirroring (and the pipeline
benchmark relied on the MCM benchmark to copy its file), which let the
two copies drift.  :func:`save_result` is now the only writer: both
copies come from the same serialized payload in the same call, and
``tests/test_bench_results_sync.py`` pins byte-equality for the
checked-in files.

Smoke documents (``"smoke": true``) are too small to stand for the
recorded results, so they go only to the untracked
``benchmarks/results/smoke/`` directory and never replace the
committed copies.
"""

from __future__ import annotations

import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Result documents mirrored at the repository root.  Adding a new
#: benchmark JSON here is what opts it into the drift test.
MIRRORED_RESULTS = (
    "BENCH_pipeline.json",
    "BENCH_mcm.json",
    "BENCH_mcm_batched.json",
    "BENCH_serve.json",
    "BENCH_fleet.json",
)


def save_result(name: str, result: dict) -> str:
    """Write one benchmark JSON to ``results/`` and its root mirror.

    A smoke document is written to ``results/smoke/`` alone.  Returns
    the serialized payload.  ``name`` must be registered in
    :data:`MIRRORED_RESULTS` so the drift test covers the new file.
    """
    if name not in MIRRORED_RESULTS:
        raise ValueError(
            f"unknown benchmark result {name!r}; add it to "
            "bench_io.MIRRORED_RESULTS so the drift test covers it"
        )
    payload = json.dumps(result, indent=2) + "\n"
    if result.get("smoke"):
        smoke_dir = RESULTS_DIR / "smoke"
        smoke_dir.mkdir(parents=True, exist_ok=True)
        (smoke_dir / name).write_text(payload)
        return payload
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(payload)
    (REPO_ROOT / name).write_text(payload)
    return payload
