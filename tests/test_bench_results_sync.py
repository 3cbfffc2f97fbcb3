"""Drift test: root ``BENCH_*.json`` mirrors equal the canonical copies.

Benchmark JSON results live in ``benchmarks/results/`` and are
mirrored at the repository root for the acceptance gate.  Both copies
are written by the single shared writer ``benchmarks/bench_io.py``;
this test pins the invariant for the checked-in files so a hand edit
(or a resurrected per-script writer) can't let them drift apart.
"""

import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
RESULTS_DIR = BENCH_DIR / "results"


def _bench_io():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import bench_io
    finally:
        sys.path.remove(str(BENCH_DIR))
    return bench_io


MIRRORED = _bench_io().MIRRORED_RESULTS


def test_every_root_bench_json_is_registered():
    """No stray root BENCH_*.json outside the mirrored set."""
    stray = {
        path.name for path in REPO_ROOT.glob("BENCH_*.json")
    } - set(MIRRORED)
    assert not stray, (
        f"root benchmark files {sorted(stray)} are not registered in "
        "benchmarks/bench_io.MIRRORED_RESULTS"
    )


@pytest.mark.parametrize("name", MIRRORED)
def test_mirrors_are_byte_identical(name):
    root_copy = REPO_ROOT / name
    canonical = RESULTS_DIR / name
    assert canonical.exists(), f"missing canonical {canonical}"
    assert root_copy.exists(), f"missing root mirror {root_copy}"
    assert root_copy.read_bytes() == canonical.read_bytes(), (
        f"{name}: root mirror drifted from benchmarks/results/ copy "
        "(regenerate via the benchmark script; both copies are "
        "written by bench_io.save_result)"
    )


@pytest.mark.parametrize("name", MIRRORED)
def test_mirrors_are_valid_json(name):
    doc = json.loads((RESULTS_DIR / name).read_text())
    assert isinstance(doc, dict) and doc, name


def test_save_result_writes_both_homes(tmp_path, monkeypatch):
    bench_io = _bench_io()
    monkeypatch.setattr(bench_io, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(
        bench_io, "RESULTS_DIR", tmp_path / "benchmarks" / "results"
    )
    (tmp_path / "benchmarks").mkdir()
    name = MIRRORED[0]
    payload = bench_io.save_result(name, {"benchmark": "unit-test"})
    root_copy = (tmp_path / name).read_text()
    canonical = (tmp_path / "benchmarks" / "results" / name).read_text()
    assert root_copy == canonical == payload
    assert json.loads(payload) == {"benchmark": "unit-test"}


def test_smoke_result_leaves_committed_copies_alone(tmp_path, monkeypatch):
    bench_io = _bench_io()
    results_dir = tmp_path / "benchmarks" / "results"
    monkeypatch.setattr(bench_io, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(bench_io, "RESULTS_DIR", results_dir)
    name = MIRRORED[0]
    payload = bench_io.save_result(name, {"smoke": True})
    assert not (tmp_path / name).exists()
    assert not (results_dir / name).exists()
    assert (results_dir / "smoke" / name).read_text() == payload


def test_save_result_rejects_unregistered_names():
    bench_io = _bench_io()
    with pytest.raises(ValueError):
        bench_io.save_result("BENCH_unknown.json", {})
