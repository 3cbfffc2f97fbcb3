"""Shared measurement and checking helpers for the benchmark."""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import struct
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Tenants in each batch round and events each tenant brings.
TENANTS = 8
EVENTS_PER_TENANT = 1500
#: The demo model is part of the program under test, trained with a
#: fixed seed whatever the workload seed.
MODEL_SEED = 0
#: Hex digits kept of each round's verdict digest.
DIGEST_HEX = 16
#: Per-round verdict digests recorded for a range of seeds by
#: record_digests.py.
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def tenant_names(count: int = TENANTS) -> List[str]:
    return [f"tenant{index}" for index in range(count)]


def train_model() -> None:
    """Train the demo model (cached per process) before inputs are made."""
    from repro.eval.metrics import demo_events

    demo_events("lstm", MODEL_SEED, 1)


def walk_set(slots: int) -> List[tuple]:
    """The ``slots`` branch-event walks every seed's pool draws on."""
    from repro.eval.metrics import demo_events

    return [
        tuple(
            demo_events(
                "lstm",
                MODEL_SEED,
                EVENTS_PER_TENANT,
                run_label=f"perfbench-walk-{walk}",
            )
        )
        for walk in range(slots)
    ]


def round_pool(
    seed: int,
    rounds: int,
    tenants: int = TENANTS,
    walks: Optional[Sequence[tuple]] = None,
) -> List[Dict[str, tuple]]:
    """``rounds`` distinct rounds of per-tenant branch-event walks, in
    an order the seed decides.

    The rounds are the same for every seed (made from a shared set of
    ``rounds * tenants`` walks, passed in as ``walks`` or made here).
    The vectors a walk yields vary a lot from walk to walk, and in
    exact mode how walks meet in a round decides how inferences batch:
    regrouping the same walks per seed moved solo-exact's round time by
    up to 30% between seeds.  Fixed rounds keep the work per pass equal,
    and runs with different seeds comparable.
    """
    slots = rounds * tenants
    if walks is None:
        walks = walk_set(slots)
    names = tenant_names(tenants)
    pool = [
        dict(zip(names, walks[index * tenants : (index + 1) * tenants]))
        for index in range(rounds)
    ]
    random.Random(seed).shuffle(pool)
    return pool


def digest(records: Mapping[str, Sequence]) -> str:
    """Each tenant's verdicts in order: anomalous flag and score, hashed
    and cut to DIGEST_HEX hex digits."""
    hasher = hashlib.sha256()
    for name in sorted(records):
        hasher.update(name.encode() + b"\0")
        for record in records[name]:
            hasher.update(
                struct.pack("<?d", bool(record.anomalous), float(record.score))
            )
    return hasher.hexdigest()[:DIGEST_HEX]


def recorded_digests(workload: str, seed: int) -> Optional[List[str]]:
    """Per pool round, the verdict digests recorded for ``workload`` and
    ``seed`` in DIGESTS_FILE (None when the seed is not recorded)."""
    with open(DIGESTS_FILE) as handle:
        joined = json.load(handle)["digests"][workload].get(str(seed))
    if joined is None:
        return None
    return [
        joined[start : start + DIGEST_HEX]
        for start in range(0, len(joined), DIGEST_HEX)
    ]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples
    beyond it — the maximum when there are too few samples."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return float(ordered[-1]), 100.0
    return float(ordered[count - 11]), 100.0 * (count - 10) / count


def block_tail(values: Sequence[float], blocks: int) -> Tuple[float, float]:
    """(value, percentile): the median over ``blocks`` consecutive
    blocks of ``values`` of each block's tail, so one stall of the host
    moves one block's tail and not the figure."""
    size = len(values) / blocks
    tails = [
        tail(values[int(block * size) : int((block + 1) * size)])
        for block in range(blocks)
    ]
    return (
        median([value for value, _ in tails]),
        median([pct for _, pct in tails]),
    )


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Summed peak resident set (VmHWM) of this process and ``pids``."""
    total_kb = 0
    for pid in [os.getpid(), *pids]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # a worker that has already exited
    return total_kb / 1024.0


def conservation(counters: Mapping[str, int]) -> List[str]:
    """Violated fleet and transport conservation laws (empty when held)."""
    problems = []
    shard_rounds = sum(
        value
        for name, value in counters.items()
        if name.startswith("fleet.shard.") and name.endswith(".rounds")
    )
    admitted = counters.get("fleet.rounds.admitted", 0)
    replayed = counters.get("fleet.rounds.replayed", 0)
    if admitted != shard_rounds + replayed:
        problems.append(
            f"fleet: admitted {admitted} != shard rounds {shard_rounds}"
            f" + replayed {replayed}"
        )
    staged = counters.get("fleet.transport.bytes.staged", 0)
    consumed = counters.get("fleet.transport.bytes.consumed", 0)
    discarded = counters.get("fleet.transport.bytes.discarded", 0)
    if staged != consumed + discarded:
        problems.append(
            f"transport: staged {staged} != consumed {consumed}"
            f" + discarded {discarded}"
        )
    return problems


def delta(after: Mapping[str, int], before: Mapping[str, int], name: str):
    return int(after.get(name, 0)) - int(before.get(name, 0))
