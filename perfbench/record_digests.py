"""Record the per-round verdict digests the benchmark checks against.

Usage, from the repository root::

    python3 perfbench/record_digests.py --seeds 0-127

For every listed seed it builds the batch workloads' seeded round pool,
runs each pool round through the workload's reference path
(``workloads.reference_digests``) and writes the digests to
perfbench/digests.json.  A benchmark run on a recorded seed fails every
round whose verdicts differ from them.  Record again only when a change
to the program is meant to change its verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="first-last, inclusive")
    args = parser.parse_args(argv)
    run._import_program()
    import harness
    import workloads

    harness.train_model()
    walks = harness.walk_set(workloads.POOL_ROUNDS * harness.TENANTS)
    recorded = {workload: {} for workload in workloads.BATCH_WORKLOADS}
    for seed in args.seeds:
        pool = harness.round_pool(seed, workloads.POOL_ROUNDS, walks=walks)
        for workload in workloads.BATCH_WORKLOADS:
            digests = workloads.reference_digests(workload, pool)
            recorded[workload][str(seed)] = "".join(digests)
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    with open(harness.DIGESTS_FILE, "w") as handle:
        json.dump(
            {
                "about": "per pool round verdict digests, joined in pool"
                " order; written by perfbench/record_digests.py",
                "pool_rounds": workloads.POOL_ROUNDS,
                "digest_hex": harness.DIGEST_HEX,
                "digests": recorded,
            },
            handle,
            indent=1,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
