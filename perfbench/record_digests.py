"""Record the ``SystemStats`` digests the benchmark checks every cell against.

Run from the root of a checkout::

    python3 perfbench/record_digests.py

It records seeds 0-31 and 101 with a pool of two worker processes, and
rewrites ``digests.json`` whole.

Re-record only in a change that means to alter simulated behaviour (a
protocol or timing change, a new cell): a change made only for speed must
reproduce the recorded digests exactly.  Seed 1 is the default
``SystemConfig.seed``; seed 101 is held out, for checking a claim on a
seed not used while the change was written.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Tuple

import run

DEFAULT_SEED = 1
HELD_OUT_SEED = 101
SEEDS = tuple(range(32)) + (HELD_OUT_SEED,)
WORKERS = 2


def record(task: Tuple[str, int]) -> Tuple[str, int, List[str]]:
    """Digests of every cell of one workload at one seed, in cell order."""
    from repro.analysis.parallel import simulate_cell

    name, seed = task
    workload = run.WORKLOADS[name]
    digests = []
    for cores, scale, protocol, cell_workload in workload.spec().cells():
        payload = simulate_cell(workload.config(cores, seed), protocol,
                                cell_workload, scale, run.MAX_CYCLES)
        digests.append(run.payload_digest(payload))
    return name, seed, digests


def main() -> int:
    run.use_checkout()

    data = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {
            name: {"cells": [run.cell_id(cell)
                             for cell in workload.spec().cells()],
                   "seeds": {}}
            for name, workload in run.WORKLOADS.items()
        },
    }
    tasks = [(name, seed) for seed in SEEDS for name in run.WORKLOADS]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS,
                             mp_context=context,
                             initializer=run.use_checkout) as pool:
        for name, seed, digests in pool.map(record, tasks):
            data["workloads"][name]["seeds"][str(seed)] = " ".join(digests)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    run.DIGESTS_PATH.write_text(json.dumps(data, indent=1, sort_keys=True)
                                + "\n", encoding="utf-8")
    print(f"wrote {run.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
