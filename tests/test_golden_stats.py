"""Golden-stats differential test: the protocol-framework refactor must be
timing-neutral.

The JSON files under ``tests/goldens/`` are ``SystemStats.to_dict()``
payloads captured from the pre-refactor (PR 1) simulator for fixed-seed
workloads under MESI and TSO-CC-4-12-3.  The current code must reproduce
them byte-identically; this is what allows ``CACHE_SCHEMA_VERSION`` to stay
unbumped across the refactor.

Further goldens pin the TSO-CC variants whose code paths the paper
configuration does not reach: no Shared hits (``CC-shared-to-L2``), no
timestamps (``-basic``), unbounded and narrow timestamps, an evicting LRU
timestamp table (``-tsTable1``) and no SharedRO decay (``-noSRO``).  The
Table 3 stand-ins never reset a timestamp source nor fence, so two small
programs on the small-cache platform pin those paths: a narrow-timestamp
shared accumulation that resets (the epoch path) and a fence that
self-invalidates (the ``cause="fence"`` flash-clear).

If one of these tests fails after an *intentional* timing/protocol change:
regenerate the goldens (run the same build/run/to_dict recipe and overwrite
the JSON) and bump ``CACHE_SCHEMA_VERSION`` in ``repro/analysis/parallel.py``
so cached figure results are invalidated too.
"""

import json
from pathlib import Path

import pytest

from repro.sim.config import SystemConfig
from repro.sim.system import build_system
from repro.workloads.benchmarks import make_benchmark
from repro.workloads.synthetic import shared_accumulation

from _helpers import fence_workload, make_small_config, narrow_timestamp_config

GOLDEN_DIR = Path(__file__).parent / "goldens"

CASES = [
    ("MESI", "fft", 0.5, "mesi_fft.json"),
    ("MESI", "intruder", 0.4, "mesi_intruder.json"),
    ("TSO-CC-4-12-3", "fft", 0.5, "tso_cc_4_12_3_fft.json"),
    ("TSO-CC-4-12-3", "intruder", 0.4, "tso_cc_4_12_3_intruder.json"),
    ("CC-shared-to-L2", "fft", 0.5, "cc_shared_to_l2_fft.json"),
    ("CC-shared-to-L2", "intruder", 0.4, "cc_shared_to_l2_intruder.json"),
    ("TSO-CC-4-basic", "fft", 0.5, "tso_cc_4_basic_fft.json"),
    ("TSO-CC-4-basic", "intruder", 0.4, "tso_cc_4_basic_intruder.json"),
    ("TSO-CC-4-noreset", "fft", 0.5, "tso_cc_4_noreset_fft.json"),
    ("TSO-CC-4-noreset", "intruder", 0.4, "tso_cc_4_noreset_intruder.json"),
    ("TSO-CC-4-6-3", "fft", 0.5, "tso_cc_4_6_3_fft.json"),
    ("TSO-CC-4-6-3", "intruder", 0.4, "tso_cc_4_6_3_intruder.json"),
    ("TSO-CC-4-12-3-tsTable1", "fft", 0.5, "tso_cc_4_12_3_tstable1_fft.json"),
    ("TSO-CC-4-12-3-tsTable1", "intruder", 0.4,
     "tso_cc_4_12_3_tstable1_intruder.json"),
    ("TSO-CC-4-12-3-noSRO", "fft", 0.5, "tso_cc_4_12_3_nosro_fft.json"),
    ("TSO-CC-4-12-3-noSRO", "intruder", 0.4, "tso_cc_4_12_3_nosro_intruder.json"),
    # Small programs on the small-cache platform (scale is unused).
    ("TSO-CC-narrow", "shared_accumulation", None,
     "tso_cc_narrow_shared_accumulation.json"),
    ("TSO-CC-4-12-3", "fence", None, "tso_cc_4_12_3_fence.json"),
]

#: Programs pinned by name in ``CASES``, with the protocols only they use.
PROGRAMS = {
    "shared_accumulation": lambda: shared_accumulation(num_cores=4, contributions=30),
    "fence": fence_workload,
}
AD_HOC_PROTOCOLS = {"TSO-CC-narrow": narrow_timestamp_config}


def run_case(protocol, workload_name, scale):
    """Run one ``CASES`` entry and return its ``SystemStats.to_dict()``."""
    if workload_name in PROGRAMS:
        config = make_small_config()
        workload = PROGRAMS[workload_name]()
    else:
        config = SystemConfig().scaled(num_cores=4)
        workload = make_benchmark(workload_name, num_cores=4, scale=scale)
    resolved = AD_HOC_PROTOCOLS[protocol]() if protocol in AD_HOC_PROTOCOLS else protocol
    system = build_system(config, resolved)
    result = system.run(workload.programs, params=workload.params,
                        max_cycles=50_000_000, workload_name=workload.name)
    assert workload.validate(result)
    return result.stats.to_dict()


@pytest.mark.parametrize("protocol,workload_name,scale,golden", CASES)
def test_stats_match_pre_refactor_golden(protocol, workload_name, scale, golden):
    payload = run_case(protocol, workload_name, scale)
    expected = json.loads((GOLDEN_DIR / golden).read_text(encoding="utf-8"))
    # Byte-identical via the canonical JSON encoding both sides round-trip.
    assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True), (
        f"{protocol}/{workload_name}: stats diverged from the pre-refactor "
        f"golden — timing is no longer neutral (see module docstring)"
    )
