"""Differential test of the TSO-CC L1's Shared-line index.

The self-invalidation flash-clear (§3.2) visits a per-L1 index of the lines
that became Shared since the last clear, instead of scanning the cache.
These runs wrap every L1's ``_self_invalidate`` and check, before each
flash-clear, that the index's live entries (still resident, still Shared)
are exactly the Shared lines a full ``cache.lines()`` scan finds.
"""

import pytest

from repro.protocols.tsocc.states import TSOCCL1State
from repro.sim.config import SystemConfig
from repro.sim.system import build_system
from repro.workloads.catalog import make_workload

from _helpers import fence_workload, make_small_config


def _live_index(l1):
    """The index entries that are still the resident line and still Shared."""
    return {
        address: line for address, line in l1._shared_lines.items()
        if l1.cache.get_line(address) is line and line.state is TSOCCL1State.SHARED
    }


def _scanned_shared(l1):
    """Every resident Shared line, by a full scan of the cache."""
    return {line.address: line for line in l1.cache.lines()
            if line.state is TSOCCL1State.SHARED}


def _run_checked(config, workload, protocol="TSO-CC-4-12-3"):
    """Run ``workload`` with every flash-clear checked against a full scan;
    return the causes of the checked flash-clears."""
    system = build_system(config, protocol)
    causes = []
    for l1 in system.l1_controllers:
        original = l1._self_invalidate

        def checked(cause, from_response, l1=l1, original=original):
            live, scanned = _live_index(l1), _scanned_shared(l1)
            assert live.keys() == scanned.keys(), (
                f"L1[{l1.core_id}] {cause}: index {sorted(live)} "
                f"!= scan {sorted(scanned)}")
            assert all(live[address] is scanned[address] for address in live)
            causes.append(cause)
            original(cause, from_response)
            assert not _scanned_shared(l1) and not l1._shared_lines

        l1._self_invalidate = checked
    result = system.run(workload.programs, params=workload.params,
                        max_cycles=50_000_000, workload_name=workload.name)
    assert workload.validate(result)
    flash_clears = sum(sum(l1.self_inval_events.values()) for l1 in result.stats.l1)
    assert len(causes) == flash_clears
    return causes


@pytest.mark.parametrize("num_cores", [4, 8])
@pytest.mark.parametrize("name,scale", [
    ("fft", 1.0),
    ("intruder", 1.0),
    ("lockstorm:n60-k4-s1", 1.0),
])
def test_shared_index_matches_full_scan(name, scale, num_cores):
    # Tiny caches, so evictions, recalls and forwarded requests all take
    # lines out of the index's way.
    config = SystemConfig().scaled(num_cores=num_cores, l1_size_bytes=2048,
                                   l2_tile_size_bytes=16 * 1024)
    workload = make_workload(name, num_cores=num_cores, scale=scale)
    causes = _run_checked(config, workload)
    assert causes, f"{name} never self-invalidated"


def test_shared_index_matches_full_scan_on_fences():
    causes = _run_checked(make_small_config(), fence_workload())
    assert "fence" in causes
