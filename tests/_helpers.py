"""Importable helpers shared by the test suite.

Kept out of ``conftest.py`` on purpose: test modules import these by name
(``from _helpers import ...``), and ``conftest`` is not a safely importable
module name — both ``tests/`` and ``benchmarks/`` have one, so whichever
directory pytest inserts into ``sys.path`` first wins the import and the
other suite breaks at collection.
"""

from __future__ import annotations

from repro.sim.config import SystemConfig
from repro.sim.system import build_system

#: The seven paper configurations plus the MSI plugin demonstrator — the
#: set the cross-protocol suites iterate.  (Further registered plugins —
#: MOESI, Broadcast and the generated TSO-CC sweep variants — are covered
#: by their own suites: tests/test_moesi_broadcast.py, tests/test_sweeps.py.)
ALL_PROTOCOLS = (
    "MESI",
    "CC-shared-to-L2",
    "TSO-CC-4-basic",
    "TSO-CC-4-noreset",
    "TSO-CC-4-12-3",
    "TSO-CC-4-12-0",
    "TSO-CC-4-9-3",
    "MSI",
)

#: A fast representative subset used by the heavier integration tests.
FAST_PROTOCOLS = ("MESI", "CC-shared-to-L2", "TSO-CC-4-basic", "TSO-CC-4-12-3")


def make_small_config() -> SystemConfig:
    """A small 4-core platform with deliberately tiny caches so that
    evictions, recalls and conflict behaviour are exercised by short runs."""
    return SystemConfig().scaled(num_cores=4, l1_size_bytes=2048,
                                 l2_tile_size_bytes=16 * 1024)


def make_tiny_config() -> SystemConfig:
    """A 2-core platform for focused protocol-interaction tests."""
    return SystemConfig().scaled(num_cores=2, l1_size_bytes=1024,
                                 l2_tile_size_bytes=8 * 1024)


def run_workload(workload, protocol, config, max_cycles=50_000_000):
    """Build a system, run ``workload`` under ``protocol`` and return the
    SimulationResult after asserting functional validity."""
    system = build_system(config, protocol)
    result = system.run(workload.programs, params=workload.params,
                        max_cycles=max_cycles, workload_name=workload.name)
    assert workload.validate(result), (
        f"workload {workload.name} invalid under {protocol}"
    )
    return result


def fence_workload():
    """Two cores read the same four lines; core 0 then fences, which
    self-invalidates its Shared copies under TSO-CC (the ``cause="fence"``
    flash-clear of §3.6)."""
    from repro.cpu.instruction import Fence, Load, Work
    from repro.workloads.layout import AddressSpace
    from repro.workloads.trace import Workload

    space = AddressSpace()
    data = space.array("data", 4)

    def reader(ctx):
        for i in range(4):
            yield Load(data + i * 64)
        yield Fence()

    def other(ctx):
        for i in range(4):
            yield Load(data + i * 64)
        yield Work(10)

    return Workload(name="fence", programs=[reader, other])


def narrow_timestamp_config():
    """TSO-CC-4-12-3 with 4-bit timestamps and no write grouping: resets
    its timestamp sources within a few dozen writes (§3.5)."""
    from dataclasses import replace

    from repro.protocols.tsocc.config import TSO_CC_4_12_3

    return replace(TSO_CC_4_12_3, name="TSO-CC-narrow", ts_bits=4,
                   write_group_bits=0)
