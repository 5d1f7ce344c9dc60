"""Protocol integration tests: MESI and the TSO-CC family on the simulator.

These tests exercise the protocols through the public System API on small
workloads with deliberately tiny caches, and assert both functional
correctness (validators) and protocol-specific behavioural properties
(which states hit, who self-invalidates, who sends invalidations, how writes
propagate to spinning readers).
"""

import pytest

from repro.protocols.tsocc.states import TSOCCL1State, TSOCCL2State
from repro.cpu.instruction import Load, Store, Work
from repro.sim.config import SystemConfig
from repro.sim.system import build_system
from repro.workloads.benchmarks import make_benchmark
from repro.workloads.layout import AddressSpace
from repro.workloads.synthetic import (
    all_synthetic_workloads,
    false_sharing_ping_pong,
    lock_contention,
    private_only,
    producer_consumer,
    read_mostly,
    shared_accumulation,
)
from repro.workloads.sync import spin_until_equals
from repro.workloads.trace import Workload

from _helpers import (
    ALL_PROTOCOLS,
    FAST_PROTOCOLS,
    fence_workload,
    narrow_timestamp_config,
    run_workload,
)


# ------------------------------------------------------------------ every protocol, every synthetic workload

@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_all_synthetic_workloads_validate(protocol, small_config):
    for workload in all_synthetic_workloads(num_cores=4):
        result = run_workload(workload, protocol, small_config)
        assert result.finished
        assert result.stats.cycles > 0


@pytest.mark.parametrize("protocol", FAST_PROTOCOLS)
@pytest.mark.parametrize("benchmark_name", ["fft", "intruder", "lu_noncontig", "dedup"])
def test_benchmark_standins_validate(protocol, benchmark_name, small_config):
    workload = make_benchmark(benchmark_name, num_cores=4, scale=0.2)
    result = run_workload(workload, protocol, small_config)
    assert result.stats.total_flits > 0


# ------------------------------------------------------------------ MESI-specific behaviour

def test_mesi_invalidates_sharers_on_write(small_config):
    """Under MESI a write to a line with readers sends invalidations; the
    readers' copies disappear (eager coherence)."""
    workload = false_sharing_ping_pong(num_cores=4, iterations=60)
    result = run_workload(workload, "MESI", small_config)
    agg = result.stats.aggregate_l1()
    assert agg.invalidations_received > 0
    assert sum(agg.self_inval_events.values()) == 0      # MESI never self-invalidates


def test_mesi_read_only_data_stays_cached(small_config):
    workload = read_mostly(num_cores=4, table_size=16, iterations=6)
    result = run_workload(workload, "MESI", small_config)
    agg = result.stats.aggregate_l1()
    # After the first pass the table hits in the L1: hits dominate misses.
    assert agg.read_hits["shared"] + agg.read_hits["private"] > agg.total_misses


# ------------------------------------------------------------------ TSO-CC-specific behaviour

def test_tsocc_writes_to_shared_lines_send_no_invalidations(small_config):
    """The defining behaviour: a write to a Shared line is granted without
    invalidating the other copies, so (unlike MESI) readers receive no
    invalidation messages for ordinary shared data."""
    workload = false_sharing_ping_pong(num_cores=4, iterations=60)
    mesi = run_workload(workload, "MESI", small_config).stats.aggregate_l1()
    workload = false_sharing_ping_pong(num_cores=4, iterations=60)
    tsocc = run_workload(workload, "TSO-CC-4-12-3",
                         SystemConfig().scaled(num_cores=4, l1_size_bytes=2048,
                                               l2_tile_size_bytes=16 * 1024)
                         ).stats.aggregate_l1()
    assert tsocc.invalidations_received < mesi.invalidations_received


def test_tsocc_self_invalidations_occur_and_are_classified(small_config):
    workload = producer_consumer(num_cores=4, items=48)
    result = run_workload(workload, "TSO-CC-4-12-3", small_config)
    agg = result.stats.aggregate_l1()
    events = agg.self_inval_events
    assert sum(events.values()) > 0
    assert set(events) <= {"invalid_ts", "acquire", "acquire_sro", "fence"}


def test_basic_protocol_self_invalidates_more_than_timestamped(small_config):
    """Transitive reduction (§3.3) must reduce self-invalidations."""
    basic = run_workload(producer_consumer(num_cores=4, items=48),
                         "TSO-CC-4-basic", small_config).stats.aggregate_l1()
    full = run_workload(producer_consumer(num_cores=4, items=48),
                        "TSO-CC-4-12-3",
                        SystemConfig().scaled(num_cores=4, l1_size_bytes=2048,
                                              l2_tile_size_bytes=16 * 1024)
                        ).stats.aggregate_l1()
    assert sum(full.self_inval_events.values()) <= sum(basic.self_inval_events.values())


def test_shared_ro_lines_hit_under_tsocc(small_config):
    """Read-only data must end up in SharedRO and keep hitting (§3.4)."""
    workload = read_mostly(num_cores=4, table_size=16, iterations=6)
    result = run_workload(workload, "TSO-CC-4-12-3", small_config)
    agg = result.stats.aggregate_l1()
    assert agg.read_hits.get("shared", 0) + agg.read_hits.get("shared_ro", 0) > 0


def test_cc_shared_to_l2_never_hits_on_shared_lines(small_config):
    """The strawman forbids Shared-line hits entirely."""
    workload = read_mostly(num_cores=4, table_size=16, iterations=6)
    result = run_workload(workload, "CC-shared-to-L2", small_config)
    agg = result.stats.aggregate_l1()
    assert agg.read_hits.get("shared", 0) == 0


def test_access_counter_bounds_consecutive_shared_hits(tiny_config):
    """A spinning reader must re-request a Shared line after at most
    2**Bmaxacc hits — this is the write-propagation guarantee."""
    space = AddressSpace()
    flag = space.scalar("flag")

    def writer(ctx):
        # Own the flag line first so the spinner's copy is Shared (not
        # Exclusive), then publish after a long delay.
        yield Store(flag, 0)
        yield Work(3000)
        yield Store(flag, 1)

    def spinner(ctx):
        yield Work(300)
        value = yield from spin_until_equals(flag, 1, backoff=2)
        ctx.record("saw", value)

    workload = Workload(name="spin", programs=[writer, spinner])
    result = run_workload(workload, "TSO-CC-4-12-3", tiny_config)
    assert result.result_of(1, "saw") == 1
    # The spinner's reads must include forced Shared misses (re-requests).
    spinner_stats = result.stats.l1[1]
    assert spinner_stats.read_misses.get("shared", 0) > 0


def test_fences_self_invalidate_shared_lines(small_config):
    workload = fence_workload()
    result = run_workload(workload, "TSO-CC-4-12-3", small_config)
    agg = result.stats.aggregate_l1()
    assert agg.fences >= 1
    assert agg.self_inval_events.get("fence", 0) >= 1


def test_timestamp_resets_occur_with_narrow_timestamps(small_config):
    """A 2-bit-group, narrow-timestamp configuration must reset during a
    write-heavy run and still produce correct results."""
    narrow = narrow_timestamp_config()
    workload = shared_accumulation(num_cores=4, contributions=30)
    system = build_system(small_config, narrow)
    result = system.run(workload.programs, params=workload.params,
                        max_cycles=50_000_000, workload_name=workload.name)
    assert workload.validate(result)
    agg = result.stats.aggregate_l1()
    assert agg.ts_resets > 0


def test_tsocc_l2_states_are_consistent_after_run(small_config):
    """Post-run structural invariant: every Exclusive L2 line names an owner
    and untracked states carry no owner pointer."""
    workload = lock_contention(num_cores=4, increments=10)
    system = build_system(small_config, "TSO-CC-4-12-3")
    result = system.run(workload.programs, params=workload.params,
                        max_cycles=50_000_000, workload_name=workload.name)
    assert workload.validate(result)
    for l2 in system.l2_controllers:
        for line in l2.cache.lines():
            if line.state is TSOCCL2State.EXCLUSIVE:
                assert line.owner is not None
            if line.state in (TSOCCL2State.UNCACHED, TSOCCL2State.SHARED_RO):
                assert line.owner is None


def test_single_writer_invariant_for_private_lines(small_config):
    """At the end of a run no line may be Modified/Exclusive in two L1s —
    the invariant whose violation produced stale-lock livelocks during
    development."""
    workload = lock_contention(num_cores=4, increments=10)
    system = build_system(small_config, "TSO-CC-4-12-3")
    result = system.run(workload.programs, params=workload.params,
                        max_cycles=50_000_000, workload_name=workload.name)
    assert workload.validate(result)
    owners = {}
    for core, l1 in enumerate(system.l1_controllers):
        for line in l1.cache.lines():
            if isinstance(line.state, TSOCCL1State) and line.state.is_private:
                assert line.address not in owners, (
                    f"line {line.address:#x} privately held by cores "
                    f"{owners[line.address]} and {core}"
                )
                owners[line.address] = core


# ------------------------------------------------------------------ system API behaviour

def test_system_is_single_use(small_config):
    workload = private_only(num_cores=4, elements=8, iterations=1)
    system = build_system(small_config, "MESI")
    system.run(workload.programs, params=workload.params, max_cycles=10_000_000)
    with pytest.raises(RuntimeError):
        system.run(workload.programs, params=workload.params)


def test_too_many_programs_rejected(tiny_config):
    workload = private_only(num_cores=4, elements=4, iterations=1)
    system = build_system(tiny_config, "MESI")
    with pytest.raises(ValueError):
        system.run(workload.programs)


def test_idle_cores_are_allowed(small_config):
    workload = private_only(num_cores=2, elements=8, iterations=1)
    result = run_workload(workload, "TSO-CC-4-12-3", small_config)
    assert result.stats.cores[3].memory_ops == 0
