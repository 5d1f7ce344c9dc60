"""The flattened per-event paths behave exactly like the paths they replace.

An L1 load hit runs in one frame, the core model dispatches the exact
``Load``/``Work``/``Store`` types by identity, and the controllers fill
pooled messages inline (see DESIGN.md, "Flat hot path").  These tests pin
what each shortcut must preserve: one event and one counter update per
hit, the access-counter bound on Shared hits, the ``isinstance`` fallback
for operation subclasses, store-to-load forwarding, slot resets on message
reuse, and the poisoning of a data response that an invalidation
overtook.
"""

import pytest

from repro.cpu.instruction import Load, Store, Work
from repro.interconnect.message import Message, MessageType
from repro.interconnect.network import Network
from repro.interconnect.topology import MeshTopology
from repro.protocols.base import PendingTransaction, pooled_send
from repro.protocols.tsocc.states import TSOCCL1State
from repro.sim.simulator import Simulator
from repro.sim.system import build_system

from _helpers import make_tiny_config
from test_cpu_core_model import run_program

LINE = 0x1000


def _l1(protocol):
    system = build_system(make_tiny_config(), protocol)
    return system, system.l1_controllers[0]


# ------------------------------------------------------------------ L1 load hits

@pytest.mark.parametrize("protocol", ["MESI", "TSO-CC-4-12-3"])
def test_load_hit_schedules_one_event_and_counts_once(protocol):
    system, l1 = _l1(protocol)
    l1.install_line(LINE, {8: 5}, l1.modified_state)
    before = system.sim.pending_events
    values = []
    l1.issue_load(LINE + 8, values.append)
    assert system.sim.pending_events == before + 1
    assert dict(l1.stats.read_hits) == {"private": 1}
    assert not l1.stats.read_misses and not l1._pending
    system.sim.run()
    assert values == [5]
    assert l1.stats.loads == 1
    assert l1.stats.load_latency_total == l1.hit_latency


def test_shared_hit_is_bounded_by_the_access_counter():
    system, l1 = _l1("TSO-CC-4-12-3")
    limit = l1.max_shared_hits
    line = l1.install_line(LINE, {0: 9}, TSOCCL1State.SHARED)
    line.acnt = limit - 1
    l1.issue_load(LINE, lambda value: None)
    assert line.acnt == limit
    assert dict(l1.stats.read_hits) == {"shared": 1}
    # acnt == max_shared_hits: the next read must re-request the line.
    l1.issue_load(LINE, lambda value: None)
    assert dict(l1.stats.read_misses) == {"shared": 1}
    assert l1._pending[LINE].kind == "load"


# ------------------------------------------------------------------ core dispatch

class _TaggedLoad(Load):
    pass


class _TaggedStore(Store):
    pass


class _TaggedWork(Work):
    pass


def test_memop_subclasses_take_the_isinstance_fallback():
    def program(ctx):
        yield _TaggedStore(0x40, 3)
        ctx.record("forwarded", (yield _TaggedLoad(0x40)))
        yield _TaggedWork(5)
        yield Work(20)
        ctx.record("loaded", (yield _TaggedLoad(0x40)))

    sim, l1, stats, ctx = run_program(program)
    assert ctx.results == {"forwarded": 3, "loaded": 3}
    assert (stats.loads, stats.stores, stats.work_cycles) == (2, 1, 25)
    assert l1.trace == [("store", 0x40, 3), ("load", 0x40)]


def test_non_memop_still_raises_type_error():
    def program(ctx):
        yield "not an operation"

    with pytest.raises(TypeError, match="unsupported operation"):
        run_program(program)


def test_load_to_a_buffered_address_still_forwards():
    def program(ctx):
        yield Store(0x80, 11)
        ctx.record("value", (yield Load(0x80)))

    sim, l1, stats, ctx = run_program(program)
    assert ctx.results == {"value": 11}
    assert ("load", 0x80) not in l1.trace


# ------------------------------------------------------------------ message slots

class _Sink:
    def __init__(self):
        self.received = []

    def handle_message(self, msg):
        self.received.append((msg.mtype, msg.ts, msg.writer, msg.epoch, msg.tile))


class _Endpoint:
    """The minimum a controller needs to send through ``pooled_send``."""

    send = pooled_send

    def __init__(self, network, node_id):
        self.network, self.node_id, self._free = network, node_id, network.pool._free


def _network():
    sim = Simulator()
    topo = MeshTopology(num_cores=2, num_l2_tiles=2, rows=2)
    net = Network(topology=topo, scheduler=sim)
    sinks = {node: _Sink() for node in range(topo.num_nodes)}
    for node, sink in sinks.items():
        net.register(node, sink)
    return sim, net, sinks


def _assert_reset(msg):
    assert (msg.requester, msg.ts, msg.writer, msg.epoch, msg.tile) == \
        (None, None, None, 0, None)
    assert msg.info == {}


def test_pooled_slots_are_reset_on_reuse_by_send():
    sim, net, sinks = _network()
    endpoint = _Endpoint(net, node_id=2)
    sent = endpoint.send(MessageType.DATA_S, 0, address=0x40, data={0: 1},
                         requester=1, ts=7, writer=1, epoch=2, tile=0)
    sim.run()
    assert sinks[0].received == [(MessageType.DATA_S, 7, 1, 2, 0)]
    reused = endpoint.send(MessageType.GETS, 3, address=0x80)
    assert reused is sent
    _assert_reset(reused)


def test_pooled_slots_are_reset_on_reuse_by_acquire():
    sim, net, sinks = _network()
    msg = net.pool.acquire(MessageType.DATA_S, 2, 0, address=0x40, data={0: 1},
                           ts=7, writer=1, epoch=2, tile=0)
    net.send(msg)
    sim.run()
    reused = net.pool.acquire(MessageType.GETS, 0, 2, address=0x80)
    assert reused is msg
    _assert_reset(reused)


def test_broadcast_copies_the_slots():
    sim, net, sinks = _network()
    template = Message(mtype=MessageType.TS_RESET, src=0, dst=0,
                       info={"source": 0}, ts=4, writer=0, epoch=3, tile=1)
    assert net.broadcast(template, [1, 2, 3]) == 3
    sim.run()
    for node in (1, 2, 3):
        assert sinks[node].received == [(MessageType.TS_RESET, 4, 0, 3, 1)]


# ------------------------------------------------------------------ inv_raced poisoning

@pytest.mark.parametrize("protocol", ["MESI", "TSO-CC-4-12-3"])
def test_invalidation_overtaking_shared_data_poisons_the_fill(protocol):
    """An INV that arrives while a GetS is pending marks the transaction;
    the shared data that follows serves the load once and is not kept."""
    system, l1 = _l1(protocol)
    home = l1.home_node(LINE)
    values = []
    l1.start_transaction(PendingTransaction("load", LINE, LINE + 8, None, None,
                                            values.append, 0))
    l1.handle_message(Message(mtype=MessageType.INV, src=home, dst=l1.node_id,
                              address=LINE))
    assert l1._pending[LINE].inv_raced
    l1.handle_message(Message(mtype=MessageType.DATA_S, src=home,
                              dst=l1.node_id, address=LINE, data={8: 42},
                              writer=1))
    system.sim.run()
    assert values == [42]
    assert l1.cache.get_line(LINE) is None
    assert not l1._pending
    if protocol.startswith("TSO-CC"):
        assert LINE not in l1._shared_lines
