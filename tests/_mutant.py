"""A deliberately broken protocol: MESI that drops invalidations.

The conformance-fuzzing harness (``repro.consistency.fuzz``) is only
trustworthy if it can *fail*: a campaign that passes on every protocol
might simply be unable to observe consistency violations.  This module
provides the negative control — a test-only MESI mutant whose L1 answers
both flavours of another core's write taking the line away (a directory
``INV`` of a Shared copy, and a ``FWD_GETX`` ownership handover of a
private one) **without dropping its copy**, so a core can keep reading
stale data forever.  That breaks write propagation (and with it TSO
causality: a thread can observe a later store of another core and then a
stale value of an earlier one), which a differential campaign must flag
as a forbidden outcome.

The mutant keeps the directory handshake intact (acks and forwarded data
are still sent, so writers make progress and runs terminate); only the
local copy wrongly survives — downgraded to Shared on a handover, so the
mutant's own next write still misses and the bug stays a pure
stale-*read* bug.  It registers under the name ``MESI-droppedinv`` with
``in_paper=False`` on import of this module — test-only, so it never
leaks into the default experiment matrix, the CLI's default lists, or
worker processes (campaigns over the mutant must run with ``jobs=1``:
process-pool workers import only the installed package and would not see
a test-local registration).
"""

from __future__ import annotations

from repro.interconnect.message import Message, MessageType
from repro.protocols.mesi.l1_controller import MESIL1Controller
from repro.protocols.mesi.l2_controller import MESIL2Controller
from repro.protocols.mesi.protocol import full_map_directory_bits
from repro.protocols.registry import Protocol, register_protocol

#: Registered configuration name of the mutant.
MUTANT_PROTOCOL = "MESI-droppedinv"


class DroppedInvL1Controller(MESIL1Controller):
    """MESI L1 with the deliberate bug: invalidations and write-ownership
    handovers are acknowledged but the local copy survives and keeps
    serving (stale) read hits."""

    protocol_label = MUTANT_PROTOCOL

    def handle_invalidation(self, msg: Message) -> None:
        # BUG (deliberate): neither the resident copy nor a racing
        # in-flight data response is dropped — only the ack is sent, so
        # the writer completes while this core reads stale data forever.
        assert msg.address is not None
        self.stats.invalidations_received += 1
        self.send(MessageType.INV_ACK, msg.src, address=msg.address,
                  acker=self.core_id)

    def _on_fwd_getx(self, msg: Message) -> None:
        # BUG (deliberate): ownership is handed over (data + transfer ack,
        # so the writer completes) but the local copy is only downgraded
        # to Shared instead of dropped — every later read hits stale data.
        assert msg.address is not None
        if self._defer_forward_if_pending(msg):
            return
        requester = msg.requester
        line = self._line_or_evicting(msg.address)
        data = line.copy_data() if line is not None else {}
        resident = self.cache.get_line(msg.address)
        if resident is not None:
            resident.state = self.shared_state
            resident.dirty = False
        self.stats.invalidations_received += 1
        self.send(MessageType.DATA_OWNER, self.topology.l1_node(requester),
                  address=msg.address, data=data, writer=self.core_id)
        self.send(MessageType.TRANSFER_ACK, msg.src, address=msg.address,
                  new_owner=requester, old_owner=self.core_id)


@register_protocol
class DroppedInvProtocol(Protocol):
    """The negative-control plugin (never part of the paper matrix)."""

    kind = "mesi-mutant"
    has_directory = True
    in_paper = False
    l1_controller_cls = DroppedInvL1Controller
    l2_controller_cls = MESIL2Controller

    @property
    def name(self) -> str:
        return MUTANT_PROTOCOL

    def overhead_bits(self, system_config) -> int:
        return full_map_directory_bits(system_config)

    def config_summary(self) -> str:
        return "test-only mutant: MESI that acks but drops invalidations"
