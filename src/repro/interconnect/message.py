"""Coherence messages and flit accounting.

Every protocol in this repository communicates exclusively through
:class:`Message` objects sent over the :class:`~repro.interconnect.network.Network`.
A message carries:

* a :class:`MessageType` (request / response / forward / invalidation /
  acknowledgement / writeback / timestamp-reset ...),
* source and destination node ids,
* the line address it concerns (``None`` for broadcasts such as timestamp
  resets),
* an optional full-line data payload,
* the fields every data response or request reads (``requester``,
  ``writer``, ``ts``, ``epoch``, ``tile``) as slots, and
* a free-form ``info`` dictionary for the rarer protocol-specific fields
  (owner ids, dirty flags, ack counts ...).

Flit accounting follows the paper's platform: 16-byte flits, 8-byte control
header.  A control message therefore occupies 1 flit and a data-carrying
message ``ceil((8 + 64) / 16) = 5`` flits with the default 64-byte lines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional


class MessageClass(Enum):
    """Coarse traffic classes used for the network-traffic breakdowns."""

    REQUEST = "request"
    RESPONSE = "response"
    FORWARD = "forward"
    INVALIDATION = "invalidation"
    ACK = "ack"
    WRITEBACK = "writeback"
    BROADCAST = "broadcast"

    # Enum.__hash__ hashes the member *name* at Python level; members are
    # singletons, so identity hashing is equivalent and keeps hot-path dict
    # lookups (stats breakdowns, dispatch tables) off the interpreter.
    __hash__ = object.__hash__


class MessageType(Enum):
    """All message types used by the MESI and TSO-CC controllers.

    The (value, class, carries_data) triple determines how each type is
    counted in traffic statistics.
    """

    # Requests (L1 -> L2 home tile)
    GETS = ("GetS", MessageClass.REQUEST, False)
    GETX = ("GetX", MessageClass.REQUEST, False)
    UPGRADE = ("Upgrade", MessageClass.REQUEST, False)
    # Forwards (L2 -> current owner L1)
    FWD_GETS = ("FwdGetS", MessageClass.FORWARD, False)
    FWD_GETX = ("FwdGetX", MessageClass.FORWARD, False)
    # Responses carrying data
    DATA_E = ("DataExclusive", MessageClass.RESPONSE, True)
    DATA_S = ("DataShared", MessageClass.RESPONSE, True)
    DATA_SRO = ("DataSharedRO", MessageClass.RESPONSE, True)
    DATA_X = ("DataForWrite", MessageClass.RESPONSE, True)
    DATA_OWNER = ("DataFromOwner", MessageClass.RESPONSE, True)
    # Invalidations / recalls
    INV = ("Inv", MessageClass.INVALIDATION, False)
    RECALL = ("Recall", MessageClass.INVALIDATION, False)
    # Acknowledgements
    ACK = ("Ack", MessageClass.ACK, False)
    INV_ACK = ("InvAck", MessageClass.ACK, False)
    L1_ACK = ("L1Ack", MessageClass.ACK, False)
    DOWNGRADE_ACK = ("DowngradeAck", MessageClass.ACK, True)
    TRANSFER_ACK = ("TransferAck", MessageClass.ACK, False)
    PUT_ACK = ("PutAck", MessageClass.ACK, False)
    # Writebacks / evictions (L1 -> L2)
    PUTS = ("PutS", MessageClass.WRITEBACK, False)
    PUTE = ("PutE", MessageClass.WRITEBACK, False)
    PUTM = ("PutM", MessageClass.WRITEBACK, True)
    WB_DATA = ("WritebackData", MessageClass.WRITEBACK, True)
    # TSO-CC timestamp-reset broadcast
    TS_RESET = ("TimestampReset", MessageClass.BROADCAST, False)

    def __init__(self, label: str, msg_class: MessageClass, carries_data: bool):
        self.label = label
        self.msg_class = msg_class
        self.carries_data = carries_data

    # Identity hashing — see MessageClass.  MessageType keys every per-type
    # traffic counter and every controller dispatch table.
    __hash__ = object.__hash__


# Dense 0..N-1 indices let controllers compile their dispatch tables into
# flat lists (``table[msg.mtype.index]``) instead of dict lookups, and the
# network index its per-type flit counts the same way.
for _index, _member in enumerate(MessageType):
    _member.index = _index

#: Number of message types; the length of every flat per-type table.
NUM_MESSAGE_TYPES = len(MessageType)


MESSAGE_SEQ = itertools.count()


@dataclass(slots=True)
class Message:
    """A single coherence message in flight.

    Slotted: messages are the hot allocation path of multi-million-event
    runs (one object per hop, several per miss).

    Attributes:
        mtype: the :class:`MessageType`.
        src: sending node id.
        dst: destination node id.
        address: line address the message concerns (``None`` for broadcasts).
        data: optional full-line data payload (offset -> value).
        info: rarer protocol-specific fields (owner ids, dirty flags ...).
        send_time: simulation time the message entered the network.
        uid: unique id, useful for debugging and deterministic tie-breaking.
        requester: id of the core whose request the message serves.
        writer: id of the last writer of the carried line (TSO-CC).
        ts: timestamp of the carried line (TSO-CC; ``None`` if invalid).
        epoch: epoch-id of ``ts`` (TSO-CC), or the new epoch of a reset.
        tile: L2 tile that sourced a SharedRO timestamp (TSO-CC).
    """

    mtype: MessageType
    src: int
    dst: int
    address: Optional[int] = None
    data: Optional[Dict[int, int]] = None
    info: Dict[str, Any] = field(default_factory=dict)
    send_time: int = 0
    uid: int = field(default_factory=lambda: next(MESSAGE_SEQ))
    #: ``True`` for messages acquired from a :class:`MessagePool`; only those
    #: are recycled after delivery.
    pooled: bool = False
    #: Set via :meth:`retain` by a receiver that keeps the message alive past
    #: its delivery callback (deferred replay, blocked queues, fetch
    #: continuations); a retained message is never recycled.
    retained: bool = False
    requester: Optional[int] = None
    writer: Optional[int] = None
    ts: Optional[int] = None
    epoch: int = 0
    tile: Optional[int] = None

    def retain(self) -> "Message":
        """Opt this message out of pool recycling.

        Handlers **must** call this before storing a delivered message (or a
        closure capturing it) for later replay — otherwise the network will
        hand the same object out again for an unrelated message.
        """
        self.retained = True
        return self

    def flits(self, flit_bytes: int = 16, header_bytes: int = 8, line_bytes: int = 64) -> int:
        """Return the number of flits this message occupies on a link."""
        if self.mtype.carries_data and self.data is not None:
            return max(1, math.ceil((header_bytes + line_bytes) / flit_bytes))
        if self.mtype.carries_data:
            # Data-class message sent without a payload (e.g. a dataless
            # grant); still sized as a control message.
            return max(1, math.ceil(header_bytes / flit_bytes))
        return max(1, math.ceil(header_bytes / flit_bytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        addr = f"{self.address:#x}" if self.address is not None else "-"
        return (
            f"<Msg {self.mtype.label} {self.src}->{self.dst} addr={addr} "
            f"info={self.info}>"
        )


class MessagePool:
    """Free-list recycler for :class:`Message` objects.

    Messages are the dominant allocation of a coherence simulation (one per
    hop, several per miss) but almost all of them are dead the moment their
    delivery callback returns.  The network therefore acquires messages from
    this pool on ``send`` and releases them after delivery, turning the
    steady-state messaging cost into field assignments on a recycled object
    instead of allocator + GC traffic.

    The exceptions are messages a handler keeps alive past its callback —
    deferred replays, blocked-queue entries, fetch continuations.  Those
    call :meth:`Message.retain` and are simply never recycled (they fall
    back to ordinary garbage collection), so correctness never depends on
    finding every escape: a missed *release* is a leak-free slow path,
    while every *retain* site is explicit and grep-able.
    """

    __slots__ = ("_free",)

    def __init__(self) -> None:
        self._free: list = []

    def acquire(
        self,
        mtype: MessageType,
        src: int,
        dst: int,
        address: Optional[int] = None,
        data: Optional[Dict[int, int]] = None,
        info: Optional[Dict[str, Any]] = None,
        requester: Optional[int] = None,
        writer: Optional[int] = None,
        ts: Optional[int] = None,
        epoch: int = 0,
        tile: Optional[int] = None,
    ) -> Message:
        """Return a ready-to-send message, recycled when possible.

        A recycled message gets every field reset, the slotted ones too: a
        stale ``ts`` left over from an earlier response would silently
        change a TSO-CC self-invalidation decision.
        """
        if info is None:
            info = {}
        free = self._free
        if free:
            msg = free.pop()
            msg.mtype = mtype
            msg.src = src
            msg.dst = dst
            msg.address = address
            msg.data = data
            msg.info = info
            msg.send_time = 0
            msg.uid = next(MESSAGE_SEQ)
            msg.requester = requester
            msg.writer = writer
            msg.ts = ts
            msg.epoch = epoch
            msg.tile = tile
            return msg
        return Message(mtype, src, dst, address, data, info, pooled=True,
                       requester=requester, writer=writer, ts=ts,
                       epoch=epoch, tile=tile)

    def release(self, msg: Message) -> None:
        """Recycle ``msg``.  Only the network's delivery path may call this,
        and only for ``pooled and not retained`` messages."""
        msg.data = None
        self._free.append(msg)
