"""Timestamp machinery for TSO-CC (§3.3 and §3.5 of the paper).

Three small components:

* :class:`TimestampSource` — the per-core (and, for SharedRO lines, per-L2
  tile) monotonically increasing timestamp counter, with write-grouping and
  bounded width.  When the counter would exceed its maximum, the owner must
  broadcast a timestamp reset; the source then starts a new *epoch*.
* :class:`TimestampTable` — a bounded table of last-seen timestamps keyed by
  source id (``ts_L1`` / ``ts_L2`` in Table 1), with LRU eviction when the
  table is smaller than the number of sources (and no LRU bookkeeping at
  all when it is not).
* :class:`EpochTable` — expected epoch-ids per source, used to detect data
  messages whose timestamp stems from an epoch older than the latest reset.

The *smallest valid timestamp* is 1 (0 is never assigned), so the L2 can use
it as the conservative "very old" clamp value after a reset, and the first
timestamp assigned after a reset is 2 — strictly larger than the clamp, as
required by §3.5.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

#: Smallest timestamp ever assigned / used as the post-reset clamp value.
SMALLEST_VALID_TIMESTAMP = 1


class TimestampSource:
    """A monotonically increasing, bounded, write-grouped timestamp counter.

    Args:
        bits: timestamp width in bits, or ``None`` for an unbounded counter
            (the ``noreset`` configuration).
        write_group_size: number of consecutive writes that share one
            timestamp value (``2**Bwrite-group``).
        epoch_bits: width of the epoch-id counter.
    """

    def __init__(
        self,
        bits: Optional[int],
        write_group_size: int = 1,
        epoch_bits: int = 3,
    ) -> None:
        if bits is not None and bits < 2:
            raise ValueError("timestamp width must be >= 2 bits (or None)")
        if write_group_size < 1:
            raise ValueError("write_group_size must be >= 1")
        self.bits = bits
        self.max_value = (1 << bits) - 1 if bits is not None else None
        self.write_group_size = write_group_size
        self.epoch_bits = epoch_bits
        self.current = SMALLEST_VALID_TIMESTAMP
        self.epoch = 0
        self.resets = 0
        self.writes = 0
        self._writes_in_group = 0

    def peek(self) -> int:
        """Return the timestamp that the next write would be assigned."""
        return self.current

    def timestamp_for_write(self) -> Tuple[int, bool]:
        """Assign a timestamp to one write.

        Returns:
            ``(timestamp, reset_required)``.  When ``reset_required`` is
            ``True`` the caller must invoke :meth:`reset` and broadcast a
            timestamp-reset message before assigning further timestamps.
        """
        ts = self.current
        self.writes += 1
        self._writes_in_group += 1
        reset_required = False
        if self._writes_in_group >= self.write_group_size:
            self._writes_in_group = 0
            self.current += 1
            if self.max_value is not None and self.current > self.max_value:
                reset_required = True
        return ts, reset_required

    def advance(self) -> Tuple[int, bool]:
        """Advance the counter by one full step and return the new value.

        Used by L2 tiles for SharedRO timestamps, which are incremented per
        transition event rather than per write.

        Returns:
            ``(new_timestamp, reset_required)``.
        """
        self.current += 1
        if self.max_value is not None and self.current > self.max_value:
            return self.current, True
        return self.current, False

    def reset(self) -> int:
        """Start a new epoch after an overflow; returns the new epoch-id.

        The first timestamp handed out after a reset is strictly larger than
        :data:`SMALLEST_VALID_TIMESTAMP` so that readers can never mistake a
        clamped (post-reset) response for an already-seen timestamp.
        """
        self.current = SMALLEST_VALID_TIMESTAMP + 1
        self._writes_in_group = 0
        self.resets += 1
        self.epoch = (self.epoch + 1) % (1 << self.epoch_bits)
        return self.epoch


class TimestampTable:
    """Bounded last-seen timestamp table (``ts_L1`` / ``ts_L2`` of Table 1).

    Args:
        capacity: maximum number of entries; ``None`` for unbounded.  When
            full, the least recently used entry is evicted — which, exactly
            as in the paper, later forces a conservative self-invalidation
            for the evicted writer.
        sources: number of distinct source ids the table can be asked about
            (ids ``0 .. sources-1``), or ``None`` if unknown.  A table that
            holds every source (``capacity`` unbounded or at least
            ``sources``) can never evict, so its LRU order is unobservable:
            :meth:`get` and :meth:`update` then skip the LRU bookkeeping and
            the table behaves exactly as if they had done it.  The L1 reads
            its tables on every data response, so this is a hot path.

    Raises:
        ValueError: for a non-positive ``capacity`` or ``sources``.
    """

    def __init__(self, capacity: Optional[int] = None,
                 sources: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        if sources is not None and sources < 1:
            raise ValueError("sources must be >= 1 or None")
        self.capacity = capacity
        self.sources = sources
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self.evictions = 0
        #: Whether LRU order can matter: only a table that may evict.
        self.tracks_lru = capacity is not None and (sources is None or capacity < sources)
        if not self.tracks_lru:
            # Nothing to refresh: a lookup is the plain dict lookup.
            self.get = self._entries.get  # type: ignore[method-assign]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, source_id: int) -> bool:
        return source_id in self._entries

    def get(self, source_id: int) -> Optional[int]:
        """Return the last-seen timestamp for ``source_id`` (``None`` if not
        present); refreshes LRU order.  A table that does not track LRU
        order replaces this method with its dict's ``get``."""
        value = self._entries.get(source_id)
        if value is not None:
            self._entries.move_to_end(source_id)
        return value

    def update(self, source_id: int, timestamp: int) -> None:
        """Record ``timestamp`` as last seen from ``source_id`` (keeps the
        maximum of the existing and new value within an epoch)."""
        entries = self._entries
        existing = entries.get(source_id)
        if not self.tracks_lru:
            if existing is None:
                # Skipping LRU bookkeeping relies on never exceeding the
                # capacity, so ids outside 0 .. sources-1 are rejected.
                if self.sources is not None and not 0 <= source_id < self.sources:
                    raise ValueError(
                        f"source id {source_id} out of range for a table of "
                        f"{self.sources} sources")
                entries[source_id] = timestamp
            elif timestamp > existing:
                entries[source_id] = timestamp
            return
        entries[source_id] = timestamp if existing is None else max(existing, timestamp)
        entries.move_to_end(source_id)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, source_id: int) -> None:
        """Drop the entry for ``source_id`` (after a timestamp reset)."""
        self._entries.pop(source_id, None)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def snapshot(self) -> Dict[int, int]:
        """Return a copy of the table (for tests and debugging)."""
        return dict(self._entries)


class EpochTable:
    """Expected epoch-ids per timestamp source (§3.5).

    Data messages carry the epoch-id of their timestamp's source; a mismatch
    with the expected epoch means a timestamp-reset message and the data
    message raced, and the receiver must behave as if the reset had already
    been processed.
    """

    def __init__(self) -> None:
        self._epochs: Dict[int, int] = {}

    def expected(self, source_id: int) -> int:
        """Return the expected epoch for ``source_id`` (defaults to 0)."""
        return self._epochs.get(source_id, 0)

    def matches(self, source_id: int, epoch: int) -> bool:
        """``True`` iff ``epoch`` equals the expected epoch for ``source_id``."""
        return self._epochs.get(source_id, 0) == epoch

    def update(self, source_id: int, epoch: int) -> None:
        """Record ``epoch`` as the current epoch of ``source_id``."""
        self._epochs[source_id] = epoch

    def snapshot(self) -> Dict[int, int]:
        """Return a copy of the table (for tests and debugging)."""
        return dict(self._epochs)
