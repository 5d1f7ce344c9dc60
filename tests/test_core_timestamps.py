"""Unit and property tests for TSO-CC timestamp machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols.tsocc.timestamps import (
    SMALLEST_VALID_TIMESTAMP,
    EpochTable,
    TimestampSource,
    TimestampTable,
)


# ------------------------------------------------------------------ sources

def test_unbounded_source_never_resets():
    source = TimestampSource(bits=None, write_group_size=1)
    last = 0
    for _ in range(1000):
        ts, reset = source.timestamp_for_write()
        assert not reset
        assert ts > last or ts == last  # monotone non-decreasing
        last = ts
    assert source.resets == 0


def test_write_grouping_shares_timestamps():
    source = TimestampSource(bits=12, write_group_size=4)
    values = [source.timestamp_for_write()[0] for _ in range(8)]
    assert values[:4] == [SMALLEST_VALID_TIMESTAMP] * 4
    assert values[4:] == [SMALLEST_VALID_TIMESTAMP + 1] * 4


def test_reset_required_at_overflow():
    source = TimestampSource(bits=2, write_group_size=1)  # max value 3
    resets = 0
    for _ in range(3):
        _ts, reset = source.timestamp_for_write()
        if reset:
            resets += 1
            source.reset()
    assert resets == 1
    # After the reset the next assigned timestamp is strictly greater than
    # the smallest valid timestamp (§3.5).
    ts, _ = source.timestamp_for_write()
    assert ts > SMALLEST_VALID_TIMESTAMP
    assert source.epoch == 1


def test_epoch_wraps_around():
    source = TimestampSource(bits=2, write_group_size=1, epoch_bits=1)
    assert source.reset() == 1
    assert source.reset() == 0
    assert source.resets == 2


def test_l2_advance():
    source = TimestampSource(bits=4, write_group_size=1)
    first, _ = source.advance()
    second, _ = source.advance()
    assert second == first + 1


def test_invalid_source_parameters():
    with pytest.raises(ValueError):
        TimestampSource(bits=1)
    with pytest.raises(ValueError):
        TimestampSource(bits=8, write_group_size=0)


@settings(max_examples=50, deadline=None)
@given(bits=st.integers(min_value=2, max_value=8),
       group=st.integers(min_value=1, max_value=8),
       writes=st.integers(min_value=1, max_value=600))
def test_assigned_timestamps_never_exceed_max(bits, group, writes):
    source = TimestampSource(bits=bits, write_group_size=group)
    for _ in range(writes):
        ts, reset = source.timestamp_for_write()
        assert SMALLEST_VALID_TIMESTAMP <= ts <= source.max_value
        if reset:
            source.reset()


# ------------------------------------------------------------------ tables

def test_timestamp_table_keeps_maximum():
    table = TimestampTable(capacity=4)
    table.update(1, 10)
    table.update(1, 5)
    assert table.get(1) == 10
    table.update(1, 12)
    assert table.get(1) == 12


def test_timestamp_table_lru_eviction():
    table = TimestampTable(capacity=2)
    table.update(1, 1)
    table.update(2, 2)
    table.get(1)           # refresh 1, so 2 is LRU
    table.update(3, 3)
    assert 2 not in table
    assert table.get(1) == 1 and table.get(3) == 3
    assert table.evictions == 1


def test_timestamp_table_invalidate_and_clear():
    table = TimestampTable()
    table.update(5, 9)
    table.invalidate(5)
    assert table.get(5) is None
    table.update(6, 1)
    table.clear()
    assert len(table) == 0


def test_timestamp_table_invalid_capacity():
    with pytest.raises(ValueError):
        TimestampTable(capacity=0)


@given(updates=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 100)),
                        min_size=1, max_size=60),
       capacity=st.integers(min_value=1, max_value=6))
def test_timestamp_table_capacity_property(updates, capacity):
    table = TimestampTable(capacity=capacity)
    for source, ts in updates:
        table.update(source, ts)
        assert len(table) <= capacity
        # The most recently updated entry must be present and >= ts.
        assert table.get(source) is not None and table.get(source) >= ts


_TABLE_OPS = st.lists(
    st.tuples(st.sampled_from(["get", "update", "invalidate"]),
              st.integers(0, 7), st.integers(1, 100)),
    max_size=80)


@given(ops=_TABLE_OPS, sources=st.integers(1, 8), spare=st.integers(0, 3),
       unbounded=st.booleans())
def test_table_without_lru_matches_lru_reference(ops, sources, spare, unbounded):
    """A table that holds every source skips LRU bookkeeping; it must answer
    exactly like a table that keeps it."""
    capacity = None if unbounded else sources + spare
    table = TimestampTable(capacity=capacity, sources=sources)
    reference = TimestampTable(capacity=capacity)
    assert not table.tracks_lru
    assert reference.tracks_lru == (capacity is not None)
    for op, source, ts in ops:
        source %= sources
        if op == "get":
            assert table.get(source) == reference.get(source)
        elif op == "update":
            table.update(source, ts)
            reference.update(source, ts)
        else:
            table.invalidate(source)
            reference.invalidate(source)
        assert table.snapshot() == reference.snapshot()
        assert len(table) == len(reference)
    assert table.evictions == reference.evictions == 0


def test_table_smaller_than_its_sources_keeps_lru():
    table = TimestampTable(capacity=2, sources=4)
    assert table.tracks_lru
    table.update(1, 1)
    table.update(2, 2)
    table.get(1)
    table.update(3, 3)
    assert 2 not in table and table.evictions == 1


def test_timestamp_table_invalid_sources():
    for sources in (0, -1):
        with pytest.raises(ValueError):
            TimestampTable(capacity=4, sources=sources)
    table = TimestampTable(capacity=4, sources=4)
    with pytest.raises(ValueError, match="out of range"):
        table.update(4, 1)


# ------------------------------------------------------------------ epochs

def test_epoch_table_defaults_and_updates():
    epochs = EpochTable()
    assert epochs.expected(3) == 0
    assert epochs.matches(3, 0)
    epochs.update(3, 5)
    assert not epochs.matches(3, 0)
    assert epochs.matches(3, 5)
    assert epochs.snapshot() == {3: 5}
