"""Address arithmetic for the simulated memory hierarchy.

All addresses in the simulator are plain Python integers (byte addresses).
The :class:`AddressMap` centralises every piece of address arithmetic the
rest of the system needs:

* line (block) alignment and offsets,
* set-index extraction for set-associative caches,
* NUCA interleaving of line addresses across shared L2 tiles.

Keeping this in one place means the L1 controllers, L2 tiles, the directory
and the workload generators all agree on what a "cache line" is.
"""

from __future__ import annotations

from dataclasses import dataclass


def is_power_of_two(value: int) -> bool:
    """Return ``True`` iff ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Return ``log2(value)`` for a positive power of two ``value``.

    Raises:
        ValueError: if ``value`` is not a positive power of two.
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value!r} is not a positive power of two")
    return value.bit_length() - 1


@dataclass(frozen=True)
class AddressMap:
    """Address arithmetic helper shared by all memory-system components.

    Attributes:
        line_size: cache line (block) size in bytes; must be a power of two.
        num_l2_tiles: number of shared L2 (NUCA) tiles that line addresses
            are interleaved across; must be at least 1.
    """

    line_size: int = 64
    num_l2_tiles: int = 1

    def __post_init__(self) -> None:
        if not is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if self.num_l2_tiles < 1:
            raise ValueError(f"num_l2_tiles must be >= 1, got {self.num_l2_tiles}")
        # Precompute the masks once (the dataclass is frozen, so plain
        # assignment is blocked); line_address/line_offset sit on the hot
        # path of every cache access.
        object.__setattr__(self, "line_mask", ~(self.line_size - 1))
        object.__setattr__(self, "offset_mask", self.line_size - 1)
        object.__setattr__(self, "offset_bits", log2_int(self.line_size))
        # Intern table: one canonical int object per line address.  Line
        # addresses are used as dict keys all over the memory system (cache
        # index, pending-transaction maps, directory state); handing every
        # consumer the same object lets CPython's dict probes take the
        # pointer-identity fast path instead of comparing values, and avoids
        # re-allocating a fresh int box for the same line on every miss.
        object.__setattr__(self, "_intern", {})

    def line_address(self, address: int) -> int:
        """Return the line-aligned address containing ``address``.

        The returned int is *interned*: every call for the same line returns
        the identical object.  Callers on hot paths that only need the value
        (not the canonical object) may use ``address & map.line_mask``
        directly.
        """
        line = address & self.line_mask
        interned = self._intern.get(line)
        if interned is None:
            self._intern[line] = line
            return line
        return interned

    def line_offset(self, address: int) -> int:
        """Return the byte offset of ``address`` within its cache line."""
        return address & self.offset_mask

    def line_index(self, address: int) -> int:
        """Return the line number (line address divided by line size)."""
        return address >> self.offset_bits

    def same_line(self, addr_a: int, addr_b: int) -> bool:
        """Return ``True`` iff two byte addresses fall in the same line."""
        return self.line_address(addr_a) == self.line_address(addr_b)

    def set_index(self, address: int, num_sets: int) -> int:
        """Return the cache set index for ``address`` in a cache with
        ``num_sets`` sets (power of two)."""
        if not is_power_of_two(num_sets):
            raise ValueError(f"num_sets must be a power of two, got {num_sets}")
        return (self.line_index(address)) & (num_sets - 1)

    def tag(self, address: int, num_sets: int) -> int:
        """Return the tag bits of ``address`` for a cache with ``num_sets``
        sets."""
        if not is_power_of_two(num_sets):
            raise ValueError(f"num_sets must be a power of two, got {num_sets}")
        return self.line_index(address) >> log2_int(num_sets)

    def home_tile(self, address: int) -> int:
        """Return the L2 tile id that is the *home* of the line containing
        ``address``.

        Lines are interleaved across tiles at line granularity, mirroring the
        static NUCA mapping assumed in the paper's evaluation platform.
        """
        return (address >> self.offset_bits) % self.num_l2_tiles

    def lines_in_range(self, base: int, size_bytes: int) -> list[int]:
        """Return the list of line addresses touched by the byte range
        ``[base, base + size_bytes)``."""
        if size_bytes <= 0:
            return []
        first = self.line_address(base)
        last = self.line_address(base + size_bytes - 1)
        return list(range(first, last + self.line_size, self.line_size))
