"""Cache replacement policies.

The protocols in this repository are insensitive to the exact replacement
policy, but evictions *do* matter (an L2 eviction of a dirty Exclusive line
forces invalidations, and in TSO-CC evicted timestamps cause mandatory
self-invalidations on re-fetch), so the policies are implemented precisely
and are unit / property tested.

Every policy tracks usage per cache set, keyed by ``(set_index, way)``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List, Optional


class ReplacementPolicy(ABC):
    """Abstract replacement policy interface.

    A policy is told about every access (:meth:`touch`), every fill
    (:meth:`fill`) and every invalidation (:meth:`invalidate`), and is asked
    to pick a :meth:`victim` way among candidate ways when a set is full.
    """

    @abstractmethod
    def touch(self, set_index: int, way: int) -> None:
        """Record a hit/use of ``way`` in ``set_index``."""

    @abstractmethod
    def fill(self, set_index: int, way: int) -> None:
        """Record that ``way`` in ``set_index`` was filled with a new line."""

    @abstractmethod
    def invalidate(self, set_index: int, way: int) -> None:
        """Record that ``way`` in ``set_index`` no longer holds a valid line."""

    @abstractmethod
    def victim(self, set_index: int, candidate_ways: List[int]) -> int:
        """Choose a victim way among ``candidate_ways`` in ``set_index``."""


class LRUReplacement(ReplacementPolicy):
    """Least-recently-used replacement (default for both L1 and L2)."""

    def __init__(self) -> None:
        self._clock = 0
        self._last_use: Dict[tuple, int] = {}

    def touch(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._last_use[(set_index, way)] = self._clock

    def fill(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._last_use[(set_index, way)] = self._clock

    def invalidate(self, set_index: int, way: int) -> None:
        self._last_use.pop((set_index, way), None)

    def victim(self, set_index: int, candidate_ways: List[int]) -> int:
        if not candidate_ways:
            raise ValueError("victim() called with no candidate ways")
        return min(
            candidate_ways,
            key=lambda way: self._last_use.get((set_index, way), -1),
        )


class FIFOReplacement(ReplacementPolicy):
    """First-in first-out replacement (fill order, ignores hits)."""

    def __init__(self) -> None:
        self._clock = 0
        self._fill_time: Dict[tuple, int] = {}

    def touch(self, set_index: int, way: int) -> None:
        # FIFO ignores accesses.
        return None

    def fill(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._fill_time[(set_index, way)] = self._clock

    def invalidate(self, set_index: int, way: int) -> None:
        self._fill_time.pop((set_index, way), None)

    def victim(self, set_index: int, candidate_ways: List[int]) -> int:
        if not candidate_ways:
            raise ValueError("victim() called with no candidate ways")
        return min(
            candidate_ways,
            key=lambda way: self._fill_time.get((set_index, way), -1),
        )


class RandomReplacement(ReplacementPolicy):
    """Random replacement driven by a seeded PRNG (deterministic per seed)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def touch(self, set_index: int, way: int) -> None:
        return None

    def fill(self, set_index: int, way: int) -> None:
        return None

    def invalidate(self, set_index: int, way: int) -> None:
        return None

    def victim(self, set_index: int, candidate_ways: List[int]) -> int:
        if not candidate_ways:
            raise ValueError("victim() called with no candidate ways")
        return self._rng.choice(candidate_ways)


_POLICY_FACTORIES = {
    "lru": LRUReplacement,
    "fifo": FIFOReplacement,
    "random": RandomReplacement,
}


def make_replacement_policy(name: str, seed: Optional[int] = None) -> ReplacementPolicy:
    """Create a replacement policy by name (``"lru"``, ``"fifo"``,
    ``"random"``).

    Args:
        name: policy name (case-insensitive).
        seed: PRNG seed, only used by the random policy.

    Raises:
        ValueError: for an unknown policy name.
    """
    key = name.lower()
    if key not in _POLICY_FACTORIES:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"expected one of {sorted(_POLICY_FACTORIES)}"
        )
    if key == "random":
        return RandomReplacement(seed=seed if seed is not None else 0)
    return _POLICY_FACTORIES[key]()
