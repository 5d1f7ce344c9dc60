"""One generic name → item registry.

Protocols, sweeps, fuzz campaigns, workload suites and result-cell kinds are
each a :class:`Registry`: a ``dict`` from an item's ``name`` to the item, in
registration order, that refuses duplicate names and names the known entries
when a lookup misses.  Being a plain ``dict`` keeps ``name in REGISTRY``,
iteration and ``monkeypatch.setitem`` working unchanged.
"""

from __future__ import annotations

from typing import Dict, List, TypeVar

T = TypeVar("T")


class Registry(Dict[str, T]):
    """Registered items by name, in registration order.

    Args:
        what: the item noun used in error messages (``"sweep"``,
            ``"fuzz campaign"`` ...).
    """

    def __init__(self, what: str) -> None:
        super().__init__()
        self.what = what

    def register(self, item: T) -> T:
        """Register ``item`` under its ``name`` and return it.

        Raises:
            ValueError: on a duplicate name.
        """
        name = item.name
        if name in self:
            raise ValueError(f"{self.what} {name!r} is already registered")
        self[name] = item
        return item

    def registered(self) -> List[T]:
        """Every registered item, in registration order."""
        return list(self.values())

    def __missing__(self, name: str) -> T:
        raise KeyError(
            f"unknown {self.what} {name!r}; known: {', '.join(self)}")
