"""Object identifiers (OIDs).

Everything in the AMOS data model is an object (section 3); surrogate
objects created by ``create <type> instances`` are identified by OIDs.
OIDs are immutable, hashable, and ordered (by id) so they can live in
stored tuples like any other value.
"""

from __future__ import annotations

from functools import total_ordering


@total_ordering
class OID:
    """A surrogate object identifier, e.g. ``#[item 1]``."""

    __slots__ = ("id", "type_name")

    def __init__(self, id: int, type_name: str) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "type_name", type_name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("OID is immutable")

    def __reduce__(self):
        # the frozen __setattr__ breaks pickle's default slot-state
        # restore; rebuild through __init__ instead
        return (OID, (self.id, self.type_name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OID) and other.id == self.id

    def __lt__(self, other: "OID") -> bool:
        if not isinstance(other, OID):
            return NotImplemented
        return self.id < other.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"#[{self.type_name} {self.id}]"
