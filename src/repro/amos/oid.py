"""Object identifiers (OIDs).

Everything in the AMOS data model is an object (section 3); surrogate
objects created by ``create <type> instances`` are identified by OIDs.
OIDs are immutable, hashable, and ordered (by id) so they can live in
stored tuples like any other value.

OIDs are interned: ``OID(id, type_name)`` returns the one instance the
process holds for that ``(type_name, id)`` pair, so equality and hashing
are object identity (``object``'s C slots) — the per-row write path and
every index probe hash OIDs without a Python-level call.  The contract:

* two OIDs are equal iff they have the same id AND the same type name;
* within one database an id has exactly one type, so there equality by
  id and equality by (type, id) coincide;
* every decoder (pickle, the persistence/WAL value encoding, the wire
  protocol) constructs through ``OID(...)``, so a decoded OID ``is`` the
  in-process one.

The intern table never shrinks: it holds every OID the process has
constructed (one small object per created or decoded object), which is
bounded by the objects the process has seen.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Dict

#: the process-wide intern table, ``{type_name: {id: oid}}``; filled
#: with ``setdefault`` so concurrent constructors agree on one instance
_INTERNED: Dict[str, Dict[int, "OID"]] = {}


@total_ordering
class OID:
    """A surrogate object identifier, e.g. ``#[item 1]``."""

    __slots__ = ("id", "type_name")

    def __new__(cls, id: int, type_name: str) -> "OID":
        by_id = _INTERNED.get(type_name)
        if by_id is None:
            by_id = _INTERNED.setdefault(type_name, {})
        oid = by_id.get(id)
        if oid is None:
            oid = object.__new__(cls)
            object.__setattr__(oid, "id", id)
            object.__setattr__(oid, "type_name", type_name)
            oid = by_id.setdefault(id, oid)
        return oid

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("OID is immutable")

    def __reduce__(self):
        # rebuild through OID(...) so an unpickled OID re-interns
        return (OID, (self.id, self.type_name))

    def __lt__(self, other: "OID") -> bool:
        if not isinstance(other, OID):
            return NotImplemented
        return self.id < other.id

    def __repr__(self) -> str:
        return f"#[{self.type_name} {self.id}]"
