"""Data persistence: JSON dump and restore of base relations.

The paper's system is a main-memory DBMS; this module gives the
reproduction the minimum durability story a library user expects:
dumping every base relation's extension to a JSON file and restoring
it into a database with the same schema.

Scope: **data only**.  Schema (types, functions, rules, Python
procedures) is code, not data — re-run the DDL script / API calls and
then :func:`load`.  OIDs are preserved exactly, including their ids,
so reloaded data keeps referential identity; see
:meth:`repro.amos.database.AmosDatabase.save_data`.

Supported values inside tuples: int, float, str, bool, None, and
:class:`~repro.amos.oid.OID`.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, Dict, Optional

from repro.algebra.delta import DeltaSet
from repro.amos.oid import OID
from repro.errors import StorageError
from repro.storage.database import Database

FORMAT_VERSION = 1

__all__ = [
    "dump",
    "diff",
    "restore",
    "read",
    "save",
    "load",
    "encode_value",
    "decode_value",
    "FORMAT_VERSION",
]


def encode_value(value):
    """JSON-encode one tuple component (OIDs become tagged dicts).

    This encoding doubles as the value representation of the network
    protocol (:mod:`repro.server.codec`), so rows round-trip unchanged
    between a snapshot file and the wire.
    """
    if isinstance(value, OID):
        return {"$oid": value.id, "$type": value.type_name}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise StorageError(
        f"cannot persist value {value!r} of type {type(value).__name__}"
    )


def decode_value(value):
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {"$oid", "$type"}:
            return OID(value["$oid"], value["$type"])
        raise StorageError(f"unknown encoded value {value!r}")
    return value


def _encode_row(name: str, row) -> list:
    encoded = []
    for column, value in enumerate(row):
        try:
            encoded.append(encode_value(value))
        except StorageError:
            raise StorageError(
                f"cannot persist value {value!r} of type "
                f"{type(value).__name__} in relation {name!r} at column "
                f"{column}"
            ) from None
    return encoded


def dump(db: Database) -> Dict:
    """A JSON-serializable snapshot of every base relation."""
    relations = {}
    for name in db.relation_names():
        relation = db.relation(name)
        relations[name] = {
            "arity": relation.arity,
            "column_names": list(relation.column_names),
            "rows": sorted(
                [_encode_row(name, row) for row in relation.rows()],
                key=repr,
            ),
        }
    return {"format": FORMAT_VERSION, "relations": relations}


def diff(
    db: Database, snapshot: Dict, create_missing: bool = False
) -> Dict[str, DeltaSet]:
    """The net Δ-map that turns ``db``'s current state into ``snapshot``'s.

    Only relations the snapshot names appear in it.  Relations present
    in the snapshot but missing from the catalog are created when
    ``create_missing`` is set, otherwise rejected — loading data into a
    database whose schema does not know the relation is almost always a
    schema-version mistake.
    """
    if snapshot.get("format") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported snapshot format {snapshot.get('format')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    deltas: Dict[str, DeltaSet] = {}
    for name, payload in snapshot["relations"].items():
        if not db.has_relation(name):
            if not create_missing:
                raise StorageError(
                    f"snapshot contains unknown relation {name!r}; create the "
                    "schema first or pass create_missing=True"
                )
            db.create_relation(name, payload["arity"], payload["column_names"])
        relation = db.relation(name)
        if relation.arity != payload["arity"]:
            raise StorageError(
                f"relation {name!r}: snapshot arity {payload['arity']} does "
                f"not match catalog arity {relation.arity}"
            )
        rows = frozenset(
            tuple(decode_value(v) for v in encoded) for encoded in payload["rows"]
        )
        current = relation.rows()
        delta = DeltaSet(rows - current, current - rows)
        if delta:
            deltas[name] = delta
    return deltas


def restore(db: Database, snapshot: Dict, create_missing: bool = False) -> int:
    """Load a snapshot into ``db``; returns the number of rows loaded.

    Existing relation contents are replaced: the :func:`diff` is applied
    through :meth:`Database.apply_committed`, beneath the transaction
    machinery.
    """
    db.apply_committed(diff(db, snapshot, create_missing))
    return sum(len(payload["rows"]) for payload in snapshot["relations"].values())


def read(path: str) -> Dict:
    """The snapshot dict in a JSON file written by :func:`save`."""
    with open(path) as handle:
        return json.load(handle)


def save(
    db: Database,
    path: str,
    fault_hook: Optional[Callable[[str], None]] = None,
) -> None:
    """Dump ``db`` to a JSON file, atomically.

    The snapshot is written to a temporary file in the target
    directory, flushed and fsync'd, then renamed over ``path`` — so a
    crash at any point leaves either the complete old snapshot or the
    complete new one, never a torn JSON file.  ``fault_hook`` is the
    test seam used by ``tests/fault`` (called with ``"save.mid_write"``
    after the partial write and ``"save.pre_rename"`` before the
    rename); production leaves it ``None``.
    """
    path = os.path.abspath(path)
    payload = json.dumps(dump(db), indent=1, sort_keys=True)
    fd, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp",
        dir=os.path.dirname(path),
    )
    try:
        with os.fdopen(fd, "w") as handle:
            midpoint = len(payload) // 2
            handle.write(payload[:midpoint])
            if fault_hook is not None:
                handle.flush()
                fault_hook("save.mid_write")
            handle.write(payload[midpoint:])
            handle.flush()
            os.fsync(handle.fileno())
        if fault_hook is not None:
            fault_hook("save.pre_rename")
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def load(db: Database, path: str, create_missing: bool = False) -> int:
    """Restore ``db`` from a JSON file written by :func:`save`."""
    return restore(db, read(path), create_missing=create_missing)
