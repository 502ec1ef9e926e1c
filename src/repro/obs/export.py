"""Serialize a run's observability data to JSON artifacts.

Two consumers:

* ad-hoc analysis — :func:`export_run` dumps a registry (and optional
  trace) for one experiment;
* the benchmark trajectory — :func:`write_bench_artifact` writes the
  ``BENCH_<name>.json`` files that every benchmark run emits at the
  repository root, so per-PR performance history is diffable.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.obs.metrics import Registry
from repro.obs.tracing import Span, Tracer

__all__ = [
    "registry_to_dict",
    "trace_to_dict",
    "wal_to_dict",
    "export_run",
    "bench_artifact_dir",
    "write_bench_artifact",
]


def registry_to_dict(registry: Optional[Registry]) -> Optional[Dict[str, object]]:
    """JSON-shaped dump of a registry; None passes through."""
    return registry.as_dict() if registry is not None else None


def trace_to_dict(trace) -> Optional[object]:
    """Serialize a Span or a whole Tracer (list of root spans)."""
    if trace is None:
        return None
    if isinstance(trace, Tracer):
        return [span.as_dict() for span in trace.roots]
    if isinstance(trace, Span):
        return trace.as_dict()
    raise TypeError(f"cannot serialize trace of type {type(trace).__name__}")


def wal_to_dict(wal) -> Optional[Dict[str, object]]:
    """JSON-shaped dump of a :class:`~repro.storage.wal.WriteAheadLog`.

    Accepts the log object itself (its ``stats()`` is called), an
    already-built stats mapping, or None.  The replication counters
    (``wal.ship.*``, ``replica.*``) live in the metrics registry and
    come along via :func:`registry_to_dict`; this adds the log's own
    accounting — next_lsn, segment count, appended records/bytes.
    """
    if wal is None:
        return None
    stats = wal.stats() if hasattr(wal, "stats") else wal
    return dict(stats)


def export_run(
    path: str,
    registry: Optional[Registry] = None,
    trace=None,
    meta: Optional[Dict[str, object]] = None,
    wal=None,
) -> str:
    """Write one run's metrics (and optional trace) as a JSON document.

    ``wal`` (a :class:`~repro.storage.wal.WriteAheadLog`, its
    ``stats()`` dict, or None) embeds the write-ahead log's accounting
    under a ``"wal"`` key next to the metrics.
    """
    payload: Dict[str, object] = {"meta": dict(meta or {})}
    payload["metrics"] = registry_to_dict(registry)
    payload["trace"] = trace_to_dict(trace)
    payload["wal"] = wal_to_dict(wal)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, default=str)
    return path


def bench_artifact_dir() -> str:
    """Where ``BENCH_*.json`` artifacts go.

    ``$REPRO_BENCH_DIR`` wins; otherwise walk up from the working
    directory to the repository root (the directory holding
    ``pyproject.toml``); fall back to the working directory.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return override
    directory = os.getcwd()
    while True:
        if os.path.exists(os.path.join(directory, "pyproject.toml")):
            return directory
        parent = os.path.dirname(directory)
        if parent == directory:
            return os.getcwd()
        directory = parent


def write_bench_artifact(
    name: str, payload: Dict[str, object], directory: Optional[str] = None
) -> str:
    """Write ``BENCH_<name>.json`` and return its path."""
    directory = directory or bench_artifact_dir()
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, default=str)
    return path
