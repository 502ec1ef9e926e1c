"""Per-layer metrics: from the spans of a traced replay, from the
engine's own counters collected beside it, and from the served
processes' public ``stats()``.

A metric that has no source on a workload reads 0: the layer did no
work there, which is what the bypass workloads are for.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from spans import Recorder

#: metric -> (span name, "total" | "self", "txn" | "call", seconds -> unit)
SPAN_METRICS = {
    "server.protocol.frame_us": ("server.protocol.frame", "total", "txn", 1e6),
    "server.codec.result_us": ("server.codec.result", "total", "txn", 1e6),
    "amosql.parse_us": ("amosql.parse", "total", "txn", 1e6),
    "amosql.execute_us": ("amosql.execute", "total", "txn", 1e6),
    "amosql.compile_select_us": ("amosql.compile_select", "total", "call", 1e6),
    "amosql.readonly_point_us": ("amosql.readonly_point", "total", "call", 1e6),
    "amosql.readonly_scan_ms": ("amosql.readonly_scan", "total", "call", 1e3),
    "amos.set_value_us": ("amos.set_value", "total", "call", 1e6),
    "storage.snapshot.publish_us": ("storage.snapshot.publish", "total", "txn", 1e6),
    "storage.wal.encode_us": ("storage.wal.encode", "total", "txn", 1e6),
    "storage.wal.append_us": ("storage.wal.append", "self", "txn", 1e6),
    "storage.wal.fsync_ms_mean": ("storage.wal.fsync", "total", "call", 1e3),
    "rules.check_phase_us": ("rules.check_phase", "total", "txn", 1e6),
    "rules.engine_process_us": ("rules.engine_process", "total", "txn", 1e6),
}

#: the AmosDatabase update calls that make up one transaction's apply
APPLY_SPANS = ("amos.begin", "amos.set_value", "amos.clear_value")

#: metric -> engine counters summed, reported per transaction
PER_TXN_COUNTERS = {
    "storage.log.events_per_txn": ("storage.events",),
    "storage.index.probes_per_txn": ("index.probes",),
    "storage.relation.scans_per_txn": ("relation.scans", "relation.snapshots"),
    "algebra.delta.net_rows_per_txn": ("delta.net_rows",),
    "algebra.delta.cancellations_per_txn": ("delta.cancellations",),
    "rules.check.iterations_per_txn": ("check.iterations",),
    "rules.check.rules_fired_per_txn": ("check.rules_fired",),
    "rules.propagation.edges_fired_per_txn": ("propagation.edges_fired",),
    "rules.propagation.tuples_in_per_txn": ("propagation.tuples_in",),
    "rules.propagation.tuples_out_per_txn": ("propagation.tuples_out",),
    "rules.propagation.guard_checks_per_txn": ("propagation.guard_checks",),
    "rules.propagation.tuples_guarded_per_txn": ("propagation.tuples_guarded",),
    "objectlog.evaluate.batch_runs_per_txn": ("evaluate.batch_runs",),
    "objectlog.evaluate.env_extensions_per_txn": ("evaluate.env_extensions",),
    "objectlog.evaluate.memo_hits_per_txn": ("evaluate.memo_hits",),
    "objectlog.evaluate.delta_indexes_built_per_txn": ("evaluate.delta_indexes_built",),
    "objectlog.join.kernel_runs_per_txn": ("join.kernel_runs",),
    "shard.exchange_bytes_per_txn": ("shard.exchange_bytes",),
}

#: metric -> engine counter, reported as counted from set-up to the end
#: of the run (plans are chosen at activation, forks happen once)
WHOLE_RUN_COUNTERS = {
    "storage.index.evictions": "index.evictions",
    "objectlog.join.trie_builds": "join.trie_builds",
    "objectlog.join.trie_evictions": "join.trie_evictions",
    "objectlog.join.ho_disabled": "join.ho_disabled",
    "objectlog.join.plans_wcoj": "join.plans_wcoj",
    "objectlog.join.plans_pairwise": "join.plans_pairwise",
    "shard.pool.forks": "shard.pool.forks",
    "shard.pool.respawns": "shard.pool.respawns",
    "shard.merge_cancellations": "shard.merge_cancellations",
}


def ratio(part: float, rest: float) -> float:
    """``part / (part + rest)``, 0 when nothing was counted."""
    return part / (part + rest) if part + rest else 0.0


def from_spans(recorder: Recorder, txns: int) -> Dict[str, float]:
    totals = recorder.totals()
    out: Dict[str, float] = {}
    for metric, (span, which, per, unit) in SPAN_METRICS.items():
        calls, total, own = totals.get(span, (0, 0.0, 0.0))
        seconds = total if which == "total" else own
        divisor = txns if per == "txn" else calls
        out[metric] = seconds / divisor * unit if divisor else 0.0
    apply = sum(totals.get(span, (0, 0.0, 0.0))[1] for span in APPLY_SPANS)
    out["amos.txn_apply_us"] = apply / txns * 1e6 if txns else 0.0
    out["trace.coverage_share"] = recorder.coverage()
    return out


def from_counters(whole, steady, txns: int) -> Dict[str, float]:
    """``whole`` / ``steady``: the registries of ``embedded.measure``."""
    count = steady.counters()
    out = {
        metric: sum(count.get(name, 0) for name in names) / txns if txns else 0.0
        for metric, names in PER_TXN_COUNTERS.items()
    }
    total = whole.counters()
    for metric, name in WHOLE_RUN_COUNTERS.items():
        out[metric] = float(total.get(name, 0))
    scans = count.get("relation.scans", 0) + count.get("relation.snapshots", 0)
    out["objectlog.evaluate.probe_ratio"] = ratio(count.get("index.probes", 0), scans)
    out["objectlog.evaluate.prober_cache_hit_rate"] = ratio(
        count.get("evaluate.prober_cache.hits", 0),
        count.get("evaluate.prober_cache.misses", 0),
    )
    seeds = count.get("join.kernel_seeds", 0)
    out["objectlog.join.kernel_emits_per_seed"] = (
        count.get("join.kernel_emits", 0) / seeds if seeds else 0.0
    )
    out["objectlog.join.ho_hit_rate"] = ratio(
        count.get("join.ho_hits", 0), count.get("join.ho_misses", 0)
    )
    out["rules.propagation.wavefront_peak"] = float(
        steady.gauges().get("propagation.wavefront_peak", {}).get("max", 0)
    )
    dirty = steady.histograms().get("snapshot.dirty_relations", {})
    out["storage.snapshot.dirty_relations_mean"] = float(dirty.get("mean", 0.0))
    return out


def counted(amos, whole, steady, txns: int) -> Dict[str, float]:
    """Everything a counters pass yields for one database."""
    return dict(from_counters(whole, steady, txns), **shard_metrics(amos, steady, txns))


def shard_metrics(amos, steady, txns: int) -> Dict[str, float]:
    """The shard pool's share: routing, sync traffic and skew.

    ``pool_stats`` is the sharded engine's public lifetime accounting;
    the serial engine (one core, or non-incremental mode) has none.
    """
    stats = getattr(amos.rules.engine, "pool_stats", None) or {}
    out = {
        "shard.workers": float(amos.shards),
        "shard.auto_fanout_share": ratio(
            stats.get("auto_fanout", 0), stats.get("auto_serial", 0)
        ),
        "shard.sync_bytes_per_txn": stats.get("sync_bytes", 0) / txns if txns else 0.0,
        "shard.sync_ms_per_txn": stats.get("sync_ms", 0.0) / txns if txns else 0.0,
    }
    # the slowest shard sets each wave's time: busiest shard's total
    # check time over the mean shard's
    sums = [
        hist["sum"]
        for name, hist in steady.histograms().items()
        if name.startswith("shard.") and name.endswith(".check_ms")
    ]
    mean = sum(sums) / len(sums) if sums else 0.0
    out["shard.check_ms_max_over_mean"] = max(sums) / mean if mean else 0.0
    return out


def histogram_mean(stats: Optional[Mapping], name: str) -> float:
    hist = ((stats or {}).get("histograms") or {}).get(name) or {}
    return float(hist.get("mean", 0.0))


def counter(stats: Optional[Mapping], name: str) -> float:
    return float(((stats or {}).get("counters") or {}).get(name, 0))
