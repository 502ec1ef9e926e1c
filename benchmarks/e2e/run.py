"""One end-to-end benchmark: five workloads from the paper's Fig. 6 /
Fig. 7 to the served, durable, replicated commit path.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` it runs
every workload both ways, one process each, and prints the whole
table; ``--agree`` runs two such sets and compares them
(``compare.py``).  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import harness

harness.use_checkout_source()

from repro.rules.manager import resolve_auto_shards  # noqa: E402

import compare  # noqa: E402
import embedded  # noqa: E402
import layers  # noqa: E402
import served  # noqa: E402

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: pings behind ``server.ping_p50_us``
PINGS = 200
#: recoveries behind ``recovery_commits_per_s`` (traced runs)
RECOVERIES = 3
#: ROADMAP's budget: layer spans must account for this share of the
#: in-process replay's wall on the served workloads
MIN_COVERAGE = 0.9

WORKLOADS = list(embedded.WORKLOADS) + list(served.WORKLOADS)

Measured = Dict[str, Tuple[float, float]]  # metric -> (value, block IQR)


# -- one embedded run -------------------------------------------------------------


def run_embedded(name: str, seed: int, scale: float, seconds: float, trace: bool):
    if not trace:
        workload = embedded.make(name, seed, scale, seconds)
        plain = embedded.measure(workload, seconds)
        setups = [plain["setup_s"]] + [
            embedded.setup_only(workload) for _ in range(SETUPS - 1)
        ]
        failures = plain["failures"] + embedded.twin_check(name, seed)
        measured: Measured = dict(plain["window"].summary("txn"))
        measured["setup_s"] = (statistics.median(setups), harness.iqr(setups))
        measured["peak_rss_mb"] = (plain["rss_mb"], 0.0)
        return measured, plain["done"], failures, {"transactions": plain["done"]}, None

    # the same inputs three times, a third of the time each: bare, with
    # spans, with the engine's counters
    third = seconds / 3
    workload = embedded.make(name, seed, scale, third)
    plain = embedded.measure(workload, third)
    spanned = embedded.measure(workload, third, "spans")
    counted = embedded.measure(workload, third, "counters")
    values = layers.from_spans(spanned["recorder"], spanned["done"])
    values.update(counted["counted"])
    values["trace.overhead_share"] = overhead(
        spanned["window"].seconds, len(spanned["window"]),
        plain["window"].seconds, len(plain["window"]),
    )
    measured = {metric: (value, 0.0) for metric, value in values.items()}
    measured["txn_p95_ms"] = plain["window"].summary("txn")["txn_p95_ms"]
    passes = (plain, spanned, counted)
    counts = {
        "transactions": plain["done"],
        "spanned_transactions": spanned["done"],
        "counted_transactions": counted["done"],
    }
    return (
        measured,
        sum(p["done"] for p in passes),
        [failure for p in passes for failure in p["failures"]],
        counts,
        spanned["recorder"],
    )


def overhead(traced_s: float, traced_n: int, plain_s: float, plain_n: int) -> float:
    """Traced over untraced wall per operation, minus one."""
    if not (traced_n and plain_n and plain_s):
        return 0.0
    return (traced_s / traced_n) / (plain_s / plain_n) - 1.0


# -- one served run ---------------------------------------------------------------


def run_served(name: str, seed: int, scale: float, seconds: float, trace: bool, work):
    window_s = seconds / 2 if trace else seconds
    workload = served.WORKLOADS[name](seed, scale, window_s)
    begun = time.perf_counter()
    system = workload.setup(work, "run")
    setups = [time.perf_counter() - begun]
    try:
        run = workload.run(system, window_s)
        end = workload.finish(system, run, PINGS if trace else 0)
    finally:
        system.close()
    failures = end["failures"]
    recoveries = []
    for n in range(RECOVERIES if trace else 1):
        took, wrong = workload.recover(
            system.wal_dir, work, str(n), end["expected"], end["commits"]
        )
        recoveries.append(end["commits"] / took)
        failures += wrong
    txn = run["window"].summary("txn")
    read = run["read_window"].summary("read")
    counts = {
        "transactions": end["commits"],
        "reads": len(run["read_log"]),
        "sessions": workload.n_writers + workload.has_reader,
    }
    if not trace:
        for n in range(SETUPS - 1):
            begun = time.perf_counter()
            extra = workload.setup(work, f"setup{n}")
            setups.append(time.perf_counter() - begun)
            extra.close()
        measured: Measured = {
            "setup_s": (statistics.median(setups), harness.iqr(setups)),
            "txn_p50_ms": txn["txn_p50_ms"],
            "txns_per_s": txn["txns_per_s"],
            "peak_rss_mb": (end["rss_mb"], 0.0),
        }
        return measured, run["attempted"], failures, counts, None

    # the same scripts three times in this process: bare, with spans,
    # with the engine's counters
    read_every = max(1, round(end["commits"] / max(len(run["read_log"]), 1)))
    plain = workload.replay(work, "plain", read_every, seconds=seconds / 6)
    spanned = workload.replay(work, "spans", read_every, count=plain["done"])
    counted = workload.replay(work, "counters", read_every, count=plain["done"])
    passes = (plain, spanned, counted)
    failures += [failure for p in passes for failure in p["failures"]]
    values = layers.from_spans(spanned["recorder"], spanned["done"])
    values.update(counted["counted"])
    values["trace.overhead_share"] = overhead(
        spanned["wall"], spanned["done"], plain["wall"], plain["done"]
    )
    if values["trace.coverage_share"] < MIN_COVERAGE:
        failures.append(
            f"spans cover {values['trace.coverage_share']:.3f} of the replay's "
            f"wall, under {MIN_COVERAGE}"
        )
    values.update(stats_metrics(run, end))
    values["recovery_commits_per_s"] = statistics.median(recoveries)
    measured = {metric: (value, 0.0) for metric, value in values.items()}
    measured["txn_p95_ms"] = txn["txn_p95_ms"]
    if workload.has_reader:
        measured.update(read)
    counts["replayed_transactions"] = plain["done"]
    attempted = run["attempted"] + sum(p["done"] for p in passes)
    return measured, attempted, failures, counts, spanned["recorder"]


def stats_metrics(run, end) -> Dict[str, float]:
    """Per-layer numbers the served processes report themselves
    (``stats()`` of the untraced run) or the sessions observed."""
    primary, replica = end["primary_stats"], end["replica_stats"]
    commit_ms = layers.histogram_mean(primary, "server.commit_ms")
    lats = run["window"].lats
    client_ms = sum(lats) / len(lats) * 1000.0 if lats else 0.0
    wal = primary.get("wal") or {}
    out = {
        "server.ping_p50_us": end["ping_us"],
        "server.commit_mean_ms": commit_ms,
        # everything a commit costs the client beyond the engine lock:
        # three round trips, parse, buffering, encode and ack
        "server.outside_lock_ms": client_ms - commit_ms,
        "storage.wal.bytes_per_commit": (
            wal.get("appended_bytes", 0) / wal["appended_records"]
            if wal.get("appended_records")
            else 0.0
        ),
    }
    if replica is not None:
        commits = max(end["commits"], 1)
        out.update(
            {
                "server.query_ro_mean_ms": layers.histogram_mean(replica, "server.query_ro_ms"),
                "replication.ship_bytes_per_commit": layers.counter(primary, "wal.ship.bytes") / commits,
                "replication.apply_ms_mean": layers.histogram_mean(replica, "replica.apply_ms"),
                "replication.staleness_epochs_p95": served.staleness_p95(run["read_log"]),
                "replication.drain_ms": run["drain_ms"],
                "replication.ro_cache_hit_rate": layers.ratio(
                    layers.counter(replica, "replica.cache_hits"),
                    layers.counter(replica, "replica.cache_misses"),
                ),
                "replication.reconnects": layers.counter(replica, "replica.reconnects"),
            }
        )
    return out


# -- the command ------------------------------------------------------------------


def run_one(args) -> int:
    spec = harness.load_spec()
    trace = bool(args.trace)
    with harness.KeepAwake() as awake, harness.WorkDir() as work:
        if args.workload in embedded.WORKLOADS:
            measured, attempted, failures, counts, recorder = run_embedded(
                args.workload, args.seed, args.scale, args.seconds, trace
            )
        else:
            measured, attempted, failures, counts, recorder = run_served(
                args.workload, args.seed, args.scale, args.seconds, trace, work
            )
        env = harness.environment(
            args.seed, resolve_auto_shards("incremental"), work.path
        )
        env["idle_spinners"] = awake.running()
    env["operations"] = counts
    listed = spec["per_layer" if trace else "end_to_end"]
    unknown = set(measured) - {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a layer metric with no source on this workload reads 0: no work
    metrics = {
        m["name"]: {"value": measured.get(m["name"], (0.0, 0.0))[0], "unit": m["unit"]}
        for m in listed
    }
    iqrs = {m["name"]: measured.get(m["name"], (0.0, 0.0))[1] for m in listed}
    failed = len(failures)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, cell in metrics.items():
        print(f"{name:48s} {cell['value']:16.4f} {cell['unit']:6s} block_iqr={iqrs[name]:.4f}")
    print(f"ops_attempted={attempted} ops_failed={failed}")
    for failure in failures:
        print("FAILED " + failure)
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        detail = dict(result, workload=args.workload, environment=env, block_iqr=iqrs)
        if recorder is not None:
            detail["spans"] = recorder.as_rows()
        path = os.path.join(args.out, f"{args.workload}-trace{args.trace}.json")
        with open(path, "w") as handle:
            json.dump(detail, handle)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_set(args, order: List[str], out_dir: str) -> Dict[str, object]:
    """Every workload, untraced then traced, one process each (as the
    driver runs them); returns ``{workload: {metric: cell}}``."""
    results: Dict[str, object] = {}
    for name in order:
        cells: Dict[str, object] = {}
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale), "--out", out_dir,
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            with open(os.path.join(out_dir, f"{name}-trace{trace}.json")) as handle:
                detail = json.load(handle)
            for metric, cell in detail["metrics"].items():
                cells[metric] = dict(cell, block_iqr=detail["block_iqr"][metric])
            cells.setdefault("_failed", 0)
            cells["_failed"] += detail["failed"]
            cells["_environment"] = detail["environment"]
        results[name] = cells
    path = os.path.join(out_dir, "e2e.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    print(f"# wrote {path}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(harness.load_spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="database size factor (smoke test)")
    parser.add_argument("--out", help="directory for the detailed JSON (and spans)")
    parser.add_argument("--agree", action="store_true", help="run two full sets and compare them")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    out = args.out or os.path.join(harness.HERE, "out")
    first = run_set(args, WORKLOADS, os.path.join(out, "a") if args.agree else out)
    failed = sum(cells["_failed"] for cells in first.values())
    if args.agree:
        second = run_set(args, WORKLOADS[::-1], os.path.join(out, "b"))
        failed += sum(cells["_failed"] for cells in second.values())
        failed += compare.report(first, second, harness.load_spec())
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
