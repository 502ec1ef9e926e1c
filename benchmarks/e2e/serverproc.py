"""A primary or replica server in its own process.

Run as ``python serverproc.py primary|replica '<json config>'`` by
``served.ServerProc``.  The server runs here so that the generator's
interpreter lock is not the system's.  One JSON line on stdout when
the server is ready; then one line per command read from stdin:

* ``wait_epoch N`` (replica) — answer once epoch ``N`` is published;
* ``stop`` — stop the server and report peak RSS, the rule's orders
  and the server's ``stats()``.

A closed stdin (the benchmark died) stops the server too, so no
process outlives its run.
"""

from __future__ import annotations

import json
import os
import sys

from harness import default_inventory, peak_rss_mb, system_pids, use_checkout_source

use_checkout_source()

from repro.replication import ReplicaServer  # noqa: E402
from repro.server import AmosServer  # noqa: E402


def emit(payload) -> None:
    print(json.dumps(payload), flush=True)


def main(role: str, config: dict) -> None:
    if config.get("cpu") is not None:
        os.sched_setaffinity(0, {config["cpu"]})  # threads started later inherit it
    # the same populated bootstrap on both sides: schema and initial
    # data are code, the log and the stream carry only later commits
    workload = default_inventory(config["n_items"], config["seed"])
    amos = workload.amos
    if role == "primary":
        server = AmosServer(amos=amos, wal_dir=config["wal_dir"])
    else:
        server = ReplicaServer(primary=tuple(config["primary"]), amos=amos)
    server.start()
    try:
        if role == "replica" and not server.connected.wait(30.0):
            raise RuntimeError(f"replica never reached {config['primary']}")
        emit(
            {
                "address": list(server.address),
                "items": [item.id for item in workload.items],
                "shards": amos.shards,
            }
        )
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command[0] == "stop":
                break
            if command[0] == "wait_epoch":
                reached = server.wait_for_epoch(int(command[1]), 30.0)
                emit({"reached": reached, "epoch": amos.storage.snapshot_epoch})
            else:
                emit({"error": f"unknown command {command[0]!r}"})
        final = {
            "rss_mb": peak_rss_mb(system_pids(amos)),
            "orders": [[item.id, amount] for item, amount in workload.orders],
            "stats": server.stats(),
        }
    finally:
        server.stop()
    emit(final)


if __name__ == "__main__":
    main(sys.argv[1], json.loads(sys.argv[2]))
