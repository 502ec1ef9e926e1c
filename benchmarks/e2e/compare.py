"""Compare two full sets of runs, one row per (metric, workload).

    python3 benchmarks/e2e/compare.py A/e2e.json B/e2e.json

Each row gives both values, the ratio B/A (base A), both block IQRs as
a share of their value, and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``ok``         — B is no worse than A by more than the bound;
* ``regressed``  — it is;
* ``unresolved`` — a block IQR is wider than the bound, so the run
  cannot tell either way.

The workload-specific numbers the contract keeps out of
``end_to_end`` (reads, tail latency, recovery) are compared against the
advisory bounds below and marked ``advisory``; they fail nothing.  The
remaining per-layer metrics are listed with ``--layers`` for reading,
with no verdict.  Exit code 1 when an end-to-end row ``regressed``;
``unresolved`` rows are counted and printed, and left to the reader.
"""

from __future__ import annotations

import json
import sys
from typing import Dict

from harness import load_spec

#: bounds for the informational end-to-end numbers (share of A)
ADVISORY = {
    "txn_p95_ms": 0.15,
    "read_p50_ms": 0.10,
    "read_p95_ms": 0.15,
    "reads_per_s": 0.10,
    "recovery_commits_per_s": 0.15,
}


def verdict(a: Dict, b: Dict, better: str, bound: float) -> str:
    base = a["value"]
    if not base:
        return "n/a"
    worse = (b["value"] - base) / base * (1 if better == "lower" else -1)
    noise = max(share(a), share(b))
    if noise > bound:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def share(cell: Dict) -> float:
    """A cell's block IQR as a share of its value."""
    return cell["block_iqr"] / cell["value"] if cell["value"] else 0.0


def report(first: Dict, second: Dict, spec: Dict, layers: bool = False) -> int:
    """Print the table; return the number of end-to-end rows that
    regressed."""
    outcomes = []
    print(f"{'metric':42s} {'workload':17s} {'A':>12s} {'B':>12s} {'B/A':>7s} {'iqrA':>6s} {'iqrB':>6s}  verdict")
    rows = [(m, m["bound"], "") for m in spec["end_to_end"]]
    for metric in spec["per_layer"]:
        if metric["name"] in ADVISORY:
            rows.append((metric, ADVISORY[metric["name"]], "advisory "))
        elif layers:
            rows.append((metric, None, ""))
    for metric, bound, tag in rows:
        for workload in first:
            a, b = first[workload].get(metric["name"]), second.get(workload, {}).get(metric["name"])
            if a is None or b is None or not (a["value"] or b["value"]):
                continue  # the layer does no work on this workload
            outcome = verdict(a, b, metric["better"], bound) if bound is not None else ""
            if bound is not None and not tag:
                outcomes.append(outcome)
            ratio = b["value"] / a["value"] if a["value"] else float("inf")
            print(
                f"{metric['name']:42s} {workload:17s} {a['value']:12.4f} {b['value']:12.4f} "
                f"{ratio:7.3f} {share(a):6.3f} {share(b):6.3f}  {tag}{outcome}"
            )
    regressed = outcomes.count("regressed")
    print(
        f"end-to-end rows: {outcomes.count('ok')} ok, {regressed} regressed, "
        f"{outcomes.count('unresolved')} unresolved"
    )
    return regressed


def main(argv) -> int:
    layers = "--layers" in argv
    paths = [arg for arg in argv if not arg.startswith("--")]
    if len(paths) != 2:
        print(__doc__)
        return 2
    sets = []
    for path in paths:
        with open(path) as handle:
            sets.append(json.load(handle))
    return 1 if report(sets[0], sets[1], load_spec(), layers) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
