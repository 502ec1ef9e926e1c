"""Compare a fresh ``BENCH_<artifact>.json`` against its committed baseline.

CI's bench-regression gate, one comparator for every committed
baseline.  Per artifact the :data:`GATES` table names

* the **gated series** — the optimized or default path, whose cost per
  operation must not regress more than ``--tolerance`` (default 25%)
  against the baseline committed at the repository root.  Every other
  series moves with the host and is reported, not failed; a baseline
  cell missing from the fresh run always fails;
* the **meta gates** — absolute bars re-checked from the FRESH
  artifact's ``meta`` (measured on one host within one run, so host
  speed cancels): the join kernels' ≥ 2× massive-join speedup, the
  WAL's overhead budget, the replicas' ≥ 2× read scale-out.

Usage::

    python benchmarks/compare.py ARTIFACT BASELINE FRESH [--tolerance 0.25]

with ``ARTIFACT`` one of ``checkphase``, ``joinkernel``, ``wal``,
``replication``.

Exit status 0 when every gate passes, 1 otherwise.  Re-baseline by
committing the regenerated artifact together with the change that
justifies it.
"""

import argparse
import json
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

Say = Callable[[str], None]


def joinkernel_meta(meta: Dict, say: Say, fail: Say) -> None:
    """The acceptance cell: WCOJ at least halves the massive multi-way
    join at 5000 spokes."""
    speedup = meta.get("speedup_at_5000")
    if speedup is None:
        fail("fresh artifact has no meta.speedup_at_5000")
        return
    say(f"fresh pairwise-vs-wcoj speedup at 5000 spokes: {speedup:.2f}x")
    if speedup < 2.0:
        fail(f"speedup_at_5000: {speedup:.2f}x below the 2.0x acceptance floor")


def wal_meta(meta: Dict, say: Say, fail: Say) -> None:
    """WAL-on commit overhead vs WAL-off on the SAME host, against the
    budget recorded in the artifact."""
    overhead = meta.get("overhead_ratio")
    budget = meta.get("overhead_budget", 0.25)
    if overhead is not None:
        over = overhead > 1.0 + budget
        if over:
            fail(
                f"overhead_ratio: wal_on is {overhead:.2f}x wal_off "
                f"(budget {1.0 + budget:.2f}x)"
            )
        say(
            f"fresh wal_on/wal_off overhead: {100 * (overhead - 1):.1f}% "
            f"(budget {100 * budget:.0f}%) {'OVER BUDGET' if over else 'ok'}"
        )
    recovery = meta.get("recovery")
    if recovery:
        say(
            f"fresh recovery: {recovery['commits']} commits in "
            f"{recovery['recover_seconds']:.3f}s "
            f"({recovery['commits_per_second']:.0f} commits/sec)"
        )


def replication_meta(meta: Dict, say: Say, fail: Say) -> None:
    """The absolute scale-out bar: ≥ 2× aggregate reads/sec with two
    replicas."""
    scaleout = meta.get("read_scaleout")
    if scaleout is None:
        fail("meta.read_scaleout missing from fresh run")
    else:
        say(f"fresh read scale-out at 2 replicas: {scaleout:.2f}x")
        if scaleout < 2.0:
            fail(f"read_scaleout: {scaleout:.2f}x below the 2.0x bar")
    if meta.get("max_lag_epochs") is not None:
        say(
            f"fresh storm lag: max={meta['max_lag_epochs']} epochs, "
            f"drain={meta.get('drain_seconds', 0.0):.2f}s"
        )


class Gate(NamedTuple):
    #: what fails on regression: series-name prefixes, or exact
    #: ``(series, x)`` cells
    gated: Tuple[Union[str, Tuple[str, int]], ...]
    #: unit of the artifact's ``ms_per_transaction`` column
    unit: str
    meta: Optional[Callable[[Dict, Say, Say], None]] = None


GATES: Dict[str, Gate] = {
    # the check phase of the default engine
    "checkphase": Gate(("batch",), "ms/txn"),
    # the optimized join path; pairwise cells are the A/B reference
    "joinkernel": Gate(("wcoj",), "ms/txn", joinkernel_meta),
    # the durable path; wal_off is the in-memory reference
    "wal": Gate(("wal_on", "recover"), "ms/commit", wal_meta),
    # the replica apply loop and the scale-out read path
    "replication": Gate((("apply", 1), ("reads", 2)), "ms/op", replication_meta),
}


def cells(payload: Dict) -> Dict[Tuple[str, int], float]:
    x_label = payload["x_label"]
    return {
        (row["series"], row[x_label]): row["ms_per_transaction"]
        for row in payload["rows"]
    }


def is_gated(gate: Gate, series: str, x: int) -> bool:
    return any(
        (series, x) == entry if isinstance(entry, tuple) else series.startswith(entry)
        for entry in gate.gated
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("artifact", choices=sorted(GATES))
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.25)
    args = parser.parse_args(argv)

    gate = GATES[args.artifact]
    unit = gate.unit
    with open(args.baseline) as handle:
        baseline = cells(json.load(handle))
    with open(args.fresh) as handle:
        fresh_payload = json.load(handle)
    fresh = cells(fresh_payload)

    failures: List[str] = []
    for (series, x), base_ms in sorted(baseline.items()):
        now_ms = fresh.get((series, x))
        if now_ms is None:
            failures.append(f"{series}@{x}: missing from fresh run")
            continue
        ratio = now_ms / base_ms if base_ms else float("inf")
        gated = is_gated(gate, series, x)
        verdict = "ok"
        if gated and ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{series}@{x}: {base_ms:.4f} -> {now_ms:.4f} {unit} "
                f"({ratio:.2f}x, tolerance {1.0 + args.tolerance:.2f}x)"
            )
        print(
            f"  {series}@{x}: baseline {base_ms:.4f} {unit}, "
            f"fresh {now_ms:.4f} {unit} ({ratio:.2f}x) "
            f"[{'gated' if gated else 'informational'}] {verdict}"
        )

    if gate.meta is not None:
        gate.meta(
            fresh_payload.get("meta", {}),
            lambda line: print(f"  {line}"),
            failures.append,
        )

    if failures:
        print("\nbench-regression FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbench-regression ok: all gated cells within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
