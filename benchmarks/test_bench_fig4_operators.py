"""Fig. 4 — partial differencing of the relational operators (section 4.6).

Prints the paper's operator table as the rule compiler generates it
(``repro.rules.differentials.fig4_table``: the same seven rows, each
cell a generated differential clause tagged with its state and output
sign) and measures, per operator, one propagation of a small delta
through the condition's network against recomputing the condition in
the new and the old state — the microscopic version of the paper's
efficiency claim.

Run:  pytest benchmarks/test_bench_fig4_operators.py --benchmark-only -s
"""

import random
import time

import pytest

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView, OldStateView
from repro.objectlog.evaluate import Evaluator
from repro.rules.differentials import fig4_programs, fig4_table
from repro.rules.network import PropagationNetwork
from repro.rules.propagation import Propagator
from repro.storage.database import Database

N_ROWS = 3000
DELTA_SIZE = 5

OPERATORS = {
    "select": "σ_cond Q",
    "union": "Q ∪ R",
    "difference": "Q - R",
    "join": "Q ⋈ R",
    "intersect": "Q ∩ R",
    "product": "Q × R",
}


def build_case(name, seed=7):
    """``(program, db, propagator, deltas)``: q and r hold N_ROWS random
    rows, and q has just taken DELTA_SIZE insertions and deletions."""
    rng = random.Random(seed)
    db = Database()
    q = db.create_relation("q", 2)
    r = db.create_relation("r", 2)
    q.bulk_insert({(rng.randrange(2000), rng.randrange(2000)) for _ in range(N_ROWS)})
    r.bulk_insert({(rng.randrange(2000), rng.randrange(2000)) for _ in range(N_ROWS)})
    plus = set()
    while len(plus) < DELTA_SIZE:
        row = (rng.randrange(2000), rng.randrange(2000))
        if row not in q:
            plus.add(row)
    minus = set(rng.sample(sorted(q.rows()), DELTA_SIZE))
    for row in plus:
        q.insert(row)
    for row in minus:
        q.delete(row)
    deltas = {"q": DeltaSet(plus, minus)}
    program = fig4_programs()[OPERATORS[name]]
    network = PropagationNetwork(program)
    network.add_condition("p")
    return program, db, Propagator(program, db, network), deltas


def recompute(program, db, deltas):
    new = Evaluator(program, NewStateView(db)).extension("p")
    old = Evaluator(program, OldStateView(db, deltas)).extension("p")
    return DeltaSet(new - old, old - new)


def incremental(propagator, deltas):
    """Strict semantics: drop positives that already held before."""
    raw = propagator.run(deltas).get("p", DeltaSet())
    held = propagator.held_before("p", raw.plus, deltas)
    return DeltaSet(raw.plus - held, raw.minus)


def test_print_fig4_table(benchmark):
    """Regenerate the paper's Fig. 4 from the differential generator."""
    table = benchmark(fig4_table)
    columns = ["ΔP/Δ+Q", "ΔP/Δ+R", "ΔP/Δ-Q", "ΔP/Δ-R"]
    print("\nFig. 4 — Partial differencing of the Relational Operators")
    for label, cells in table.items():
        print(label)
        for column in columns:
            if column in cells:
                print(f"  {column}  {cells[column]}")
    assert len(table) == 7


@pytest.mark.parametrize("name", [k for k in OPERATORS if k != "product"])
def test_incremental_operator_evaluation(benchmark, name):
    """Time one propagation of a 5-row delta through the condition."""
    program, db, propagator, deltas = build_case(name)
    benchmark(lambda: propagator.run(deltas))
    assert incremental(propagator, deltas) == recompute(program, db, deltas)


@pytest.mark.parametrize("name", ["select", "join", "intersect"])
def test_full_recompute_baseline(benchmark, name):
    """The recompute cost the differentials avoid (same conditions)."""
    program, db, _, deltas = build_case(name)
    benchmark(lambda: recompute(program, db, deltas))


def test_incremental_beats_recompute_on_join(benchmark):
    """The headline claim at operator granularity."""
    program, db, propagator, deltas = build_case("join")

    start = time.perf_counter()
    for _ in range(20):
        propagator.run(deltas)
    fast = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(20):
        recompute(program, db, deltas)
    slow = time.perf_counter() - start

    print(
        f"\njoin with {DELTA_SIZE}-row delta over {N_ROWS} rows: "
        f"incremental {fast / 20 * 1000:.3f} ms vs "
        f"recompute {slow / 20 * 1000:.3f} ms "
        f"({slow / fast:.0f}x)"
    )
    assert fast < slow
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
