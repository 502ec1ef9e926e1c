"""Incremental view maintenance with the rule compiler's partial differentials.

A monitored condition is a view: the propagation network generates its
partial differentials (sections 4.3-4.6, the same calculus as Fig. 4)
and the propagator computes the view's delta-set from the base-table
changes.  This example uses that layer directly — no rules, no AMOSQL —
to maintain a join-select view over a small orders/customers schema and
shows that

* the incrementally computed view delta (strict semantics: positives
  that already held before the transaction are dropped) equals the
  recompute diff, and
* the OLD state used for negative changes is reconstructed by logical
  rollback, never materialized.

Run:  python examples/view_maintenance.py
"""

from repro.algebra import DeltaSet, NewStateView, OldStateView
from repro.objectlog import (
    Comparison,
    Evaluator,
    HornClause,
    PredLiteral,
    Program,
    Variable,
)
from repro.rules import PropagationNetwork, Propagator
from repro.storage import Database

db = Database()
# orders(order_id, customer_id, amount); customers(customer_id, region)
orders = db.create_relation("orders", 3, ["order_id", "customer_id", "amount"])
customers = db.create_relation("customers", 2, ["customer_id", "region"])

for row in [(1, 10, 250), (2, 11, 900), (3, 10, 120), (4, 12, 40)]:
    orders.insert(row)
for row in [(10, "north"), (11, "south"), (12, "north")]:
    customers.insert(row)

# view: big northern orders =
#   big_north(O, C, A) <- orders(O, C, A) & A > 100 & customers(C, "north")
O, C, A = Variable("O"), Variable("C"), Variable("A")
program = Program()
program.declare_base("orders", 3)
program.declare_base("customers", 2)
program.declare_derived("big_north", 3)
program.add_clause(HornClause(
    PredLiteral("big_north", (O, C, A)),
    [
        PredLiteral("orders", (O, C, A)),
        Comparison(">", A, 100),
        PredLiteral("customers", (C, "north")),
    ],
))

network = PropagationNetwork(program)
network.add_condition("big_north")
propagator = Propagator(program, db, network)
for edge in network.edges():
    for differential in edge.differentials():
        label = f"{differential.label()} [{differential.state}]"
        print(f"{label:34} {differential.clause}")

before = Evaluator(program, NewStateView(db)).extension("big_north")
print("\nview before:", sorted(before))

# --- a batch of base-table changes ------------------------------------------
delta_orders = DeltaSet(
    plus={(5, 12, 700)},          # new big order in the north
    minus={(1, 10, 250)},         # order 1 cancelled
)
delta_customers = DeltaSet(
    plus={(11, "north")},         # customer 11 moves north...
    minus={(11, "south")},        # ...from the south
)
for row in delta_orders.plus:
    orders.insert(row)
for row in delta_orders.minus:
    orders.delete(row)
for row in delta_customers.plus:
    customers.insert(row)
for row in delta_customers.minus:
    customers.delete(row)

deltas = {"orders": delta_orders, "customers": delta_customers}

# incremental: the view's partial differentials, breadth-first bottom-up;
# negative candidates are guarded against the new state (section 7.2),
# positives that already held before the change are dropped (strict)
raw = propagator.run(deltas).get("big_north", DeltaSet())
held = propagator.held_before("big_north", raw.plus, deltas)
view_delta = DeltaSet(raw.plus - held, raw.minus)
print("incremental  Δ+ :", sorted(view_delta.plus))
print("incremental  Δ- :", sorted(view_delta.minus))

# ground truth by recomputation in both states (old state via rollback!)
after = Evaluator(program, NewStateView(db)).extension("big_north")
old = Evaluator(program, OldStateView(db, deltas)).extension("big_north")
assert old == before, "logical rollback must reproduce the initial state"
truth = DeltaSet(after - old, old - after)
print("recompute    Δ+ :", sorted(truth.plus))
print("recompute    Δ- :", sorted(truth.minus))

assert view_delta == truth, (view_delta, truth)
print("\nincremental delta == recompute diff; old state came from logical "
      "rollback,\nno view or intermediate result was ever materialized.")
