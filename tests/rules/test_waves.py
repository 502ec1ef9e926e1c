"""The wave Δ: what each round of the check phase consumes.

A wave holds the net change of each monitored relation since the
previous wave was taken (or since the relation became monitored).  The
first wave of a deferred transaction is the transaction's own writes;
every later wave — rule actions, the statements after the first under
immediate processing — holds only what was written after the previous
take.
"""

from repro.algebra.delta import DeltaSet, delta_union
from repro.amos.database import AmosDatabase
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.terms import Variable

I, Q = Variable("I"), Variable("Q")


def make_amos(action=None, **options):
    """Items a and b at quantity 100; rule ``low`` watches quantity < 10
    (not yet activated)."""
    amos = AmosDatabase(explain=True, **options)
    amos.create_type("item")
    amos.create_stored_function("quantity", ("item",), ("integer",))
    a, b = amos.create_objects("item", 2)
    for item in (a, b):
        amos.set_value("quantity", (item,), 100)
    fired = []

    def act(row):
        fired.append(row)
        if action is not None:
            action(amos, row)

    amos.create_rule(
        "low",
        [
            HornClause(
                PredLiteral("cnd_low", (I,)),
                [PredLiteral("quantity", (I, Q)), Comparison("<", Q, 10)],
            )
        ],
        act,
    )
    return amos, a, b, fired


def base_waves(amos):
    return [iteration.base_deltas for iteration in amos.rules.last_report.iterations]


def test_rule_action_write_is_a_second_wave_of_its_own():
    def restock(amos, row):
        amos.set_value("quantity", row, 50)

    amos, a, b, fired = make_amos(restock)
    amos.activate("low")
    with amos.transaction():
        amos.set_value("quantity", (a,), 5)
        amos.set_value("quantity", (b,), 70)
    assert fired == [(a,)]
    first, second = base_waves(amos)
    assert first == {
        "quantity": DeltaSet({(a, 5), (b, 70)}, {(a, 100), (b, 100)})
    }
    # only the action's write, not the transaction's again
    assert second == {"quantity": DeltaSet({(a, 50)}, {(a, 5)})}
    assert amos.value("quantity", a) == 50


def test_rule_activated_mid_transaction_sees_only_later_writes():
    amos, a, b, fired = make_amos()
    with amos.transaction():
        amos.set_value("quantity", (a,), 5)
        amos.activate("low")
        amos.set_value("quantity", (b,), 5)
    assert fired == [(b,)]
    (first,) = base_waves(amos)
    assert first == {"quantity": DeltaSet({(b, 5)}, {(b, 100)})}


def test_rule_activated_mid_transaction_after_a_netted_write():
    """A write that netted to nothing before activation leaves the
    transaction Δ empty; the later writes are the whole wave."""
    amos, a, b, fired = make_amos()
    with amos.transaction():
        amos.set_value("quantity", (a,), 5)
        amos.set_value("quantity", (a,), 100)
        amos.activate("low")
        amos.set_value("quantity", (b,), 5)
    assert fired == [(b,)]
    (first,) = base_waves(amos)
    assert first == {"quantity": DeltaSet({(b, 5)}, {(b, 100)})}


def condition_waves(processing):
    """Every condition Δ the engine produced for one two-statement
    transaction, and every base wave it consumed."""
    amos, a, b, fired = make_amos(processing=processing)
    amos.activate("low")
    engine = amos.rules.engine
    process = engine.process
    conditions, bases = [], []

    def recording(base_deltas, **kwargs):
        bases.append(dict(base_deltas))
        out = process(base_deltas, **kwargs)
        conditions.append(dict(out))
        return out

    engine.process = recording
    with amos.transaction():
        amos.set_value("quantity", (a,), 5)
        amos.set_value("quantity", (b,), 7)
    return (a, b), fired, conditions, bases


def test_immediate_waves_add_up_to_the_deferred_condition_delta():
    (a, b), deferred_fired, deferred, deferred_bases = condition_waves("deferred")
    (a2, b2), immediate_fired, immediate, immediate_bases = condition_waves(
        "immediate"
    )
    assert (a, b) == (a2, b2)
    assert deferred == [{"cnd_low": DeltaSet({(a,), (b,)}, ())}]
    assert immediate == [
        {"cnd_low": DeltaSet({(a,)}, ())},
        {"cnd_low": DeltaSet({(b,)}, ())},
    ]
    total = delta_union(immediate[0]["cnd_low"], immediate[1]["cnd_low"])
    assert total == deferred[0]["cnd_low"]
    # the second statement's wave holds only its own write
    assert immediate_bases[1] == {"quantity": DeltaSet({(b, 7)}, {(b, 100)})}
    assert sorted(immediate_fired) == sorted(deferred_fired) == sorted([(a,), (b,)])
