"""Tests for the rule manager: activation, check phase, semantics, firing."""

import pytest

from repro.amos.database import AmosDatabase
from repro.amosql.interpreter import AmosqlEngine
from repro.errors import (
    RecursionNotSupportedError,
    RuleActivationError,
    RuleError,
    UnknownRuleError,
    UnsafeClauseError,
)
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.rules.engines import IncrementalEngine
from repro.rules.manager import RuleManager, resolve_auto_shards
from repro.rules.rule import Activation, Rule, default_conflict_resolver
from repro.server import AmosServer
from repro.storage.database import Database

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def make_db(mode="incremental", **options):
    """value(X,V) base relation; condition low(X) <- value(X,V), V < 10."""
    db = Database()
    db.create_relation("value", 2)
    program = Program()
    program.declare_base("value", 2)
    program.declare_derived("low", 1)
    program.add_clause(HornClause(
        PredLiteral("low", (X,)),
        [PredLiteral("value", (X, Y)), Comparison("<", Y, 10)],
    ))
    manager = RuleManager(db, program, mode=mode, **options)
    return db, program, manager


def set_value(db, key, value):
    """Mimic a stored-function update: replace the tuple for key."""
    with db._implicit_transaction():
        for row in db.relation("value").lookup((0,), (key,)):
            db.delete("value", row)
        db.insert("value", (key, value))


class TestRegistry:
    def test_create_and_fetch(self):
        _, _, manager = make_db()
        rule = manager.create_rule(Rule("r", "low", lambda row: None))
        assert manager.rule("r") is rule

    def test_duplicate_rule_rejected(self):
        _, _, manager = make_db()
        manager.create_rule(Rule("r", "low", lambda row: None))
        with pytest.raises(RuleError):
            manager.create_rule(Rule("r", "low", lambda row: None))

    def test_unknown_rule(self):
        _, _, manager = make_db()
        with pytest.raises(UnknownRuleError):
            manager.rule("ghost")
        with pytest.raises(UnknownRuleError):
            manager.activate("ghost")

    def test_unknown_condition_rejected(self):
        _, _, manager = make_db()
        with pytest.raises(Exception):
            manager.create_rule(Rule("r", "ghost_condition", lambda row: None))

    def test_drop_rule_deactivates(self):
        db, _, manager = make_db()
        manager.create_rule(Rule("r", "low", lambda row: None))
        manager.activate("r")
        manager.drop_rule("r")
        assert not manager.active_rules()
        assert manager.monitored_relations() == frozenset()


class TestActivation:
    def test_activation_monitors_influents(self):
        db, _, manager = make_db()
        manager.create_rule(Rule("r", "low", lambda row: None))
        assert not db.is_monitored("value")
        manager.activate("r")
        assert db.is_monitored("value")
        manager.deactivate("r")
        assert not db.is_monitored("value")

    def test_double_activation_rejected(self):
        _, _, manager = make_db()
        manager.create_rule(Rule("r", "low", lambda row: None))
        manager.activate("r")
        with pytest.raises(RuleActivationError):
            manager.activate("r")

    def test_deactivate_inactive_rejected(self):
        _, _, manager = make_db()
        manager.create_rule(Rule("r", "low", lambda row: None))
        with pytest.raises(RuleActivationError):
            manager.deactivate("r")

    def test_no_overhead_when_inactive(self):
        db, _, manager = make_db()
        manager.create_rule(Rule("r", "low", lambda row: None))
        set_value(db, "a", 1)  # no rule active: no deltas, no firing
        assert db.peek_deltas() == {}


class TestFailedActivation:
    """An activation that raises leaves the activations, the monitored
    relations and the engine exactly as they were."""

    def test_recursive_rule_does_not_poison_later_activations(self):
        engine = AmosqlEngine()
        fired = []
        engine.amos.create_procedure("note", ("item",), fired.append)
        engine.execute(
            """
            create type item;
            create function quantity(item) -> integer;
            create item instances :i1;
            set quantity(:i1) = 50;
            create rule low() as
                when for each item i where quantity(i) < 10
                do note(i);
            """
        )
        amos = engine.amos
        amos.storage.create_relation("e", 2)
        amos.program.declare_base("e", 2)
        amos.program.declare_derived("t", 2)
        amos.program.add_clause(HornClause(
            PredLiteral("t", (X, Z)),
            [PredLiteral("e", (X, Y)), PredLiteral("t", (Y, Z))],
        ))
        amos.rules.create_rule(Rule("bad", "t", lambda row: None))
        network = amos.rules.engine.network
        with pytest.raises(RecursionNotSupportedError):
            amos.rules.activate("bad")
        assert not amos.rules.is_active("bad")
        assert amos.rules.active_rules() == []
        assert amos.rules.monitored_relations() == frozenset()
        assert amos.rules.engine.network is network

        engine.execute("activate low();")
        assert amos.rules.active_rules() == [("low", ())]
        assert "quantity" in amos.rules.monitored_relations()
        engine.execute("set quantity(:i1) = 5;")
        assert fired == [engine.get("i1")]

    def test_unsafe_condition_fails_at_activation_not_at_commit(self):
        """``c(X) <- q(X) & X < Y`` never binds Y: no differential has a
        safe order, so activation raises instead of every later commit
        that touches q."""
        db, program, manager = make_db()
        db.create_relation("q", 1)
        program.declare_base("q", 1)
        program.declare_derived("c", 1)
        program.add_clause(HornClause(
            PredLiteral("c", (X,)),
            [PredLiteral("q", (X,)), Comparison("<", X, Y)],
        ))
        fired = []
        manager.create_rule(Rule("unsafe", "c", lambda row: None))
        manager.create_rule(Rule("r", "low", fired.append))
        manager.activate("r")
        with pytest.raises(UnsafeClauseError):
            manager.activate("unsafe")
        assert not manager.is_active("unsafe")
        assert manager.monitored_relations() == {"value"}
        with db.transaction():
            db.insert("q", (1,))
        assert db.relation("q").rows() == {(1,)}
        set_value(db, "a", 5)
        assert fired == [("a",)]


class TestFiring:
    def test_fires_on_transition_to_true(self):
        db, _, manager = make_db()
        fired = []
        manager.create_rule(Rule("r", "low", fired.append))
        manager.activate("r")
        set_value(db, "a", 5)
        assert fired == [("a",)]

    def test_strict_does_not_refire_while_true(self):
        db, _, manager = make_db()
        fired = []
        manager.create_rule(Rule("r", "low", fired.append))
        manager.activate("r")
        set_value(db, "a", 5)
        set_value(db, "a", 6)  # still low
        assert fired == [("a",)]
        set_value(db, "a", 50)  # leaves
        set_value(db, "a", 3)  # re-enters
        assert fired == [("a",), ("a",)]

    def test_nervous_refires_on_reconfirming_update(self):
        db, _, manager = make_db()
        fired = []
        manager.create_rule(Rule("r", "low", fired.append, semantics="nervous"))
        manager.activate("r")
        set_value(db, "a", 5)
        set_value(db, "a", 6)
        assert fired == [("a",), ("a",)]

    def test_net_change_within_transaction_cancels(self):
        db, _, manager = make_db()
        fired = []
        manager.create_rule(Rule("r", "low", fired.append))
        manager.activate("r")
        db.begin()
        set_value(db, "a", 5)
        set_value(db, "a", 50)
        db.commit()
        assert fired == []

    def test_set_oriented_action_mode(self):
        db, _, manager = make_db()
        batches = []
        manager.create_rule(
            Rule("r", "low", batches.append, action_mode="set")
        )
        manager.activate("r")
        db.begin()
        set_value(db, "a", 1)
        set_value(db, "b", 2)
        db.commit()
        assert batches == [frozenset({("a",), ("b",)})]

    def test_parameterized_activation_filters_rows(self):
        db, _, manager = make_db()
        fired = []
        manager.create_rule(Rule("r", "low", fired.append, n_params=1))
        manager.activate("r", ("a",))
        set_value(db, "a", 1)
        set_value(db, "b", 1)
        assert fired == [("a",)]

    def test_rule_params_arity_checked(self):
        _, _, manager = make_db()
        manager.create_rule(Rule("r", "low", lambda row: None, n_params=1))
        with pytest.raises(RuleError):
            manager.activate("r", ())


class TestCompiledStrictFilter:
    """The strict filter is answered by the propagator's long-lived
    old-state evaluator: a firing commit builds no evaluator and no
    old-state view of its own."""

    def test_firing_commit_builds_no_evaluator_and_no_old_view(self, monkeypatch):
        from repro.algebra.oldstate import OldStateView
        from repro.amosql.interpreter import AmosqlEngine
        from repro.objectlog.evaluate import Evaluator

        engine = AmosqlEngine()
        noted = []
        engine.amos.create_procedure("note", ("item",), noted.append)
        engine.execute(
            """
            create type item;
            create function quantity(item) -> integer;
            create function threshold(item) -> integer;
            create rule low() as
                when for each item i where quantity(i) < threshold(i) do note(i);
            create item instances :a, :b;
            set quantity(:a) = 100; set threshold(:a) = 50;
            set quantity(:b) = 100; set threshold(:b) = 50;
            activate low();
            """
        )
        built = []
        for cls in (Evaluator, OldStateView):
            init = cls.__init__

            def counting(self, *args, _init=init, _cls=cls, **kwargs):
                built.append(_cls.__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)

        engine.execute("set quantity(:a) = 10;")
        assert noted == [engine.get("a")]
        assert built == []
        # strict: a confirming update is filtered, again without either
        engine.execute("set quantity(:a) = 20;")
        assert noted == [engine.get("a")]
        assert built == []


class TestCascadingActions:
    def test_action_updates_retrigger_other_rules(self):
        db, program, manager = make_db()
        program.declare_derived("negative", 1)
        program.add_clause(HornClause(
            PredLiteral("negative", (X,)),
            [PredLiteral("value", (X, Y)), Comparison("<", Y, 0)],
        ))
        log = []

        def sink(row):
            log.append(("low", row))
            set_value(db, row[0], -1)  # drives `negative` true

        manager.create_rule(Rule("to_negative", "low", sink))
        manager.create_rule(
            Rule("catch_negative", "negative", lambda row: log.append(("neg", row)))
        )
        manager.activate("to_negative")
        manager.activate("catch_negative")
        set_value(db, "a", 5)
        assert log == [("low", ("a",)), ("neg", ("a",))]

    def test_runaway_rules_detected(self):
        db, _, manager = make_db(max_iterations=10)
        counter = [0]

        def flip(row):
            counter[0] += 1
            # keep confirming the condition; nervous semantics refires
            # forever (strict would stop: no false->true transition)
            set_value(db, "a", counter[0] % 9)

        manager.create_rule(Rule("loop", "low", flip, semantics="nervous"))
        manager.activate("loop")
        with pytest.raises(RuleError):
            set_value(db, "a", 5)
        # the failed transaction must have been rolled back
        assert db.relation("value").lookup((0,), ("a",)) == frozenset()


class TestConflictResolution:
    def test_priority_order(self):
        db, _, manager = make_db()
        order = []
        manager.create_rule(
            Rule("lowpri", "low", lambda row: order.append("lowpri"), priority=1)
        )
        manager.create_rule(
            Rule("highpri", "low", lambda row: order.append("highpri"), priority=9)
        )
        manager.activate("lowpri")
        manager.activate("highpri")
        set_value(db, "a", 1)
        assert order == ["highpri", "lowpri"]

    def test_tie_broken_by_activation_order(self):
        db, _, manager = make_db()
        order = []
        manager.create_rule(Rule("first", "low", lambda row: order.append("first")))
        manager.create_rule(Rule("second", "low", lambda row: order.append("second")))
        manager.activate("second")
        manager.activate("first")
        set_value(db, "a", 1)
        assert order == ["second", "first"]

    def test_custom_resolver(self):
        db, _, manager = make_db(
            conflict_resolver=lambda candidates: min(
                candidates, key=lambda a: a.rule.priority
            )
        )
        order = []
        manager.create_rule(Rule("a", "low", lambda row: order.append("a"), priority=5))
        manager.create_rule(Rule("b", "low", lambda row: order.append("b"), priority=1))
        manager.activate("a")
        manager.activate("b")
        set_value(db, "x", 1)
        assert order == ["b", "a"]


class TestRollbackSafety:
    @pytest.mark.parametrize("mode", ["incremental", "naive"])
    def test_failing_action_rolls_back_and_recovers(self, mode):
        db, _, manager = make_db(mode=mode)
        fired = []
        state = {"fail": True}

        def flaky(row):
            if state["fail"]:
                raise RuntimeError("action crashed")
            fired.append(row)

        manager.create_rule(Rule("r", "low", flaky))
        manager.activate("r")
        with pytest.raises(RuntimeError):
            set_value(db, "a", 5)
        # the update was rolled back
        assert db.relation("value").lookup((0,), ("a",)) == frozenset()
        # and the engine recovers cleanly on the next transaction
        state["fail"] = False
        set_value(db, "a", 5)
        assert fired == [("a",)]

    def test_explicit_rollback_leaves_no_pending(self):
        db, _, manager = make_db()
        fired = []
        manager.create_rule(Rule("r", "low", fired.append))
        manager.activate("r")
        db.begin()
        set_value(db, "a", 5)
        db.rollback()
        assert fired == []
        set_value(db, "b", 50)  # harmless update; must not fire anything
        assert fired == []


class TestEngineSelection:
    @pytest.mark.parametrize("shards", [1.5, 2.0, True, False, 0, -1, "2", None])
    def test_shards_must_be_a_positive_int(self, shards):
        with pytest.raises(RuleError, match="sharded check phase was removed"):
            make_db(shards=shards)

    @pytest.mark.parametrize("mode", ["incremental", "naive"])
    def test_removed_shard_options_raise(self, mode):
        with pytest.raises(RuleError, match='EXPERIMENTS.md, "Sharded check phase"'):
            make_db(mode=mode, shards=2)
        with pytest.raises(RuleError):
            AmosDatabase(mode=mode, shards=4)
        with pytest.raises(TypeError):
            make_db(mode=mode, shard_options={"policy": "fanout"})

    @pytest.mark.parametrize(
        "make_amos",
        [
            AmosDatabase,
            lambda: AmosqlEngine().amos,
            lambda: AmosServer().amos,
            lambda: AmosqlEngine(shards="auto").amos,
            lambda: AmosDatabase(shards=1),
        ],
        ids=["AmosDatabase", "AmosqlEngine", "AmosServer", "auto-alias", "one"],
    )
    def test_default_engine_is_incremental(self, make_amos):
        amos = make_amos()
        assert type(amos.rules.engine) is IncrementalEngine
        assert amos.shards == 1

    @pytest.mark.parametrize("mode", ["incremental", "naive"])
    def test_auto_shards_resolution(self, mode):
        assert resolve_auto_shards(mode) == 1

    def test_removed_hybrid_options_raise(self, tmp_path):
        with pytest.raises(RuleError, match="unknown monitoring mode"):
            make_db(mode="hybrid")
        with pytest.raises(TypeError):
            make_db(hybrid_switch_ratio=0.2)
        with pytest.raises(RuleError):
            AmosDatabase(mode="hybrid")
        with pytest.raises(TypeError):
            AmosDatabase(hybrid_switch_ratio=0.2)
        with pytest.raises(TypeError):  # recover(create_missing=), PR 19
            AmosDatabase().open_wal(str(tmp_path), create_missing=False)


class TestActivationObject:
    def test_restrict_and_matches(self):
        rule = Rule("r", "low", lambda row: None, n_params=1)
        activation = Activation(rule, ("a",))
        assert activation.matches(("a", 1))
        assert not activation.matches(("b", 1))

    def test_default_conflict_resolver_prefers_priority_then_age(self):
        rule_a = Rule("a", "low", lambda row: None, priority=1)
        rule_b = Rule("b", "low", lambda row: None, priority=1)
        first = Activation(rule_a, ())
        second = Activation(rule_b, ())
        assert default_conflict_resolver([second, first]) is first
        high = Activation(Rule("c", "low", lambda row: None, priority=2), ())
        assert default_conflict_resolver([first, second, high]) is high
