"""Tests for the AMOSQL interpreter (session engine)."""

import pytest

from repro.amos.oid import OID
from repro.amosql.interpreter import AmosqlEngine
from repro.errors import AmosError, UnknownFunctionError


@pytest.fixture
def engine():
    e = AmosqlEngine()
    e.execute(
        """
        create type item;
        create function quantity(item) -> integer;
        create function price(item) -> integer;
        create item instances :a, :b;
        set quantity(:a) = 10;
        set quantity(:b) = 99;
        set price(:a) = 5;
        set price(:b) = 7;
        """
    )
    return e


class TestDDLAndUpdates:
    def test_instances_bound_to_interface_variables(self, engine):
        assert isinstance(engine.get("a"), OID)
        assert engine.get("a") != engine.get("b")

    def test_unbound_interface_variable(self, engine):
        with pytest.raises(AmosError):
            engine.get("ghost")

    def test_set_replaces(self, engine):
        engine.execute("set quantity(:a) = 42;")
        assert engine.amos.value("quantity", engine.get("a")) == 42

    def test_add_remove(self, engine):
        engine.execute(
            """
            create function tag(item) -> charstring;
            add tag(:a) = 'x';
            add tag(:a) = 'y';
            remove tag(:a) = 'x';
            """
        )
        assert engine.amos.get_values("tag", (engine.get("a"),)) == {("y",)}

    def test_derived_function_via_amosql(self, engine):
        engine.execute(
            "create function total(item i) -> integer as "
            "select quantity(i) * price(i);"
        )
        assert engine.amos.value("total", engine.get("a")) == 50


class TestSelect:
    def test_simple_select(self, engine):
        rows = engine.query("select i for each item i where quantity(i) > 50")
        assert rows == [(engine.get("b"),)]

    def test_select_multiple_columns(self, engine):
        rows = engine.query("select i, quantity(i) for each item i")
        assert set(rows) == {(engine.get("a"), 10), (engine.get("b"), 99)}

    def test_select_expression(self, engine):
        rows = engine.query(
            "select quantity(i) + price(i) for each item i where quantity(i) = 10"
        )
        assert rows == [(15,)]

    def test_select_with_interface_variable(self, engine):
        rows = engine.query("select quantity(:a)")
        assert rows == [(10,)]

    def test_select_disjunction(self, engine):
        rows = engine.query(
            "select i for each item i where quantity(i) = 10 or quantity(i) = 99"
        )
        assert len(rows) == 2

    def test_select_negation(self, engine):
        rows = engine.query(
            "select i for each item i where not (quantity(i) = 10)"
        )
        assert rows == [(engine.get("b"),)]

    def test_aux_predicates_cleaned_up(self, engine):
        before = set(engine.amos.program.names())
        engine.query("select i for each item i where not (quantity(i) = 10)")
        assert set(engine.amos.program.names()) == before

    def test_failing_select_leaves_no_aux_predicates(self, engine):
        before = set(engine.amos.program.names())
        with pytest.raises(UnknownFunctionError):
            engine.query(
                "select i for each item i "
                "where not quantity(i) = 3 and ghost(i) = 1"
            )
        assert set(engine.amos.program.names()) == before

    def test_query_rejects_non_select(self, engine):
        with pytest.raises(AmosError):
            engine.query("create type gadget")


class TestTransactionsAndCalls:
    def test_begin_commit(self, engine):
        engine.execute("begin; set quantity(:a) = 1; commit;")
        assert engine.amos.value("quantity", engine.get("a")) == 1

    def test_rollback(self, engine):
        engine.execute("begin; set quantity(:a) = 1; rollback;")
        assert engine.amos.value("quantity", engine.get("a")) == 10

    def test_procedure_call_statement(self, engine):
        calls = []
        engine.amos.create_procedure("ping", ("integer",), calls.append)
        engine.execute("ping(41 + 1);")
        assert calls == [42]

    def test_runtime_undefined_function_value(self, engine):
        engine.execute("create item instances :c;")
        calls = []
        engine.amos.create_procedure("ping", ("integer",), calls.append)
        with pytest.raises(AmosError):
            engine.execute("ping(quantity(:c));")  # quantity(:c) undefined


class TestRulesViaAmosql:
    def test_rule_with_update_action(self, engine):
        """A rule whose action is itself a database update (cascading)."""
        engine.execute(
            """
            create function restock_count(item) -> integer;
            set restock_count(:a) = 0;
            set restock_count(:b) = 0;
            create rule auto_restock() as
                when for each item i where quantity(i) < 5
                do set quantity(i) = 100;
            activate auto_restock();
            set quantity(:a) = 2;
            """
        )
        assert engine.amos.value("quantity", engine.get("a")) == 100

    def test_parameterized_activation(self, engine):
        fired = []
        engine.amos.create_procedure(
            "note", ("item",), lambda item: fired.append(item)
        )
        engine.execute(
            """
            create rule watch(item i) as
                when quantity(i) < 5
                do note(i);
            activate watch(:a);
            set quantity(:a) = 1;
            set quantity(:b) = 1;
            """
        )
        assert fired == [engine.get("a")]  # :b is not monitored

    def test_action_arguments_evaluate_arithmetic(self, engine):
        """``-``, ``*``, ``/`` and nesting in a rule action's arguments,
        evaluated per firing row."""
        got = []
        engine.amos.create_procedure(
            "note", ("item", "real", "real"), lambda *args: got.append(args)
        )
        engine.execute(
            """
            create rule watch(item i) as
                when quantity(i) < 5
                do note(i, price(i) * (quantity(i) - 1), (price(i) - quantity(i)) / 2);
            activate watch(:a);
            set quantity(:a) = 3;
            """
        )
        # price(:a) = 5, quantity(:a) = 3
        assert got == [(engine.get("a"), 10, 1.0)]

    def test_deactivate_stops_monitoring(self, engine):
        fired = []
        engine.amos.create_procedure(
            "note", ("item",), lambda item: fired.append(item)
        )
        engine.execute(
            """
            create rule watch_all() as
                when for each item i where quantity(i) < 5 do note(i);
            activate watch_all();
            deactivate watch_all();
            set quantity(:a) = 1;
            """
        )
        assert fired == []

    def test_nervous_rule_fires_on_already_true(self, engine):
        fired = []
        engine.amos.create_procedure(
            "note", ("item",), lambda item: fired.append(item)
        )
        engine.execute(
            """
            create rule watch_all() as
                when for each item i where quantity(i) < 50
                nervous do note(i);
            activate watch_all();
            set quantity(:a) = 9;
            set quantity(:a) = 8;
            """
        )
        # strict would fire once; nervous fires on every confirming update
        assert fired == [engine.get("a"), engine.get("a")]


class TestEpochPinnedQueries:
    """``query(..., epoch=...)`` / ``execute_readonly(..., epoch=...)``
    read one pinned version from the bounded snapshot history ring."""

    QUERY = "select q for each item i, integer q where quantity(i) = q"

    def test_query_pins_an_epoch_across_updates(self, engine):
        engine.amos.storage.publish_snapshot()
        pinned = engine.amos.storage.snapshot_epoch
        engine.execute("set quantity(:a) = 1;")
        engine.amos.storage.publish_snapshot()
        assert sorted(engine.query(self.QUERY, epoch=pinned)) == [
            (10,),
            (99,),
        ]
        assert sorted(engine.query(self.QUERY)) == [(1,), (99,)]

    def test_execute_readonly_pins_an_epoch(self, engine):
        engine.amos.storage.publish_snapshot()
        pinned = engine.amos.storage.snapshot_epoch
        engine.execute("set quantity(:a) = 1;")
        engine.amos.storage.publish_snapshot()
        snapshot, results = engine.execute_readonly(
            f"{self.QUERY};", epoch=pinned
        )
        assert snapshot.epoch == pinned
        assert sorted(results[0]) == [(10,), (99,)]

    def test_evicted_epoch_raises(self, engine):
        from repro.errors import SnapshotEpochError

        storage = engine.amos.storage
        storage.snapshot_history = 1
        storage.publish_snapshot()
        stale = storage.snapshot_epoch
        engine.execute("set quantity(:a) = 1;")
        storage.publish_snapshot()
        with pytest.raises(SnapshotEpochError, match="evicted"):
            engine.query(self.QUERY, epoch=stale)

    def test_epoch_and_snapshot_are_mutually_exclusive(self, engine):
        snapshot = engine.amos.storage.publish_snapshot()
        with pytest.raises(AmosError, match="not both"):
            engine.execute_readonly(
                f"{self.QUERY};", snapshot=snapshot, epoch=snapshot.epoch
            )
        with pytest.raises(AmosError, match="not both"):
            engine.query(self.QUERY, snapshot=snapshot, epoch=snapshot.epoch)
