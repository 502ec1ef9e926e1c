"""Integration tests for the section-8 extensions:

* aggregate condition monitoring (per-group incremental recompute),
* immediate rule processing,
* ECA-style event filters,
* the interactive REPL.
"""

import io

import pytest

from repro.amosql.interpreter import AmosqlEngine
from repro.amosql.repl import Repl
from repro.errors import RuleError


def make_sales_engine(**options):
    engine = AmosqlEngine(**options)
    alerts = []
    engine.amos.create_procedure(
        "warn", ("charstring", "integer"),
        lambda region, total: alerts.append((region, total)),
    )
    engine.execute(
        """
        create type region;
        create type sale;
        create function name(region) -> charstring;
        create function region_of(sale) -> region;
        create function amount(sale) -> integer;
        create function region_total(region r) -> integer as
            select sum(amount(s)) for each sale s where region_of(s) = r;
        create region instances :north, :south;
        set name(:north) = 'north';
        set name(:south) = 'south';
        """
    )
    return engine, alerts


def add_sale(engine, tag, region, amount):
    engine.execute(f"create sale instances :{tag};")
    engine.iface[tag] = engine.get(tag)
    engine.amos.set_value("region_of", (engine.get(tag),), engine.get(region))
    engine.amos.set_value("amount", (engine.get(tag),), amount)


class TestAggregateQueries:
    def test_grouped_sum_via_amosql(self):
        engine, _ = make_sales_engine()
        add_sale(engine, "s1", "north", 100)
        add_sale(engine, "s2", "north", 100)
        add_sale(engine, "s3", "south", 70)
        assert engine.query("select region_total(:north)") == [(200,)]
        assert engine.query("select region_total(:south)") == [(70,)]

    def test_count_aggregate(self):
        engine, _ = make_sales_engine()
        engine.execute(
            "create function n_sales(region r) -> integer as "
            "select count(s) for each sale s where region_of(s) = r;"
        )
        add_sale(engine, "s1", "north", 5)
        add_sale(engine, "s2", "north", 5)
        assert engine.query("select n_sales(:north)") == [(2,)]
        assert engine.query("select n_sales(:south)") == []

    def test_duplicate_amounts_not_collapsed(self):
        """The witness column keeps multiplicity under set semantics."""
        engine, _ = make_sales_engine()
        for index in range(4):
            add_sale(engine, f"s{index}", "north", 25)
        assert engine.query("select region_total(:north)") == [(100,)]


class TestAggregateMonitoring:
    def setup_rule(self, **options):
        engine, alerts = make_sales_engine(**options)
        engine.execute(
            """
            create rule watch_totals() as
                when for each region r where region_total(r) > 150
                do warn(name(r), region_total(r));
            activate watch_totals();
            """
        )
        return engine, alerts

    def test_crossing_threshold_fires(self):
        engine, alerts = self.setup_rule()
        add_sale(engine, "s1", "north", 100)
        assert alerts == []
        add_sale(engine, "s2", "north", 100)
        assert alerts == [("north", 200)]

    def test_strict_silence_while_above(self):
        engine, alerts = self.setup_rule()
        add_sale(engine, "s1", "north", 200)
        add_sale(engine, "s2", "north", 10)
        assert alerts == [("north", 200)]

    def test_deletion_can_retrigger(self):
        engine, alerts = self.setup_rule()
        add_sale(engine, "s1", "north", 200)
        assert len(alerts) == 1
        # removing the sale drops the total below; re-adding re-fires
        engine.amos.set_value("amount", (engine.get("s1"),), 10)
        engine.amos.set_value("amount", (engine.get("s1"),), 500)
        assert alerts == [("north", 200), ("north", 500)]

    def test_incremental_matches_naive(self):
        results = {}
        for mode in ("incremental", "naive"):
            engine, alerts = self.setup_rule(mode=mode)
            add_sale(engine, "a", "north", 90)
            add_sale(engine, "b", "north", 90)
            add_sale(engine, "c", "south", 500)
            engine.amos.set_value("amount", (engine.get("a"),), 1)
            results[mode] = alerts
        assert results["incremental"] == results["naive"]

    def test_only_touched_group_recomputed(self):
        engine, alerts = self.setup_rule(explain=True)
        add_sale(engine, "s1", "north", 60)
        add_sale(engine, "s2", "south", 60)
        engine.amos.set_value("amount", (engine.get("s1"),), 70)
        report = engine.amos.rules.last_report
        group_executions = [
            e
            for it in report.iterations
            if it.trace
            for e in it.trace.executions
            if e.input_sign == "*"
        ]
        assert group_executions, "aggregate recompute not traced"
        assert all(e.input_size == 1 for e in group_executions)


class TestImmediateProcessing:
    def test_fires_inside_open_transaction(self):
        engine = AmosqlEngine(processing="immediate")
        hits = []
        engine.amos.create_procedure("note", ("item",), hits.append)
        engine.execute(
            """
            create type item;
            create function quantity(item) -> integer;
            create rule low() as
                when for each item i where quantity(i) < 10 do note(i);
            create item instances :a;
            set quantity(:a) = 100;
            activate low();
            begin;
            set quantity(:a) = 5;
            """
        )
        assert hits == [engine.get("a")]  # fired BEFORE commit
        engine.execute("rollback;")
        assert engine.amos.value("quantity", engine.get("a")) == 100

    def test_object_deletion_fires_inside_open_transaction(self):
        """``delete_object`` is a data-model update like ``set``: under
        immediate processing its consequences are checked at once, not
        at the next update or at commit."""
        engine, _ = make_sales_engine(processing="immediate")
        hits = []
        engine.amos.create_procedure("note", ("region",), hits.append)
        add_sale(engine, "s1", "north", 60)
        add_sale(engine, "s2", "north", 60)
        engine.execute(
            """
            create rule slump() as
                when for each region r where region_total(r) < 100 do note(r);
            activate slump();
            begin;
            """
        )
        engine.amos.delete_object(engine.get("s2"))
        assert hits == [engine.get("north")]  # fired BEFORE commit
        engine.execute("commit;")
        assert hits == [engine.get("north")]

    def test_deferred_waits_for_commit(self):
        engine = AmosqlEngine(processing="deferred")
        hits = []
        engine.amos.create_procedure("note", ("item",), hits.append)
        engine.execute(
            """
            create type item;
            create function quantity(item) -> integer;
            create rule low() as
                when for each item i where quantity(i) < 10 do note(i);
            create item instances :a;
            set quantity(:a) = 100;
            activate low();
            begin;
            set quantity(:a) = 5;
            """
        )
        assert hits == []
        engine.execute("commit;")
        assert hits == [engine.get("a")]

    def test_immediate_sees_transient_states(self):
        """The semantic difference: a dip that recovers within the
        transaction IS visible to immediate rules."""
        def run(processing):
            engine = AmosqlEngine(processing=processing)
            hits = []
            engine.amos.create_procedure("note", ("item",), hits.append)
            engine.execute(
                """
                create type item;
                create function quantity(item) -> integer;
                create rule low() as
                    when for each item i where quantity(i) < 10 do note(i);
                create item instances :a;
                set quantity(:a) = 100;
                activate low();
                begin; set quantity(:a) = 5; set quantity(:a) = 100; commit;
                """
            )
            return hits

        assert run("immediate") != []
        assert run("deferred") == []

    def test_bad_processing_mode_rejected(self):
        with pytest.raises(RuleError):
            AmosqlEngine(processing="eventually")


class TestEventFilters:
    def make(self, semantics="nervous"):
        engine = AmosqlEngine()
        hits = []
        engine.amos.create_procedure("note", ("item",), hits.append)
        engine.execute(
            f"""
            create type item;
            create function quantity(item) -> integer;
            create function min_stock(item) -> integer;
            create rule watch() as
                on quantity
                when for each item i where quantity(i) < min_stock(i)
                {semantics} do note(i);
            create item instances :a;
            set quantity(:a) = 100;
            set min_stock(:a) = 50;
            activate watch();
            """
        )
        return engine, hits

    def test_filtered_event_does_not_test_condition(self):
        engine, hits = self.make()
        engine.execute("set min_stock(:a) = 500;")  # condition true, wrong event
        assert hits == []

    def test_matching_event_tests_condition(self):
        engine, hits = self.make()
        engine.execute("set min_stock(:a) = 500;")
        engine.execute("set quantity(:a) = 90;")  # quantity event, still true
        assert hits == [engine.get("a")]

    def test_event_list_parsed(self):
        from repro.amosql.parser import parse_statement

        statement = parse_statement(
            "create rule r() as on quantity, min_stock "
            "when for each item i where quantity(i) < 1 do note(i);"
        )
        assert statement.events == ("quantity", "min_stock")


class TestRepl:
    def run_repl(self, text):
        out = io.StringIO()
        repl = Repl(out=out)
        for line in text.splitlines(keepends=True):
            if not repl.handle_line(line):
                break
        return out.getvalue()

    def test_ddl_update_select_roundtrip(self):
        output = self.run_repl(
            "create type item;\n"
            "create function quantity(item) -> integer;\n"
            "create item instances :a;\n"
            "set quantity(:a) = 7;\n"
            "select quantity(i) for each item i;\n"
        )
        assert "(7,)" in output

    def test_multiline_statement(self):
        output = self.run_repl(
            "create type item;\n"
            "create function quantity(item)\n"
            "    -> integer;\n"
            "create item instances :a;\n"
            "set quantity(:a) = 3;\n"
            "select quantity(:a);\n"
        )
        assert "(3,)" in output

    def test_error_reported_not_raised(self):
        output = self.run_repl("select nonsense(1);\n")
        assert "error:" in output

    def test_dot_commands(self):
        output = self.run_repl(
            "create type item;\n.relations\n.mode\n.rules\n.explain\n.nope\n"
        )
        assert "item: 0 rows" in output
        assert "monitoring=incremental" in output
        assert "(no rules)" in output
        assert "unknown command" in output

    def test_quit_ends_session(self):
        out = io.StringIO()
        repl = Repl(out=out)
        assert repl.handle_line("create type item;\n") is True
        assert repl.handle_line(".quit\n") is False
