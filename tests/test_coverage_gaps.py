"""Targeted tests for code paths the main suites touch lightly."""

import pytest

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import OldStateView
from repro.objectlog.clause import HornClause
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.literals import PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.algebra.oldstate import NewStateView
from repro.storage.database import Database

X, Y = Variable("X"), Variable("Y")


class TestClauseHelpers:
    def test_rename_apart_freshens_every_variable(self):
        clause = HornClause(
            PredLiteral("p", (X, Y)), [PredLiteral("q", (X, Y))]
        )
        renamed = clause.rename_apart()
        assert renamed.variables().isdisjoint(clause.variables())
        # structure preserved: head vars appear in body identically
        assert renamed.head.args == renamed.body[0].args

    def test_replace_body_literal_bounds_checked(self):
        from repro.errors import ObjectLogError

        clause = HornClause(PredLiteral("p", (X,)), [PredLiteral("q", (X, X))])
        with pytest.raises(ObjectLogError):
            clause.replace_body_literal(5, PredLiteral("r", (X,)))

    def test_head_must_be_plain(self):
        from repro.errors import ObjectLogError

        with pytest.raises(ObjectLogError):
            HornClause(PredLiteral("p", (X,), negated=True), [])
        with pytest.raises(ObjectLogError):
            HornClause(PredLiteral("p", (X,), delta="+"), [])


class TestOldStateLookupBranches:
    def test_plus_only_delta_lookup(self):
        """The branch where nothing was deleted under this key but an
        insertion must be filtered out of the old view."""
        db = Database()
        relation = db.create_relation("r", 2)
        relation.bulk_insert([(1, "old")])
        relation.insert((1, "new"))
        view = OldStateView(db, {"r": DeltaSet({(1, "new")}, frozenset())})
        assert view.lookup("r", (0,), (1,)) == {(1, "old")}

    def test_untouched_key_fast_path(self):
        db = Database()
        relation = db.create_relation("r", 2)
        relation.bulk_insert([(1, "a"), (2, "b")])
        relation.insert((3, "c"))
        view = OldStateView(db, {"r": DeltaSet({(3, "c")}, frozenset())})
        assert view.lookup("r", (0,), (2,)) == {(2, "b")}
        assert view.lookup("r", (0,), (3,)) == frozenset()


class TestNetworkDotWithAggregates:
    def test_aggregate_node_rendered(self):
        from repro.rules.network import PropagationNetwork

        program = Program()
        program.declare_base("sales", 2)
        program.declare_aggregate("total", "sales", 1, "sum")
        network = PropagationNetwork(program)
        network.add_condition("total")
        dot = network.to_dot()
        assert '"sales" -> "total"' in dot

    def test_aggregate_node_level(self):
        from repro.rules.network import PropagationNetwork

        program = Program()
        program.declare_base("sales", 2)
        program.declare_aggregate("total", "sales", 1, "sum")
        network = PropagationNetwork(program)
        node = network.add_condition("total")
        assert node.kind == "aggregate"
        assert node.level == 1


class TestReplNetworkCommand:
    def test_network_rendered_with_active_rule(self):
        from tests.conftest import make_scripted_repl

        repl, out = make_scripted_repl([
            "create type item;",
            "create function quantity(item) -> integer;",
            "create rule low() as when for each item i "
            "where quantity(i) < 10 do print_(i);",
            "activate low();",
            ".network",
        ])
        output = out.getvalue()
        assert "digraph propagation_network" in output
        assert "Δcnd_low/Δ+quantity" in output


class TestReplSaveLoadCommands:
    def make_repl(self):
        from tests.conftest import make_scripted_repl

        return make_scripted_repl([
            "create type item;",
            "create function quantity(item) -> integer;",
            "create item instances :i;",
            "set quantity(:i) = 42;",
        ])

    def test_save_then_load_round_trips(self, tmp_path):
        path = str(tmp_path / "data.json")
        repl, out = self.make_repl()
        repl.handle_line(f".save {path}\n")
        assert f"saved data to {path}" in out.getvalue()

        fresh, fresh_out = self.make_repl()
        fresh.handle_line(".load " + path + "\n")
        assert "rows from " + path in fresh_out.getvalue()
        fresh.handle_line("select quantity(i) for each item i;\n")
        assert "(42,)" in fresh_out.getvalue()

    def test_usage_and_error_reporting(self, tmp_path):
        repl, out = self.make_repl()
        repl.handle_line(".save\n")
        assert "usage: .save <path>" in out.getvalue()
        repl.handle_line(".load\n")
        assert "usage: .load <path>" in out.getvalue()
        repl.handle_line(f".load {tmp_path}/missing.json\n")
        assert "error:" in out.getvalue()
        repl.handle_line(".help\n")
        help_text = out.getvalue()
        assert ".save <path>" in help_text and ".load <path>" in help_text


class TestTransactionStatisticsAndRepr:
    def test_reprs_are_informative(self):
        db = Database()
        db.create_relation("r", 1)
        assert "relations=1" in repr(db)
        from repro.amos.database import AmosDatabase

        amos = AmosDatabase()
        assert "mode='incremental'" in repr(amos)
        assert "RuleManager" in repr(amos.rules)

    def test_rollback_counted(self):
        db = Database()
        db.create_relation("r", 1)
        db.begin()
        db.insert("r", (1,))
        db.rollback()
        assert db.statistics["rollbacks"] == 1
