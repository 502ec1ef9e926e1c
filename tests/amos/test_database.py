"""Tests for the AmosDatabase facade."""

import pytest

from repro.amos.database import AmosDatabase
from repro.errors import AmosError, TypeCheckError, UnknownFunctionError
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import PredLiteral
from repro.objectlog.terms import Variable

X, Y = Variable("X"), Variable("Y")


@pytest.fixture
def amos():
    db = AmosDatabase()
    db.create_type("item")
    db.create_stored_function("quantity", ["item"], ["integer"])
    return db


class TestTypesAndObjects:
    def test_create_object_enters_extent(self, amos):
        item = amos.create_object("item")
        assert item in amos.objects_of("item")
        assert item.type_name == "item"

    def test_subtype_objects_in_supertype_extent(self, amos):
        amos.create_type("gadget", under=("item",))
        gadget = amos.create_object("gadget")
        assert gadget in amos.objects_of("gadget")
        assert gadget in amos.objects_of("item")

    def test_cannot_instantiate_literal_type(self, amos):
        with pytest.raises(TypeCheckError):
            amos.create_object("integer")

    def test_name_clash_rejected(self, amos):
        with pytest.raises(AmosError):
            amos.create_type("quantity")
        with pytest.raises(AmosError):
            amos.create_stored_function("item", ["item"], ["integer"])

    def test_delete_object_cascades(self, amos):
        item = amos.create_object("item")
        amos.set_value("quantity", (item,), 10)
        amos.delete_object(item)
        assert item not in amos.objects_of("item")
        assert amos.value("quantity", item) is None

    def test_create_objects_bulk(self, amos):
        items = amos.create_objects("item", 3)
        assert len(items) == 3
        assert amos.objects_of("item") == frozenset(items)


class TestStoredFunctions:
    def test_set_and_value(self, amos):
        item = amos.create_object("item")
        amos.set_value("quantity", (item,), 10)
        assert amos.value("quantity", item) == 10
        amos.set_value("quantity", (item,), 20)  # replaces
        assert amos.value("quantity", item) == 20
        assert amos.get_values("quantity", (item,)) == {(20,)}

    def test_value_is_one_index_probe(self, amos):
        from repro.obs import metrics

        items = amos.create_objects("item", 20)
        for n, item in enumerate(items):
            amos.set_value("quantity", (item,), n)
        amos.value("quantity", items[0])  # past the auto-index threshold
        with metrics.collecting() as registry:
            assert amos.value("quantity", items[7]) == 7
        assert registry.value("index.probes") == 1
        assert registry.value("relation.scans") == 0

    def test_undefined_value_is_none(self, amos):
        item = amos.create_object("item")
        assert amos.value("quantity", item) is None

    def test_add_and_remove_multivalued(self, amos):
        amos.create_stored_function("tag", ["item"], ["charstring"])
        item = amos.create_object("item")
        amos.add_value("tag", (item,), "new")
        amos.add_value("tag", (item,), "sale")
        assert amos.get_values("tag", (item,)) == {("new",), ("sale",)}
        with pytest.raises(AmosError):
            amos.value("tag", item)  # multi-valued
        amos.remove_value("tag", (item,), "new")
        assert amos.value("tag", item) == "sale"

    def test_clear_value(self, amos):
        amos.create_stored_function("tag", ["item"], ["charstring"])
        item = amos.create_object("item")
        amos.add_value("tag", (item,), "a")
        amos.add_value("tag", (item,), "b")
        amos.clear_value("tag", (item,))
        assert amos.get_values("tag", (item,)) == frozenset()

    def test_type_checked_updates(self, amos):
        item = amos.create_object("item")
        with pytest.raises(TypeCheckError):
            amos.set_value("quantity", (item,), "many")
        with pytest.raises(TypeCheckError):
            amos.set_value("quantity", ("not-an-oid",), 5)

    def test_arity_checked(self, amos):
        item = amos.create_object("item")
        with pytest.raises(AmosError):
            amos.set_value("quantity", (item, item), 5)

    def test_multi_argument_function(self, amos):
        amos.create_type("supplier")
        amos.create_stored_function(
            "delivery_time", ["item", "supplier"], ["integer"]
        )
        item = amos.create_object("item")
        supplier = amos.create_object("supplier")
        amos.set_value("delivery_time", (item, supplier), 3)
        assert amos.value("delivery_time", item, supplier) == 3

    def test_stored_function_needs_argument(self, amos):
        with pytest.raises(AmosError):
            amos.create_stored_function("constant", [], ["integer"])

    def test_unknown_type_in_signature(self, amos):
        with pytest.raises(TypeCheckError):
            amos.create_stored_function("f", ["ghost"], ["integer"])

    def test_set_on_derived_rejected(self, amos):
        amos.create_derived_function("d", ["item"], ["integer"], [])
        item = amos.create_object("item")
        with pytest.raises(AmosError):
            amos.set_value("d", (item,), 1)


class TestDerivedAndForeign:
    def test_derived_function(self, amos):
        clause = HornClause(
            PredLiteral("double_q", (X, Y)),
            [
                PredLiteral("quantity", (X, Variable("Q"))),
                # Y = Q * 2
            ],
        )
        # build with an assignment for the doubling
        from repro.objectlog.literals import Assignment
        from repro.objectlog.terms import Arith

        clause = HornClause(
            PredLiteral("double_q", (X, Y)),
            [
                PredLiteral("quantity", (X, Variable("Q"))),
                Assignment(Y, Arith("*", Variable("Q"), 2)),
            ],
        )
        amos.create_derived_function("double_q", ["item"], ["integer"], [clause])
        item = amos.create_object("item")
        amos.set_value("quantity", (item,), 21)
        assert amos.value("double_q", item) == 42

    def test_foreign_function(self, amos):
        amos.create_foreign_function(
            "square", ["integer"], ["integer"], lambda x: [(x * x,)]
        )
        assert amos.value("square", 7) == 49

    def test_unknown_function(self, amos):
        with pytest.raises(UnknownFunctionError):
            amos.function("ghost")
        with pytest.raises(UnknownFunctionError):
            amos.call_procedure("ghost", [])


class TestProcedures:
    def test_call_procedure(self, amos):
        calls = []
        amos.create_procedure("log", ("integer",), lambda x: calls.append(x))
        amos.call_procedure("log", [5])
        assert calls == [5]

    def test_procedure_arity_checked(self, amos):
        amos.create_procedure("log", ("integer",), lambda x: None)
        with pytest.raises(AmosError):
            amos.call_procedure("log", [1, 2])

    def test_duplicate_procedure_rejected(self, amos):
        amos.create_procedure("log", (), lambda: None)
        with pytest.raises(AmosError):
            amos.create_procedure("log", (), lambda: None)


class TestTransactions:
    def test_rollback_undoes_object_creation(self, amos):
        amos.begin()
        item = amos.create_object("item")
        amos.set_value("quantity", (item,), 5)
        amos.rollback()
        assert item not in amos.objects_of("item")
        assert amos.value("quantity", item) is None

    def test_transaction_context(self, amos):
        with amos.transaction():
            item = amos.create_object("item")
        assert item in amos.objects_of("item")
