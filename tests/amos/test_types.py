"""Tests for the type system and OIDs."""

import pickle

import pytest

from repro.amos.oid import OID
from repro.amos.types import LITERAL_TYPES, TypeSystem
from repro.errors import TypeCheckError, UnknownTypeError


@pytest.fixture
def types():
    system = TypeSystem()
    system.create("person")
    system.create("employee", under=("person",))
    system.create("manager", under=("employee",))
    return system


class TestOID:
    def test_identity(self):
        assert OID(1, "item") == OID(1, "item")
        assert OID(1, "item") != OID(2, "item")
        # interned: one instance per (type name, id); the type name is
        # part of the identity
        assert OID(1, "item") is OID(1, "item")
        assert OID(1, "item") != OID(1, "other")
        assert hash(OID(1, "item")) == hash(OID(1, "item"))

    def test_ordering(self):
        assert OID(1, "item") < OID(2, "item")
        assert sorted([OID(3, "a"), OID(1, "a")])[0].id == 1

    def test_immutable(self):
        oid = OID(1, "item")
        with pytest.raises(AttributeError):
            oid.id = 5

    def test_repr(self):
        assert repr(OID(7, "item")) == "#[item 7]"

    def test_oid_roundtrip(self):
        # regression: the frozen __setattr__ broke pickle's slot restore
        oid = OID(7, "item")
        clone = pickle.loads(pickle.dumps(oid))
        assert clone == oid and clone.type_name == "item"


class TestTypeSystem:
    def test_create_and_exists(self, types):
        assert types.exists("person")
        assert types.exists("integer")  # literal type
        assert not types.exists("ghost")
        assert types.is_user_type("person")
        assert not types.is_user_type("integer")
        assert types.is_literal("charstring")

    def test_duplicate_rejected(self, types):
        with pytest.raises(TypeCheckError):
            types.create("person")

    def test_unknown_supertype_rejected(self, types):
        with pytest.raises(UnknownTypeError):
            types.create("alien", under=("ghost",))

    def test_supertype_closure(self, types):
        assert types.supertype_closure("manager") == {
            "manager",
            "employee",
            "person",
        }
        assert types.supertype_closure("person") == {"person"}

    def test_subtyping(self, types):
        assert types.is_subtype("manager", "person")
        assert types.is_subtype("person", "person")
        assert not types.is_subtype("person", "manager")

    def test_user_types_sorted(self, types):
        assert types.user_types() == ["employee", "manager", "person"]


class TestValueChecking:
    def test_literal_types(self, types):
        types.check_value("integer", 5)
        types.check_value("real", 2.5)
        types.check_value("real", 3)  # ints are reals
        types.check_value("charstring", "hello")
        types.check_value("boolean", True)
        types.check_value("object", object())

    def test_boolean_is_not_integer(self, types):
        with pytest.raises(TypeCheckError):
            types.check_value("integer", True)
        with pytest.raises(TypeCheckError):
            types.check_value("real", False)

    def test_wrong_literal_rejected(self, types):
        with pytest.raises(TypeCheckError):
            types.check_value("integer", "five")
        with pytest.raises(TypeCheckError):
            types.check_value("charstring", 5)

    def test_object_types_accept_subtypes(self, types):
        types.check_value("person", OID(1, "manager"))
        types.check_value("manager", OID(1, "manager"))

    def test_object_types_reject_supertypes_and_plain_values(self, types):
        with pytest.raises(TypeCheckError):
            types.check_value("manager", OID(1, "person"))
        with pytest.raises(TypeCheckError):
            types.check_value("person", 42)

    def test_literal_types_table(self):
        assert set(LITERAL_TYPES) == {
            "integer",
            "real",
            "charstring",
            "boolean",
            "object",
        }
