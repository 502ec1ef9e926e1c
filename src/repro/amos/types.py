"""The type system of the functional data model.

Types are classes in the Iris/Daplex sense: every object belongs to one
or more types.  Each user type has an *extent* — a unary base relation
holding the OIDs of its instances — which is what ``for each item i``
iterates over.  Literal types (integer, real, charstring, boolean)
have no extent; values of those types are plain Python values.

Subtyping: ``create type manager under person`` makes every manager
instance also a member of the person extent (instances are inserted
into all supertype extents, so supertype queries see subtype objects).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.amos.oid import OID
from repro.errors import TypeCheckError, UnknownTypeError

#: literal (extent-less) types and their Python representations
LITERAL_TYPES: Dict[str, tuple] = {
    "integer": (int,),
    "real": (int, float),
    "charstring": (str,),
    "boolean": (bool,),
    "object": (object,),
}


class TypeDef:
    """A user-defined type with an extent relation of the same name."""

    __slots__ = ("name", "supertypes")

    def __init__(self, name: str, supertypes: Tuple[str, ...] = ()) -> None:
        self.name = name
        self.supertypes = tuple(supertypes)

    def __repr__(self) -> str:
        under = f" under {', '.join(self.supertypes)}" if self.supertypes else ""
        return f"TypeDef({self.name!r}{under})"


class TypeSystem:
    """Registry of user types plus the built-in literal types."""

    def __init__(self) -> None:
        self._types: Dict[str, TypeDef] = {}
        #: supertype closure per type, computed on first use; a type's
        #: supertypes are fixed at creation, so only drop invalidates
        self._closures: Dict[str, FrozenSet[str]] = {}

    def create(self, name: str, under: Tuple[str, ...] = ()) -> TypeDef:
        if self.exists(name):
            raise TypeCheckError(f"type {name!r} already exists")
        for supertype in under:
            if supertype not in self._types:
                raise UnknownTypeError(supertype)
        type_def = TypeDef(name, tuple(under))
        self._types[name] = type_def
        return type_def

    def drop(self, name: str) -> None:
        """Remove a user type; rejected while subtypes reference it."""
        self.get(name)  # existence check
        for other, type_def in self._types.items():
            if name in type_def.supertypes:
                raise TypeCheckError(
                    f"cannot drop type {name!r}: {other!r} is a subtype"
                )
        del self._types[name]
        self._closures.pop(name, None)

    def get(self, name: str) -> TypeDef:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownTypeError(name) from None

    def exists(self, name: str) -> bool:
        return name in self._types or name in LITERAL_TYPES

    def is_literal(self, name: str) -> bool:
        return name in LITERAL_TYPES

    def is_user_type(self, name: str) -> bool:
        return name in self._types

    def user_types(self) -> List[str]:
        return sorted(self._types)

    def supertype_closure(self, name: str) -> FrozenSet[str]:
        """All supertypes of ``name``, including itself."""
        closure = self._closures.get(name)
        if closure is not None:
            return closure
        out = {name}
        stack = [name]
        while stack:
            for supertype in self.get(stack.pop()).supertypes:
                if supertype not in out:
                    out.add(supertype)
                    stack.append(supertype)
        closure = self._closures[name] = frozenset(out)
        return closure

    def is_subtype(self, name: str, ancestor: str) -> bool:
        return ancestor in self.supertype_closure(name)

    def checker(self, type_name: str) -> Callable[[object], None]:
        """:meth:`check_value` for one type, resolved once.

        The returned callable accepts the common exact types (``int``
        for integer, an :class:`OID` of the type or a subtype, ...)
        without further lookups and hands everything else to
        :meth:`check_value`, so it raises exactly what that raises.
        """
        check_value = self.check_value
        if type_name == "object":
            return lambda value: None
        if type_name in LITERAL_TYPES:
            exact = LITERAL_TYPES[type_name]

            def check_literal(value: object) -> None:
                if type(value) not in exact:
                    check_value(type_name, value)

            return check_literal
        self.get(type_name)  # existence check
        is_subtype = self.is_subtype

        def check_object(value: object) -> None:
            if type(value) is not OID or not is_subtype(value.type_name, type_name):
                check_value(type_name, value)

        return check_object

    def check_value(self, type_name: str, value: object) -> None:
        """Raise :class:`TypeCheckError` unless ``value`` fits ``type_name``."""
        if type_name in LITERAL_TYPES:
            if type_name == "object":
                return
            expected = LITERAL_TYPES[type_name]
            # bool is an int subclass; don't let booleans pass as integers
            if type_name in ("integer", "real") and isinstance(value, bool):
                raise TypeCheckError(
                    f"expected {type_name}, got boolean {value!r}"
                )
            if not isinstance(value, expected):
                raise TypeCheckError(
                    f"expected {type_name}, got {type(value).__name__} {value!r}"
                )
            return
        type_def = self.get(type_name)
        if not isinstance(value, OID):
            raise TypeCheckError(
                f"expected an object of type {type_name!r}, got "
                f"{type(value).__name__} {value!r}"
            )
        if not self.is_subtype(value.type_name, type_def.name):
            raise TypeCheckError(
                f"object {value!r} is not of type {type_name!r}"
            )
