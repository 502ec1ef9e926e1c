"""Tests for the predicate catalog and dependency analysis."""

import pytest

from repro.errors import (
    DuplicateRelationError,
    ObjectLogError,
    RecursionNotSupportedError,
    UnknownPredicateError,
)
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def clause(head, *body):
    return HornClause(head, list(body))


@pytest.fixture
def program():
    p = Program()
    p.declare_base("q", 2)
    p.declare_base("r", 2)
    return p


class TestDeclaration:
    def test_kinds(self, program):
        program.declare_derived("p", 2)
        program.declare_foreign("f", 2, 1, lambda x: [(x,)])
        assert program.predicate("q").kind == "base"
        assert program.predicate("p").kind == "derived"
        assert program.predicate("f").kind == "foreign"

    def test_duplicate_rejected(self, program):
        with pytest.raises(DuplicateRelationError):
            program.declare_base("q", 2)

    def test_unknown_rejected(self, program):
        with pytest.raises(UnknownPredicateError):
            program.predicate("nope")

    def test_foreign_n_in_validated(self, program):
        with pytest.raises(ObjectLogError):
            program.declare_foreign("g", 2, 3, lambda: None)

    def test_clause_head_must_match(self, program):
        program.declare_derived("p", 2)
        with pytest.raises(ObjectLogError):
            program.add_clause(clause(PredLiteral("other", (X, Y)),
                                      PredLiteral("q", (X, Y))))
        with pytest.raises(ObjectLogError):
            program.add_clause(clause(PredLiteral("p", (X,)),
                                      PredLiteral("q", (X, X))))

    def test_clause_on_base_rejected(self, program):
        with pytest.raises(ObjectLogError):
            program.add_clause(clause(PredLiteral("q", (X, Y)),
                                      PredLiteral("r", (X, Y))))

    def test_drop(self, program):
        program.declare_derived("p", 1)
        program.drop("p")
        assert not program.has("p")
        with pytest.raises(UnknownPredicateError):
            program.drop("p")


class TestDependencies:
    def _chain(self, program):
        """p <- mid & r;  mid <- q"""
        program.declare_derived("mid", 2)
        program.add_clause(clause(PredLiteral("mid", (X, Y)),
                                  PredLiteral("q", (X, Y))))
        program.declare_derived("p", 2)
        program.add_clause(clause(PredLiteral("p", (X, Z)),
                                  PredLiteral("mid", (X, Y)),
                                  PredLiteral("r", (Y, Z))))

    def test_direct_influents(self, program):
        self._chain(program)
        assert program.direct_influents("p") == {"mid", "r"}
        assert program.direct_influents("mid") == {"q"}
        assert program.direct_influents("q") == frozenset()

    def test_influent_closure_is_transitive(self, program):
        self._chain(program)
        assert program.influent_closure("p") == {"mid", "r", "q"}

    def test_base_influents(self, program):
        self._chain(program)
        assert program.base_influents("p") == {"q", "r"}

    def test_closure_through_negation(self, program):
        program.declare_derived("aux", 1)
        program.add_clause(clause(PredLiteral("aux", (X,)),
                                  PredLiteral("q", (X, X))))
        program.declare_derived("p", 2)
        program.add_clause(clause(PredLiteral("p", (X, Y)),
                                  PredLiteral("r", (X, Y)),
                                  PredLiteral("aux", (X,), negated=True)))
        assert program.base_influents("p") == {"q", "r"}
        assert program.negated_references("p") == {"aux"}

    def test_diamond_dependency_fully_explored(self, program):
        """a -> b, a -> c, b -> q, c -> r: both bases must be found."""
        program.declare_derived("b", 2)
        program.add_clause(clause(PredLiteral("b", (X, Y)), PredLiteral("q", (X, Y))))
        program.declare_derived("c", 2)
        program.add_clause(clause(PredLiteral("c", (X, Y)), PredLiteral("r", (X, Y))))
        program.declare_derived("a", 2)
        program.add_clause(clause(PredLiteral("a", (X, Y)),
                                  PredLiteral("b", (X, Y)),
                                  PredLiteral("c", (X, Y))))
        assert program.base_influents("a") == {"q", "r"}

    def test_levels(self, program):
        """Levels live on the propagation network's nodes: longest path
        from a base relation (level 0)."""
        from repro.rules.network import PropagationNetwork

        self._chain(program)
        network = PropagationNetwork(program)
        network.add_condition("p", keep=frozenset({"mid"}))
        assert network.node("q").level == 0
        assert network.node("mid").level == 1
        assert network.node("p").level == 2

    def test_recursion_detected_in_closure(self, program):
        program.declare_derived("p", 2)
        program.add_clause(clause(PredLiteral("p", (X, Z)),
                                  PredLiteral("q", (X, Y)),
                                  PredLiteral("p", (Y, Z))))
        with pytest.raises(RecursionNotSupportedError):
            program.influent_closure("p")

    def test_mutual_recursion_detected(self, program):
        program.declare_derived("a", 1)
        program.declare_derived("b", 1)
        program.add_clause(clause(PredLiteral("a", (X,)), PredLiteral("b", (X,))))
        program.add_clause(clause(PredLiteral("b", (X,)), PredLiteral("a", (X,))))
        with pytest.raises(RecursionNotSupportedError):
            program.influent_closure("a")
