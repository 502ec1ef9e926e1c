"""Tests for ObjectLog terms and arithmetic expressions."""

import pytest

from repro.errors import ObjectLogError
from repro.objectlog.terms import (
    Arith,
    Variable,
    eval_expr,
    expr_variables,
    fresh_variable,
    is_variable,
    rename_expr,
)

X = Variable("X")
Y = Variable("Y")


class TestVariable:
    def test_identity_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")
        assert hash(Variable("X")) == hash(Variable("X"))

    def test_fresh_variables_are_distinct(self):
        assert fresh_variable() != fresh_variable()

    def test_is_variable(self):
        assert is_variable(X)
        assert not is_variable(3)
        assert not is_variable("X")


class TestArith:
    def test_evaluate(self):
        expr = Arith("+", Arith("*", X, 3), Y)
        assert expr.evaluate({X: 2, Y: 4}) == 10

    def test_all_operators(self):
        env = {X: 7, Y: 2}
        assert Arith("-", X, Y).evaluate(env) == 5
        assert Arith("/", X, Y).evaluate(env) == 3.5
        assert Arith("//", X, Y).evaluate(env) == 3
        assert Arith("%", X, Y).evaluate(env) == 1

    def test_unknown_operator_rejected(self):
        with pytest.raises(ObjectLogError):
            Arith("**", X, Y)

    def test_variables(self):
        expr = Arith("+", Arith("*", X, 3), Y)
        assert expr.variables() == {X, Y}
        assert expr_variables(5) == frozenset()
        assert expr_variables(X) == {X}

    def test_eval_expr_unbound_raises(self):
        with pytest.raises(ObjectLogError):
            eval_expr(X, {})

    def test_eval_expr_constants_and_vars(self):
        assert eval_expr(5, {}) == 5
        assert eval_expr(X, {X: 3}) == 3

    def test_rename(self):
        renamed = rename_expr(Arith("+", X, Y), {X: Variable("Z")})
        assert renamed.variables() == {Variable("Z"), Y}

    def test_equality_and_hash(self):
        assert Arith("+", X, 1) == Arith("+", X, 1)
        assert Arith("+", X, 1) != Arith("-", X, 1)
        assert hash(Arith("+", X, 1)) == hash(Arith("+", X, 1))
