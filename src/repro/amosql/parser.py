"""Recursive-descent parser for AMOSQL.

Parses the statement forms used throughout the paper (section 3.1) plus
a few conveniences::

    create type item [under thing];
    create function quantity(item) -> integer;
    create function threshold(item i) -> integer as
        select ... for each supplier s where supplies(s) = i;
    create rule monitor_items() as
        when for each item i where quantity(i) < threshold(i)
        do order(i, max_stock(i) - quantity(i));
    create item instances :item1, :item2;
    set quantity(:item1) = 5000;   add ... ;   remove ... ;
    select i for each item i where quantity(i) < 100;
    activate monitor_items();      deactivate monitor_items();
    begin; commit; rollback;
    order(:item1, 10);             -- bare procedure call

Rule extensions beyond the paper's surface syntax (the paper discusses
the semantics but shows no syntax): an optional ``strict`` / ``nervous``
marker and ``priority <n>`` before ``do``, and multiple comma-separated
actions after ``do``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.amosql import ast
from repro.amosql.lexer import Token, tokenize
from repro.errors import ParseError

__all__ = ["parse", "parse_statement", "Parser"]

_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">="})


class Parser:
    """One-pass recursive-descent parser over a token list."""

    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.position = 0

    # -- token helpers --------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        tokens = self.tokens
        index = self.position + offset
        return tokens[index] if index < len(tokens) else tokens[-1]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "EOF":
            self.position += 1
        return token

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self.peek()
        if not self.check(kind, value):
            wanted = value or kind
            raise ParseError(
                f"expected {wanted!r} but found {token.value!r} (line {token.line})"
            )
        return self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "IDENT":
            raise ParseError(
                f"expected identifier but found {token.value!r} (line {token.line})"
            )
        self.advance()
        return token.value

    # -- entry points -----------------------------------------------------------

    def parse_script(self) -> List[ast.Statement]:
        statements: List[ast.Statement] = []
        while not self.check("EOF"):
            statements.append(self.parse_statement())
            self.expect("SYMBOL", ";")
        return statements

    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.kind == "KEYWORD":
            handler = {
                "create": self._parse_create,
                "set": lambda: self._parse_update("set"),
                "add": lambda: self._parse_update("add"),
                "remove": lambda: self._parse_update("remove"),
                "select": self._parse_select_statement,
                "activate": lambda: self._parse_activation(True),
                "deactivate": lambda: self._parse_activation(False),
                "drop": self._parse_drop,
                "begin": self._parse_begin,
                "commit": self._parse_commit,
                "rollback": self._parse_rollback,
            }.get(token.value)
            if handler is None:
                raise ParseError(
                    f"unexpected keyword {token.value!r} (line {token.line})"
                )
            return handler()
        if token.kind == "IDENT":
            return ast.CallStatement(self._parse_procedure_call())
        raise ParseError(f"unexpected token {token.value!r} (line {token.line})")

    # -- create ... ---------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self.expect("KEYWORD", "create")
        if self.accept("KEYWORD", "type"):
            return self._parse_create_type()
        if self.accept("KEYWORD", "function"):
            return self._parse_create_function()
        if self.accept("KEYWORD", "rule"):
            return self._parse_create_rule()
        # create <type> instances :a, :b
        type_name = self.expect_ident()
        self.expect("KEYWORD", "instances")
        names = [self._expect_iface_name()]
        while self.accept("SYMBOL", ","):
            names.append(self._expect_iface_name())
        return ast.CreateInstances(type_name, tuple(names))

    def _expect_iface_name(self) -> str:
        token = self.peek()
        if token.kind != "IFACEVAR":
            raise ParseError(
                f"expected interface variable but found {token.value!r} "
                f"(line {token.line})"
            )
        self.advance()
        return token.value[1:]

    def _parse_create_type(self) -> ast.CreateType:
        name = self.expect_ident()
        under: Tuple[str, ...] = ()
        if self.accept("KEYWORD", "under"):
            supertypes = [self.expect_ident()]
            while self.accept("SYMBOL", ","):
                supertypes.append(self.expect_ident())
            under = tuple(supertypes)
        return ast.CreateType(name, under)

    def _parse_create_function(self) -> ast.CreateFunction:
        name = self.expect_ident()
        self.expect("SYMBOL", "(")
        params: List[ast.FunctionParam] = []
        if not self.check("SYMBOL", ")"):
            params.append(self._parse_function_param())
            while self.accept("SYMBOL", ","):
                params.append(self._parse_function_param())
        self.expect("SYMBOL", ")")
        self.expect("SYMBOL", "->")
        result_type = self.expect_ident()
        body = None
        if self.accept("KEYWORD", "as"):
            self.expect("KEYWORD", "select")
            body = self._parse_select_query()
        return ast.CreateFunction(name, tuple(params), result_type, body)

    def _parse_function_param(self) -> ast.FunctionParam:
        type_name = self.expect_ident()
        var_name = None
        if self.check("IDENT"):
            var_name = self.expect_ident()
        return ast.FunctionParam(type_name, var_name)

    def _parse_create_rule(self) -> ast.CreateRule:
        name = self.expect_ident()
        self.expect("SYMBOL", "(")
        params: List[ast.VarDecl] = []
        if not self.check("SYMBOL", ")"):
            params.append(self._parse_var_decl())
            while self.accept("SYMBOL", ","):
                params.append(self._parse_var_decl())
        self.expect("SYMBOL", ")")
        self.expect("KEYWORD", "as")
        events = None
        if self.accept("KEYWORD", "on"):
            names = [self.expect_ident()]
            while self.accept("SYMBOL", ","):
                names.append(self.expect_ident())
            events = tuple(names)
        self.expect("KEYWORD", "when")
        condition = self._parse_rule_condition()
        semantics = None
        priority = 0
        while True:
            if self.accept("KEYWORD", "strict"):
                semantics = "strict"
            elif self.accept("KEYWORD", "nervous"):
                semantics = "nervous"
            elif self.accept("KEYWORD", "priority"):
                token = self.expect("INT")
                priority = int(token.value)
            else:
                break
        self.expect("KEYWORD", "do")
        actions = [self._parse_rule_action()]
        while self.accept("SYMBOL", ","):
            actions.append(self._parse_rule_action())
        return ast.CreateRule(
            name, tuple(params), condition, tuple(actions), semantics,
            priority, events,
        )

    def _parse_var_decl(self) -> ast.VarDecl:
        type_name = self.expect_ident()
        var_name = self.expect_ident()
        return ast.VarDecl(type_name, var_name)

    def _parse_rule_condition(self) -> ast.RuleCondition:
        if self.accept("KEYWORD", "for"):
            self.expect("KEYWORD", "each")
            decls = [self._parse_var_decl()]
            while self.accept("SYMBOL", ","):
                decls.append(self._parse_var_decl())
            self.expect("KEYWORD", "where")
            pred = self._parse_pred()
            return ast.RuleCondition(tuple(decls), pred)
        return ast.RuleCondition((), self._parse_pred())

    def _parse_rule_action(self):
        token = self.peek()
        if token.kind == "KEYWORD" and token.value in ("set", "add", "remove"):
            kind = self.advance().value
            function = self.expect_ident()
            self.expect("SYMBOL", "(")
            args = self._parse_expr_list(")")
            self.expect("SYMBOL", ")")
            self.expect("SYMBOL", "=")
            value = self._parse_expr()
            return ast.UpdateAction(kind, function, tuple(args), value)
        return self._parse_procedure_call()

    def _parse_procedure_call(self) -> ast.ProcedureCall:
        name = self.expect_ident()
        self.expect("SYMBOL", "(")
        args = self._parse_expr_list(")")
        self.expect("SYMBOL", ")")
        return ast.ProcedureCall(name, tuple(args))

    # -- updates and queries -----------------------------------------------------------

    def _parse_update(self, kind: str) -> ast.UpdateStatement:
        self.expect("KEYWORD", kind)
        function = self.expect_ident()
        self.expect("SYMBOL", "(")
        args = self._parse_expr_list(")")
        self.expect("SYMBOL", ")")
        self.expect("SYMBOL", "=")
        value = self._parse_expr()
        return ast.UpdateStatement(kind, function, tuple(args), value)

    def _parse_select_statement(self) -> ast.SelectStatement:
        self.expect("KEYWORD", "select")
        return ast.SelectStatement(self._parse_select_query())

    def _parse_select_query(self) -> ast.SelectQuery:
        exprs = [self._parse_expr()]
        while self.accept("SYMBOL", ","):
            exprs.append(self._parse_expr())
        decls: List[ast.VarDecl] = []
        if self.accept("KEYWORD", "for"):
            self.expect("KEYWORD", "each")
            decls.append(self._parse_var_decl())
            while self.accept("SYMBOL", ","):
                decls.append(self._parse_var_decl())
        pred = None
        if self.accept("KEYWORD", "where"):
            pred = self._parse_pred()
        return ast.SelectQuery(tuple(exprs), tuple(decls), pred)

    def _parse_activation(self, activate: bool) -> ast.Statement:
        self.expect("KEYWORD", "activate" if activate else "deactivate")
        name = self.expect_ident()
        self.expect("SYMBOL", "(")
        args = self._parse_expr_list(")")
        self.expect("SYMBOL", ")")
        if activate:
            return ast.ActivateRule(name, tuple(args))
        return ast.DeactivateRule(name, tuple(args))

    def _parse_drop(self) -> ast.Statement:
        self.expect("KEYWORD", "drop")
        token = self.peek()
        if token.kind == "KEYWORD" and token.value in ("type", "function", "rule"):
            kind = self.advance().value
        else:
            raise ParseError(
                f"expected 'type', 'function' or 'rule' after drop, found "
                f"{token.value!r} (line {token.line})"
            )
        name = self.expect_ident()
        return ast.DropStatement(kind, name)

    def _parse_begin(self) -> ast.Statement:
        self.expect("KEYWORD", "begin")
        return ast.BeginTransaction()

    def _parse_commit(self) -> ast.Statement:
        self.expect("KEYWORD", "commit")
        return ast.CommitTransaction()

    def _parse_rollback(self) -> ast.Statement:
        self.expect("KEYWORD", "rollback")
        return ast.RollbackTransaction()

    # -- predicates ------------------------------------------------------------------------

    def _parse_pred(self) -> ast.Pred:
        return self._parse_or()

    def _parse_or(self) -> ast.Pred:
        left = self._parse_and()
        while self.accept("KEYWORD", "or"):
            left = ast.Or(left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Pred:
        left = self._parse_not()
        while self.accept("KEYWORD", "and"):
            left = ast.And(left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Pred:
        if self.accept("KEYWORD", "not"):
            return ast.Not(self._parse_not())
        return self._parse_atom_pred()

    def _parse_atom_pred(self) -> ast.Pred:
        # parenthesized predicate vs parenthesized expression: try predicate
        if self.check("SYMBOL", "("):
            saved = self.position
            self.advance()
            try:
                inner = self._parse_pred()
                self.expect("SYMBOL", ")")
                if self.peek().value not in _COMPARISONS:
                    return inner
            except ParseError:
                pass
            self.position = saved
        left = self._parse_expr()
        token = self.peek()
        if token.kind == "SYMBOL" and token.value in _COMPARISONS:
            op = self.advance().value
            right = self._parse_expr()
            return ast.Cmp(op, left, right)
        if isinstance(left, ast.FunCall):
            return ast.BoolAtom(left)
        raise ParseError(
            f"expected comparison or boolean function call near "
            f"{token.value!r} (line {token.line})"
        )

    # -- expressions -------------------------------------------------------------------------

    def _parse_expr_list(self, closer: str) -> List[ast.Expr]:
        if self.check("SYMBOL", closer):
            return []
        exprs = [self._parse_expr()]
        while self.accept("SYMBOL", ","):
            exprs.append(self._parse_expr())
        return exprs

    def _parse_expr(self) -> ast.Expr:
        left = self._parse_term()
        while self.check("SYMBOL", "+") or self.check("SYMBOL", "-"):
            op = self.advance().value
            left = ast.BinOp(op, left, self._parse_term())
        return left

    def _parse_term(self) -> ast.Expr:
        left = self._parse_factor()
        while self.check("SYMBOL", "*") or self.check("SYMBOL", "/"):
            op = self.advance().value
            left = ast.BinOp(op, left, self._parse_factor())
        return left

    def _parse_factor(self) -> ast.Expr:
        token = self.peek()
        if self.accept("SYMBOL", "-"):
            return ast.UnaryMinus(self._parse_factor())
        if self.accept("SYMBOL", "("):
            expr = self._parse_expr()
            self.expect("SYMBOL", ")")
            return expr
        if token.kind == "INT":
            self.advance()
            return ast.NumberLit(int(token.value))
        if token.kind == "FLOAT":
            self.advance()
            return ast.NumberLit(float(token.value))
        if token.kind == "STRING":
            self.advance()
            return ast.StringLit(token.value)
        if token.kind == "IFACEVAR":
            self.advance()
            return ast.IfaceVar(token.value[1:])
        if token.kind == "KEYWORD" and token.value in ("true", "false"):
            self.advance()
            return ast.BoolLit(token.value == "true")
        if token.kind == "IDENT":
            name = self.advance().value
            if self.accept("SYMBOL", "("):
                args = self._parse_expr_list(")")
                self.expect("SYMBOL", ")")
                return ast.FunCall(name, tuple(args))
            return ast.VarRef(name)
        raise ParseError(
            f"unexpected token {token.value!r} in expression (line {token.line})"
        )


def parse(text: str) -> List[ast.Statement]:
    """Parse a whole AMOSQL script (statements terminated by ``;``)."""
    return Parser(text).parse_script()


def parse_statement(text: str) -> ast.Statement:
    """Parse exactly one statement (trailing ``;`` optional)."""
    parser = Parser(text)
    statement = parser.parse_statement()
    parser.accept("SYMBOL", ";")
    if not parser.check("EOF"):
        token = parser.peek()
        raise ParseError(
            f"trailing input after statement: {token.value!r} (line {token.line})"
        )
    return statement
