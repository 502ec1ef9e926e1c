"""ObjectLog: typed Datalog with builtins (the paper's section 3.2 substrate)."""

from repro.objectlog.clause import HornClause
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.expand import expand_clause, expand_predicate, substitute_literal
from repro.objectlog.literals import Assignment, Comparison, Literal, PredLiteral
from repro.objectlog.program import (
    BasePredicate,
    DerivedPredicate,
    ForeignPredicate,
    Program,
    ProgramOverlay,
)
from repro.objectlog.terms import (
    Arith,
    Variable,
    eval_expr,
    expr_variables,
    fresh_variable,
    is_variable,
)

__all__ = [
    "HornClause",
    "Evaluator",
    "expand_clause",
    "expand_predicate",
    "substitute_literal",
    "Assignment",
    "Comparison",
    "Literal",
    "PredLiteral",
    "BasePredicate",
    "DerivedPredicate",
    "ForeignPredicate",
    "Program",
    "ProgramOverlay",
    "Arith",
    "Variable",
    "eval_expr",
    "expr_variables",
    "fresh_variable",
    "is_variable",
]
