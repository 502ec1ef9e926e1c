"""AMOSQL front end: lexer, parser, compiler, interpreter."""

from repro.amosql.compiler import CompiledQuery, QueryCompiler
from repro.amosql.interpreter import AmosqlEngine
from repro.amosql.lexer import Token, tokenize
from repro.amosql.parser import Parser, parse, parse_statement
from repro.amosql.repl import Repl

__all__ = [
    "CompiledQuery",
    "QueryCompiler",
    "AmosqlEngine",
    "Token",
    "tokenize",
    "Parser",
    "parse",
    "parse_statement",
    "Repl",
]
