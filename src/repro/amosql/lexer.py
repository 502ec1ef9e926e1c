"""Tokenizer for AMOSQL.

AMOSQL (a derivative of OSQL, section 3) is tokenized into a flat list
of :class:`Token` objects.  Keywords are case-insensitive; identifiers
keep their case.  Interface variables (``:item1``) are first-class
tokens since they appear throughout the paper's examples.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import LexError

KEYWORDS = frozenset(
    {
        "create",
        "type",
        "under",
        "function",
        "rule",
        "instances",
        "as",
        "select",
        "for",
        "each",
        "where",
        "when",
        "do",
        "set",
        "add",
        "remove",
        "activate",
        "deactivate",
        "drop",
        "and",
        "or",
        "not",
        "on",
        "begin",
        "commit",
        "rollback",
        "true",
        "false",
        "priority",
        "nervous",
        "strict",
    }
)

_TOKEN_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"/\*.*?\*/|--[^\n]*"),
    ("FLOAT", r"\d+\.\d+"),
    ("INT", r"\d+"),
    ("STRING", r"'(?:[^'\\]|\\.)*'"),
    ("ARROW", r"->"),
    ("LE", r"<="),
    ("GE", r">="),
    ("NE", r"!=|<>"),
    ("IFACEVAR", r":[A-Za-z_][A-Za-z_0-9]*"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("SYMBOL", r"[()<>=+\-*/,;.]"),
]

_MASTER = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC), re.DOTALL
)


class Token(NamedTuple):
    """One lexical token."""

    kind: str  # KEYWORD | IDENT | INT | FLOAT | STRING | IFACEVAR | SYMBOL | EOF
    value: str
    position: int
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`LexError` on illegal input."""
    tokens: List[Token] = []
    position = 0
    line = 1
    length = len(text)
    while position < length:
        match = _MASTER.match(text, position)
        if match is None:
            raise LexError(f"illegal character {text[position]!r}", position, line)
        kind = match.lastgroup
        value = match.group()
        if kind in ("WS", "COMMENT"):
            line += value.count("\n")
            position = match.end()
            continue
        if kind == "IDENT" and value.lower() in KEYWORDS:
            tokens.append(Token("KEYWORD", value.lower(), position, line))
        elif kind in ("ARROW", "LE", "GE", "NE"):
            canonical = {"<>": "!="}.get(value, value)
            tokens.append(Token("SYMBOL", canonical, position, line))
        elif kind == "STRING":
            inner = value[1:-1].replace("\\'", "'").replace("\\\\", "\\")
            tokens.append(Token("STRING", inner, position, line))
        else:
            tokens.append(Token(kind, value, position, line))
        line += value.count("\n")
        position = match.end()
    tokens.append(Token("EOF", "", position, line))
    return tokens
