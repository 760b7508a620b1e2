"""Tokenizer for the mini-C source language.

The scanner is one compiled regular expression (``_SCANNER``) matched
once per token. Token kinds, text and line numbers are exact on
non-ASCII input too: the character tests are ``str.isdigit``,
``str.isalpha`` and ``str.isalnum``, as a character-by-character
scanner would apply them.
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = {
    "global",
    "int",
    "fn",
    "local",
    "if",
    "else",
    "while",
    "for",
    "return",
    "thread",
    "fence",
    "cfence",
    "cas",
    "xchg",
    "fadd",
    "atomic_load",
    "atomic_store",
    "observe",
    "break",
    "continue",
}

# Longest-match first.
OPERATORS = [
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "&",
    "|",
    "^",
    "!",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
]


class Token(NamedTuple):
    kind: str  # "num", "ident", "kw", "op", "str", "eof"
    text: str
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


class LexError(Exception):
    """Raised on an unrecognized character."""


# The whole scanner: one pattern, matched at each token start. In
# ``re``, ``\w`` is ``str.isalnum()`` plus ``_`` and ``\d`` is
# ``str.isdecimal()``. A number starts with an ``isdigit()`` character
# and continues through ``isdigit()`` characters and hex letters; an
# identifier starts with ``isalpha()`` or ``_`` and continues through
# ``\w``. ``\d`` misses the non-decimal digits (``²``), so ``tokenize``
# classifies a ``word`` by its first character and extends a ``num``
# over a following non-decimal digit.
_SCANNER = re.compile(
    r"""
    (?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)
  | (?P<num>\d[\dxXa-fA-F]*)
  | (?P<word>\w+)
  | (?P<str>"[^"\n]*")
  | (?P<open_comment>/\*)
  | (?P<op>{ops})
  | (?P<open_str>")
  | (?P<other>.)
    """.format(ops="|".join(re.escape(op) for op in OPERATORS)),
    re.DOTALL | re.VERBOSE,
)
_HEX_LETTERS = "xXabcdefABCDEF"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    scan = _SCANNER.match
    line = 1
    pos = 0
    n = len(source)
    while pos < n:
        m = scan(source, pos)
        kind = m.lastgroup
        pos = m.end()
        if kind == "skip":
            line += m.group().count("\n")
        elif kind == "word":
            text = m.group()
            ch = text[0]
            if ch.isalpha() or ch == "_":
                append(Token("kw" if text in KEYWORDS else "ident", text, line))
            elif ch.isdigit():  # a non-decimal digit such as '²'
                pos = _number_end(source, m.start())
                append(Token("num", source[m.start() : pos], line))
            else:
                raise LexError(f"line {line}: unexpected character {ch!r}")
        elif kind == "op":
            append(Token("op", m.group(), line))
        elif kind == "num":
            if source[pos : pos + 1].isdigit():  # a non-decimal digit
                pos = _number_end(source, pos)
            append(Token("num", source[m.start() : pos], line))
        elif kind == "str":
            append(Token("str", m.group()[1:-1], line))
        elif kind == "open_str":
            if source.find("\n", pos) != -1:  # reached before any '"'
                raise LexError(f"line {line}: newline in string literal")
            raise LexError(f"line {line}: unterminated string literal")
        elif kind == "open_comment":
            raise LexError(f"line {line}: unterminated block comment")
        else:
            raise LexError(f"line {line}: unexpected character {m.group()!r}")
    append(Token("eof", "", line))
    return tokens


def _number_end(source: str, pos: int) -> int:
    """End of the number continuing at ``pos``: ``isdigit()`` characters
    (non-decimal ones such as ``²`` included) and hex letters."""
    while pos < len(source) and (
        source[pos].isdigit() or source[pos] in _HEX_LETTERS
    ):
        pos += 1
    return pos
