"""Tokenizer for the mini-C source language.

The scanner is one compiled regular expression (``_SCANNER``) walked
with one ``finditer`` loop: every position matches some alternative,
so the matches tile the source and each one is a token (with the
blanks after it on its line), a run of blanks and comments, or an
error. Token kinds, text and line numbers are exact on non-ASCII input
too: the character tests are ``str.isdigit``, ``str.isalpha`` and
``str.isalnum``, as a character-by-character scanner would apply them.
The one case the pattern cannot express, a number running on through
a non-decimal digit such as ``²``, ends the loop at that number and
starts a new one after it.

``scan`` returns the tokens as three parallel lists (kinds, texts,
line numbers) ending in an ``eof`` token; the parser reads them by
index, so parsing allocates no object per token. ``tokenize`` returns
the same tokens as :class:`Token` tuples (a string literal's text
without its quotes).
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


# The whole scanner: one pattern whose matches tile the source. A
# match is a run of blanks and comments (``skip``), or one token with
# the spaces and tabs after it, so the blanks between two tokens on a
# line need no match of their own. In ``re``, ``\w`` is ``str.isalnum()`` plus ``_`` and ``\d`` is
# ``str.isdecimal()``. A number starts with an ``isdigit()`` character
# and continues through ``isdigit()`` characters and hex letters; an
# identifier starts with ``isalpha()`` or ``_`` and continues through
# ``\w``. ``\d`` misses the non-decimal digits (``²``), so ``tokenize``
# classifies a ``word`` by its first character and extends a ``num``
# over a following non-decimal digit.
_SCANNER = re.compile(
    r"""
    (?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)
  | (?:
        (?P<num>\d[\dxXa-fA-F]*)
      | (?P<word>\w+)
      | (?P<str>"[^"\n]*")
      | (?P<open_comment>/\*)
      | (?P<op>{ops})
      | (?P<open_str>")
      | (?P<other>.)
    )[ \t]*
    """.format(ops="|".join(re.escape(op) for op in OPERATORS)),
    re.DOTALL | re.VERBOSE,
)
_HEX_LETTERS = "xXabcdefABCDEF"


def scan(source: str) -> tuple[list[str], list[str], list[int]]:
    """The tokens of ``source`` as three parallel lists: kinds, texts
    and line numbers, ending in one ``eof`` token with text ``""``.

    A string literal's text keeps its quotes here, so a text names its
    kind wherever it is an operator or keyword: no other token can
    spell ``(``, ``+`` or ``while``. The parser relies on that.
    """
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    add_kind, add_text, add_line = kinds.append, texts.append, lines.append
    line = 1
    pos = 0
    while True:
        for m in _SCANNER.finditer(source, pos):
            kind = m.lastgroup
            if kind == "op":
                add_kind("op")
                add_text(m.group(kind))
            elif kind == "word":
                text = m.group(kind)
                ch = text[0]
                if ch.isalpha() or ch == "_":
                    add_kind("kw" if text in KEYWORDS else "ident")
                    add_text(text)
                elif ch.isdigit():  # a non-decimal digit such as '²'
                    pos = m.start()
                    break
                else:
                    raise LexError(f"line {line}: unexpected character {ch!r}")
            elif kind == "skip":
                line += m.group().count("\n")
                continue
            elif kind == "num":
                end = m.end(kind)
                if source[end : end + 1].isdigit():  # a non-decimal digit
                    pos = m.start()
                    break
                add_kind("num")
                add_text(m.group(kind))
            elif kind == "str":
                add_kind("str")
                add_text(m.group(kind))  # quotes kept: see ``scan``
            elif kind == "open_str":
                if source.find("\n", m.end(kind)) != -1:  # reached before any '"'
                    raise LexError(f"line {line}: newline in string literal")
                raise LexError(f"line {line}: unterminated string literal")
            elif kind == "open_comment":
                raise LexError(f"line {line}: unterminated block comment")
            else:
                raise LexError(f"line {line}: unexpected character {m.group(kind)!r}")
            add_line(line)
        else:
            add_kind("eof")
            add_text("")
            add_line(line)
            return kinds, texts, lines
        # A number that runs on through non-decimal digits: take it
        # whole and scan on after it.
        end = _number_end(source, pos)
        add_kind("num")
        add_text(source[pos:end])
        add_line(line)
        pos = end


def tokenize(source: str) -> list[Token]:
    """The tokens of ``source``, ending in one ``eof`` token."""
    kinds, texts, lines = scan(source)
    return [
        Token(kind, text[1:-1] if kind == "str" else text, line)
        for kind, text, line in zip(kinds, texts, lines)
    ]


def _number_end(source: str, pos: int) -> int:
    """End of the number continuing at ``pos``: ``isdigit()`` characters
    (non-decimal ones such as ``²`` included) and hex letters."""
    while pos < len(source) and (
        source[pos].isdigit() or source[pos] in _HEX_LETTERS
    ):
        pos += 1
    return pos
