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

``rescan`` gives the same lists as :class:`Tokens`, with each token's
start offset. Given an earlier source's tokens, it lexes only the
edited span: from the last old token before the first changed
character to the first new token that starts in the unchanged suffix
where an old token started; the old tokens after it are reused,
shifted. That is exact because a match depends only on the text from
its start onward. It reports that span as a :class:`Window`, from which
the parser re-cuts only the items the edit touched
(``Parser.cut``). A wire edit's splice (``Session._adopt_source``)
rescans from the tokens of the previous one; a program's first splice
has none and scans in full.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from sys import intern, maxsize
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


class Tokens(NamedTuple):
    """A source's tokens as :func:`rescan` keeps them for the next
    edit: ``scan``'s three lists plus each token's start offset (the
    ``eof`` token's is ``len(source)``)."""

    source: str
    kinds: list[str]
    texts: list[str]
    lines: list[int]
    starts: array | None  # None: not kept (``scan``)


class Window(NamedTuple):
    """The tokens a :func:`rescan` lexed: new tokens ``start:stop``
    stand where old tokens ``start:old_stop`` stood. The new tokens
    before ``start`` are the old ones; those from ``stop`` on are the old
    ones from ``old_stop`` on, ``lines`` lines further down. Where the
    edit repeats the text around it, ``old_stop`` can fall below
    ``start``: old tokens there are reused on both sides."""

    start: int
    stop: int
    old_stop: int
    lines: int

    @property
    def relexed(self) -> int:
        return self.stop - self.start


def scan(source: str) -> tuple[list[str], list[str], list[int]]:
    """The tokens of ``source`` as three parallel lists: kinds, texts
    and line numbers, ending in one ``eof`` token with text ``""``.

    A string literal's text keeps its quotes here, so a text names its
    kind wherever it is an operator or keyword: no other token can
    spell ``(``, ``+`` or ``while``. The parser relies on that.
    """
    tokens = Tokens(source, [], [], [], None)
    _lex(tokens, 0, 1)
    return tokens.kinds, tokens.texts, tokens.lines


def rescan(source: str, old: Tokens | None = None) -> tuple[Tokens, Window]:
    """The tokens of ``source`` (``scan``'s, with their starts) and the
    window of them that was lexed; the tokens of an earlier source
    ``old`` are reused outside it. Without ``old`` the window is every
    token.

    The scan resumes at the last old token that starts before the
    first changed character, on that token's line. It stops after the
    first token it lexes that starts in the unchanged suffix at an old
    token's start, shifted by the length difference, and appends the
    old tokens after that one with their lines and starts shifted.

    Both ends are exact because a match of ``_SCANNER`` depends only on
    the text from its start onward. Every old match before the resume
    point is decided by unchanged text, so the new scan makes it too.
    (A blank-and-comment run can reach past the resume point if the
    edit opens a comment right after it; it yields no token, so
    matching that comment on its own changes no token or line.) From
    the stop token on, the text is the old text from an old token
    start, where the old scan matched too.
    """
    if old is None:
        tokens = Tokens(source, [], [], [], array("l"))
        keep, taken = 0, _lex(tokens, 0, 1)
        old_stop = lines = 0
    else:
        same_head = _common_length(source, old.source, False)
        same_tail = _common_length(source, old.source, True)
        # The last old token starting before the first changed character.
        keep = bisect_left(old.starts, same_head) - 1
        if keep < 0:
            keep, pos, line = 0, 0, 1
        else:
            pos, line = old.starts[keep], old.lines[keep]
        tokens = Tokens(
            source, old.kinds[:keep], old.texts[:keep], old.lines[:keep], old.starts[:keep]
        )
        taken = _lex(tokens, pos, line, old, len(source) - same_tail)
        old_stop = len(old.texts) - taken
        lines = tokens.lines[-1] - old.lines[-1] if taken else 0
    lexed = slice(keep, len(tokens.texts) - taken)
    # One string per distinct text across every source's kept tokens.
    tokens.texts[lexed] = map(intern, tokens.texts[lexed])
    return tokens, Window(keep, lexed.stop, old_stop, lines)


def _common_length(a: str, b: str, tail: bool) -> int:
    """Length of the longest common prefix (``tail``: suffix) of ``a``
    and ``b``, by bisection over slice comparisons."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        same = a.endswith(b[len(b) - mid :]) if tail else a.startswith(b[:mid])
        if same:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _lex(
    tokens: Tokens, pos: int, line: int, old: Tokens | None = None, stop_from: int = maxsize
) -> int:
    """Append the tokens of ``tokens.source`` from ``pos`` (on line
    ``line``) to ``tokens``, ending in ``eof``; the number of them taken
    from ``old``.

    With ``tokens.starts`` (not ``None``), each token's start is
    appended there too. The scan stops after a token that
    starts at or after ``stop_from``, where the source ends as
    ``old.source`` does, at an old token's start shifted by the
    length difference; the old tokens after it are appended, shifted.
    """
    source, kinds, texts, lines, starts = tokens
    add_kind, add_text, add_line = kinds.append, texts.append, lines.append
    track = starts is not None
    if track:
        add_start = starts.append
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
            if track:
                start = m.start()
                add_start(start)
                if start >= stop_from:
                    shift = len(source) - len(old.source)
                    at = bisect_left(old.starts, start - shift)
                    if old.starts[at] == start - shift:
                        return _append_shifted(
                            tokens, old, at + 1, line - old.lines[at], shift
                        )
        else:
            add_kind("eof")
            add_text("")
            add_line(line)
            if track:
                add_start(len(source))
            return 0
        # A number that runs on through non-decimal digits: take it
        # whole and scan on after it.
        end = _number_end(source, pos)
        add_kind("num")
        add_text(source[pos:end])
        add_line(line)
        if track:
            add_start(pos)
        pos = end


def _append_shifted(
    tokens: Tokens, old: Tokens, at: int, line_shift: int, shift: int
) -> int:
    """Append ``old``'s tokens from ``at`` on to ``tokens``, their lines
    moved by ``line_shift`` and their starts by ``shift``; their number."""
    _, kinds, texts, lines, starts = tokens
    kinds += old.kinds[at:]
    texts += old.texts[at:]
    lines += map(line_shift.__add__, old.lines[at:]) if line_shift else old.lines[at:]
    starts += array("l", map(shift.__add__, old.starts[at:])) if shift else old.starts[at:]
    return len(old.kinds) - at


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
