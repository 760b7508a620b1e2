"""The incremental item cut equals the full cut.

``Parser.cut`` given the previous cut and a rescan's window re-cuts
only the items overlapping the window and reuses the others, moved.
These tests chain edits (item keywords inserted, deleted and replaced,
functions split and merged, edits at token 0, to ``eof`` and inside
comments and strings) and compare, after every step, that cut with a
full cut of the same tokens, field for field.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.lexer import LexError, rescan
from repro.frontend.parser import ParseError, Parser
from repro.memmodel.litmus import LITMUS_TESTS
from repro.programs import get_program
from tests.conftest import MP_SOURCE

_BASES = [
    MP_SOURCE,
    LITMUS_TESTS["dekker"].source,
    get_program("lu-con").source,
    'global int x = 0x1F; // fn in a comment\n/* global\n block */ fn f(t) {\n'
    '  local y = 3;\n  observe("fn thread global", x + y);\n}\n'
    'global int z;\nfn g(a, b) { f(a); }\nthread f(0);\nthread g(1, 2);\n',
]
_KEYWORDS = ("fn", "global", "thread")
#: Whole items and bare keywords to insert.
_INSERTS = [
    "fn ", "global ", "thread ", "fn zq(a) { }\n", "global int zq;\n",
    "thread zq(1);\n", "global int zr[2] = {1, 2};\n", "} fn zq_split(t) { ",
    "/* fn */", '"thread"', "// global\n", "\n", ";", "x",
]
_REPLACEMENTS = ["fn", "global", "thread", "x", "local", "", "}"]


def _cut(tokens, previous=None, window=None):
    """The cut of ``tokens`` (from ``previous`` over ``window`` when
    given), or the ParseError text."""
    try:
        return Parser(tokens.kinds, tokens.texts, tokens.lines).cut(previous, window)
    except ParseError as exc:
        return str(exc)


def _fields(items):
    """Every field of a cut but its parser and reuse counts."""
    if isinstance(items, str):
        return items
    return items.globals, items.functions, items.threads, items.starts, items.items


def _spans(tokens):
    """``(start, end)`` character span of each token."""
    return [(start, start + len(text)) for start, text in zip(tokens.starts, tokens.texts)]


@st.composite
def _edit(draw, tokens):
    """A new source: ``tokens.source`` with one edit of a drawn kind."""
    source = tokens.source
    spans = _spans(tokens)
    bounds = sorted({0, len(source), *(s for s, _ in spans), *(e for _, e in spans)})
    keywords = [span for span, text in zip(spans, tokens.texts) if text in _KEYWORDS]
    kind = draw(st.sampled_from([
        "insert", "delete keyword", "replace keyword", "split", "merge",
        "first token", "to eof", "comment or string", "pieces",
    ]))
    if kind in ("delete keyword", "replace keyword") and keywords:
        start, end = draw(st.sampled_from(keywords))
        text = "" if kind == "delete keyword" else draw(st.sampled_from(_REPLACEMENTS))
        return source[:start] + text + source[end:]
    if kind == "split":
        semis = [end for (_, end), text in zip(spans, tokens.texts) if text == ";"]
        if semis:
            at = draw(st.sampled_from(semis))
            return source[:at] + " } fn zq_split(t) { local s = 1;" + source[at:]
    if kind == "merge":
        # From a "}" to the "{" after the next "fn": two bodies become one.
        closes = [s for (s, _), text in zip(spans, tokens.texts) if text == "}"]
        if closes:
            at = draw(st.sampled_from(closes))
            fn = source.find("fn ", at)
            brace = source.find("{", fn)
            if fn != -1 and brace != -1:
                return source[:at] + source[brace + 1 :]
    if kind == "first token":
        end = spans[0][1]
        text = draw(st.sampled_from(_REPLACEMENTS + _INSERTS))
        return text + source[draw(st.sampled_from([0, spans[0][0], end])) :]
    if kind == "to eof":
        at = draw(st.sampled_from(bounds))
        return source[:at] + draw(st.sampled_from(_INSERTS))
    if kind == "comment or string":
        inside = [
            i for i in range(len(source) - 1)
            if source.startswith(("//", "/*"), i) or source[i] == '"'
        ]
        if inside:
            at = draw(st.sampled_from(inside)) + 1
            insert = draw(st.sampled_from(["fn ", " global ", "thread", "x"]))
            return source[:at] + insert + source[at:]
    at = draw(st.sampled_from(bounds))
    cut = draw(st.integers(0, 12))
    if kind == "pieces":
        pieces = st.lists(st.sampled_from(_INSERTS + _REPLACEMENTS), max_size=3)
        insert = "".join(draw(pieces))
    else:
        insert = draw(st.sampled_from(_INSERTS))
    return source[:at] + insert + source[at + cut :]


def _window_items(tokens, window, items):
    """The items of ``items`` (over ``tokens``) whose span, with the
    token ending it, meets the new side of ``window``."""
    ends = [*items.starts[1:], len(tokens.texts) - 1]
    return [
        item for item, start, end in zip(items.items, items.starts, ends)
        if start < window.stop and end >= window.start
    ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_incremental_cut_after_edits_equals_full_cut(data):
    """A chain of edits, each rescanned and cut from the last tokens
    and cut that did both: exactly the full cut, or its error."""
    tokens, _ = rescan(data.draw(st.sampled_from(_BASES)))
    items = _cut(tokens)
    assert not isinstance(items, str)
    source = tokens.source
    for _ in range(data.draw(st.integers(1, 4))):
        # Edit the last source, lexed or not, as a client would.
        base = tokens if source == tokens.source else rescan(source)[0]
        new = data.draw(_edit(base))
        try:
            new_tokens, window = rescan(new, tokens)
        except LexError:
            source = tokens.source
            continue
        full = _cut(new_tokens)
        incremental = _cut(new_tokens, items, window)
        assert _fields(incremental) == _fields(full), (window, new)
        if isinstance(full, str):
            source = new
            continue
        if incremental.reused_globals:
            assert [g[1:] for g in incremental.globals] == [g[1:] for g in items.globals]
        # Exactly the items meeting the window were cut again.
        assert incremental.recut == len(_window_items(new_tokens, window, incremental))
        tokens, items, source = new_tokens, incremental, new


def test_an_appended_function_recuts_the_items_overlapping_the_window():
    source = get_program("lu-con").source
    old, _ = rescan(source)
    before = _cut(old)
    appended = source + "\nfn zz_extra(tid) { local t = tid; }\n"
    new, window = rescan(appended, old)
    after = _cut(new, before, window)
    overlapping = _window_items(new, window, after)
    # The last item (its ";" and eof are relexed) and the new function.
    assert [type(item).__name__ for item in overlapping[-1:]] == ["FunctionItem"]
    assert after.recut == len(overlapping) == 2
    assert len(after.items) == len(before.items) + 1
    assert after.items[:-2] == before.items[:-1]
    assert after.reused_globals
    # Back again: the item before the removed function is cut again.
    newer, window = rescan(source, new)
    assert _cut(newer, after, window).recut == 1


def test_an_edit_at_the_front_moves_the_items_after_it():
    source = get_program("lu-con").source
    old, _ = rescan(source)
    before = _cut(old)
    new, window = rescan("global int zz_first;\n" + source, old)
    after = _cut(new, before, window)
    assert _fields(after) == _fields(_cut(new))
    assert not after.reused_globals
    assert after.recut == 2  # the new global and the item it displaced from token 0
    moved = after.functions[-1]
    assert (moved.line, moved.start) == (
        before.functions[-1].line + 1, before.functions[-1].start + 4
    )
    assert moved.digest == before.functions[-1].digest
