"""Unit tests for the mini-C lexer and parser."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _frontend_golden
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import LexError, rescan, scan, tokenize
from repro.frontend.parser import ParseError, parse
from repro.memmodel.litmus import LITMUS_TESTS
from repro.programs import get_program
from tests.conftest import MP_SOURCE


# --- lexer -----------------------------------------------------------------


def test_tokenize_kinds():
    toks = tokenize('fn f() { observe("x", 1); }')
    kinds = [t.kind for t in toks]
    assert kinds[-1] == "eof"
    assert ("str", "x") in [(t.kind, t.text) for t in toks]


def test_tokenize_line_numbers():
    toks = tokenize("a\nb\nc")
    assert [t.line for t in toks if t.kind == "ident"] == [1, 2, 3]


def test_tokenize_comments_skipped():
    toks = tokenize("a // comment\n/* block\ncomment */ b")
    idents = [t.text for t in toks if t.kind == "ident"]
    assert idents == ["a", "b"]


def test_tokenize_longest_match_operators():
    toks = tokenize("a <= b << c == d")
    ops = [t.text for t in toks if t.kind == "op"]
    assert ops == ["<=", "<<", "=="]


def test_tokenize_unterminated_comment():
    with pytest.raises(LexError):
        tokenize("/* never ends")


def test_tokenize_unterminated_string():
    with pytest.raises(LexError):
        tokenize('observe("oops')


def test_tokenize_bad_character():
    with pytest.raises(LexError):
        tokenize("a $ b")


@pytest.mark.parametrize(
    "source,expected",
    [
        ("local é = 1;", [
            ("kw", "local", 1), ("ident", "é", 1), ("op", "=", 1),
            ("num", "1", 1), ("op", ";", 1), ("eof", "", 1),
        ]),
        ("x = ١٢;", [
            ("ident", "x", 1), ("op", "=", 1), ("num", "١٢", 1),
            ("op", ";", 1), ("eof", "", 1),
        ]),
        ("x = 1²;", [
            ("ident", "x", 1), ("op", "=", 1), ("num", "1²", 1),
            ("op", ";", 1), ("eof", "", 1),
        ]),
        ("x = 1é;", [
            ("ident", "x", 1), ("op", "=", 1), ("num", "1", 1),
            ("ident", "é", 1), ("op", ";", 1), ("eof", "", 1),
        ]),
        ('/* a\nb */ x\n"s"', [
            ("ident", "x", 2), ("str", "s", 3), ("eof", "", 3),
        ]),
        ("x\r\ny", [("ident", "x", 1), ("ident", "y", 2), ("eof", "", 2)]),
        ("0x1F 08 1abc", [
            ("num", "0x1F", 1), ("num", "08", 1), ("num", "1abc", 1),
            ("eof", "", 1),
        ]),
    ],
)
def test_tokenize_edge_cases_exact(source, expected):
    assert [(t.kind, t.text, t.line) for t in tokenize(source)] == expected


@pytest.mark.parametrize(
    "source,message",
    [
        ("x = ½;", "line 1: unexpected character '½'"),
        ('observe("a\nb", 1);', "line 1: newline in string literal"),
        ('observe("oops', "line 1: unterminated string literal"),
        ("x;\n/* never ends", "line 2: unterminated block comment"),
        ("a\n\nb $", "line 3: unexpected character '$'"),
    ],
)
def test_tokenize_error_messages_exact(source, message):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert str(exc.value) == message


def test_token_repr():
    assert repr(tokenize("x")[0]) == "Token(ident, 'x', line 1)"


# --- resumable scan ----------------------------------------------------------

_RESCAN_BASES = [
    MP_SOURCE,
    LITMUS_TESTS["dekker"].source,
    get_program("lu-con").source,
    'global int x = 0x1F; // hex\n/* a\n block */ fn f(t) {\n'
    '  local y² = 3;\n  observe("s", x + 0XaB);\n}\nthread f(0);\n',
]
#: Edit pieces: comment and string delimiters, newlines, a non-decimal
#: digit, hex numbers and identifier characters.
_PIECES = ["/*", "*/", "//", '"', "\n", "²", "0x1f", "9", "ab", "_", " ", ";", "<", "="]


def _lexed(source, old=None):
    """``scan``'s lists (from ``rescan`` when ``old`` is given) or the
    LexError text."""
    try:
        if old is None:
            return scan(source)
        tokens, _ = rescan(source, old)
        return tokens.kinds, tokens.texts, tokens.lines
    except LexError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rescan_after_edits_equals_scan(data):
    """A chain of edits at token boundaries, each rescanned from the
    last tokens that lexed: exactly ``scan``'s tokens or error."""
    old, _ = rescan(data.draw(st.sampled_from(_RESCAN_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        source = old.source
        ends = (start + len(text) for start, text in zip(old.starts, old.texts))
        at = data.draw(st.sampled_from(sorted({*old.starts, *ends})))
        cut = data.draw(st.integers(0, 12))
        insert = "".join(data.draw(st.lists(st.sampled_from(_PIECES), max_size=4)))
        new = source[:at] + insert + source[at + cut :]
        expected = _lexed(new)
        assert _lexed(new, old) == expected, (source[at - 10 : at + cut + 10], insert)
        if not isinstance(expected, str):
            old, window = rescan(new, old)
            assert list(old.starts) == list(rescan(new)[0].starts)
            assert 0 < window.relexed <= len(old.kinds)


def test_rescan_of_every_frontend_mutant_equals_scan():
    """Each pinned one-token-deletion mutant, rescanned from the tokens
    of its unmutated rendering."""
    mutants = json.loads(
        (Path(__file__).parent / "data" / "ir" / "frontend_mutants.json").read_text()
    )["programs"]
    checked = 0
    for key, (_, source) in _frontend_golden.sources().items():
        tokens = tokenize(source)
        original, _ = rescan(_frontend_golden.render_without(tokens, -1))
        for i in mutants[key]:
            mutant = _frontend_golden.render_without(tokens, int(i))
            assert _lexed(mutant, original) == _lexed(mutant), f"{key} without token {i}"
            checked += 1
    assert checked == sum(len(m) for m in mutants.values())


def test_rescan_reuses_the_tokens_outside_the_edit():
    source = get_program("lu-con").source
    old, window = rescan(source)
    assert window.relexed == len(old.kinds)
    at = source.index("fn ")
    new, window = rescan(source[:at] + "// one more line\n" + source[at:], old)
    assert window.relexed <= 2
    assert window.lines == 1
    assert new.lines[-1] == old.lines[-1] + 1
    assert new.starts[-1] == old.starts[-1] + len("// one more line\n")


# --- parser ------------------------------------------------------------------


def test_parse_globals():
    mod = parse("global int x; global arr[4]; global y = -3;")
    assert [g.name for g in mod.globals] == ["x", "arr", "y"]
    assert mod.globals[1].size == 4
    assert mod.globals[2].init == (-3,)


def test_parse_global_array_init():
    mod = parse("global a[3] = {1, 2, 3};")
    assert mod.globals[0].init == (1, 2, 3)


def test_parse_global_array_init_wrong_arity():
    with pytest.raises(ParseError):
        parse("global a[3] = {1, 2};")


def test_parse_global_address_init():
    mod = parse("global int x; global p = &x;")
    assert mod.globals[1].init == (("&", "x"),)


def test_parse_function_params():
    mod = parse("fn f(a, b) { }")
    assert mod.functions[0].params == ("a", "b")


def test_parse_threads():
    mod = parse("fn f(t) { } thread f(1); thread f(2);")
    assert [t.args for t in mod.threads] == [(1,), (2,)]


def test_parse_precedence():
    mod = parse("fn f() { local r = 1 + 2 * 3; }")
    decl = mod.functions[0].body.stmts[0]
    assert isinstance(decl, ast.LocalDecl)
    init = decl.init
    assert isinstance(init, ast.Binary) and init.op == "+"
    assert isinstance(init.rhs, ast.Binary) and init.rhs.op == "*"


def test_parse_unary_chain():
    mod = parse("fn f() { local p; local r = **p; }")
    init = mod.functions[0].body.stmts[1].init
    assert isinstance(init, ast.Unary) and init.op == "*"
    assert isinstance(init.operand, ast.Unary) and init.operand.op == "*"


def test_parse_busy_wait_empty_body():
    mod = parse("global f; fn w() { while (f == 0); }")
    loop = mod.functions[0].body.stmts[0]
    assert isinstance(loop, ast.While)
    assert loop.body.stmts == ()


def test_parse_if_else_chain():
    mod = parse("global x; fn f() { if (x) { } else if (x) { } else { } }")
    stmt = mod.functions[0].body.stmts[0]
    assert isinstance(stmt, ast.If)
    nested = stmt.els.stmts[0]
    assert isinstance(nested, ast.If)
    assert nested.els is not None


def test_parse_for_desugar_components():
    mod = parse("fn f() { local i; for (i = 0; i < 4; i = i + 1) { } }")
    loop = mod.functions[0].body.stmts[1]
    assert isinstance(loop, ast.For)
    assert loop.init is not None and loop.cond is not None and loop.step is not None


def test_parse_cas_arity():
    with pytest.raises(ParseError):
        parse("global x; fn f() { local r = cas(&x, 1); }")


def test_parse_xchg_fadd():
    mod = parse("global x; fn f() { local a = xchg(&x, 1); local b = fadd(&x, 2); }")
    stmts = mod.functions[0].body.stmts
    assert isinstance(stmts[0].init, ast.XchgExpr)
    assert isinstance(stmts[1].init, ast.FaddExpr)


def test_parse_fence_statements():
    mod = parse("fn f() { fence; cfence; }")
    stmts = mod.functions[0].body.stmts
    assert isinstance(stmts[0], ast.FenceStmt) and stmts[0].full
    assert isinstance(stmts[1], ast.FenceStmt) and not stmts[1].full


def test_parse_invalid_assignment_target():
    with pytest.raises(ParseError, match="assignment target"):
        parse("fn f() { 1 = 2; }")


def test_parse_break_continue():
    mod = parse("fn f() { while (1) { break; continue; } }")
    body = mod.functions[0].body.stmts[0].body
    assert isinstance(body.stmts[0], ast.Break)
    assert isinstance(body.stmts[1], ast.Continue)


def test_parse_observe():
    mod = parse('fn f() { observe("val", 1 + 2); }')
    stmt = mod.functions[0].body.stmts[0]
    assert isinstance(stmt, ast.ObserveStmt)
    assert stmt.label == "val"


def test_parse_index_expressions():
    mod = parse("global a[4]; fn f() { local r = a[a[0]]; }")
    init = mod.functions[0].body.stmts[0].init
    assert isinstance(init, ast.Index)
    assert isinstance(init.index, ast.Index)


def test_parse_error_on_garbage_top_level():
    with pytest.raises(ParseError, match="expected global/fn/thread"):
        parse("banana;")


def test_parse_logical_ops():
    mod = parse("global x; global y; fn f() { if (x && y || !x) { } }")
    cond = mod.functions[0].body.stmts[0].cond
    assert isinstance(cond, ast.Binary) and cond.op == "||"


# --- nesting depth -----------------------------------------------------------

#: One statement with ``n`` levels of a construct; it sits on line 3.
NESTED = {
    "parens": lambda n: "x = " + "(" * n + "1" + ")" * n + ";",
    "unary": lambda n: "x = " + "-" * n + "1;",
    "blocks": lambda n: "{" * n + "x = 1;" + "}" * n,
    "ifs": lambda n: "if (x) " * n + "x = 1;",
    "sum": lambda n: "x = " + "+".join(["1"] * n) + ";",
}


def _nested(shape, n):
    return "global x;\nfn t() {\n  " + NESTED[shape](n) + "\n}\nthread t();\n"


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_deep_nesting_compiles_or_is_a_parse_error(shape):
    from repro.frontend import compile_source
    from repro.frontend.parser import MAX_NESTING

    compile_source(_nested(shape, MAX_NESTING - 10))
    deep = _nested(shape, 3000)
    if shape == "sum":  # left-deep, not nested: lowered in a loop
        program = compile_source(deep)
        assert sum(1 for _ in program.functions["t"].instructions()) > 3000
    else:
        with pytest.raises(ParseError, match=r"^line 3: nesting deeper than"):
            compile_source(deep)


# --- AST nodes ---------------------------------------------------------------


def test_ast_nodes_compare_by_class_and_fields():
    a = ast.Binary(1, "+", ast.Num(1, 2), ast.Var(1, "x"))
    assert a == ast.Binary(1, "+", ast.Num(1, 2), ast.Var(1, "x"))
    assert a != ast.Binary(2, "+", ast.Num(1, 2), ast.Var(1, "x"))
    assert hash(a) == hash(ast.Binary(1, "+", ast.Num(1, 2), ast.Var(1, "x")))
    # Same fields, different class: not equal, and never equal to a tuple.
    assert ast.XchgExpr(1, ast.Var(1, "p"), ast.Num(1, 1)) != ast.FaddExpr(
        1, ast.Var(1, "p"), ast.Num(1, 1)
    )
    assert ast.Num(1, 2) != (1, 2) and (1, 2) != ast.Num(1, 2)
    assert ast.Break(3) != ast.Continue(3)


def test_ast_nodes_are_immutable():
    node = ast.Var(1, "x")
    with pytest.raises(AttributeError):
        node.name = "y"
    with pytest.raises(AttributeError):
        node.extra = 1
    assert node.name == "x"


def test_ast_node_defaults_and_repr():
    assert ast.LocalDecl(1, "x") == ast.LocalDecl(1, "x", 1, None)
    assert ast.GlobalDecl(1, "g").init == (0,)
    assert ast.FenceStmt(2) == ast.FenceStmt(2, full=True, flavor=None)
    assert ast.If(1, ast.Num(1, 1), ast.Block(1, ())).els is None
    assert repr(ast.Unary(4, "-", ast.Num(4, 1))) == (
        "Unary(line=4, op='-', operand=Num(line=4, value=1))"
    )
    assert isinstance(ast.Num(1, 1), ast.Expr) and isinstance(ast.Num(1, 1), ast.Node)
    assert isinstance(ast.Break(1), ast.Stmt)


def test_parse_builds_the_expected_tree():
    mod = parse('global x;\nfn f(a) {\n  x = -a[1] + f(2);\n  observe("o", x);\n}\n')
    body = mod.functions[0].body
    assert body == ast.Block(2, (
        ast.Assign(3, ast.Var(3, "x"), ast.Binary(
            3, "+",
            ast.Unary(3, "-", ast.Index(3, ast.Var(3, "a"), ast.Num(3, 1))),
            ast.CallExpr(3, "f", (ast.Num(3, 2),)),
        )),
        ast.ObserveStmt(4, "o", ast.Var(4, "x")),
    ))
