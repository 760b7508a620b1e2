"""Recursive-descent parser for the mini-C source language.

Grammar (informal):

    module   := (global_decl | func_decl | thread_decl)*
    global   := "global" "int"? IDENT ("[" NUM "]")? ("=" init)? ";"
    func     := "fn" IDENT "(" params? ")" block
    thread   := "thread" IDENT "(" int_args? ")" ";"
    stmt     := local | assign | if | while | for | return | break
              | continue | fence | cfence | observe | atomic_store
              | expr ";" | block
    atomic_store := "atomic_store" "(" expr "," expr "," IDENT ")" ";"
    expr     := precedence-climbing over || && | ^ & == != < <= > >=
                << >> + - * / % with unary - ! * & and postfix [..] (..)
                and atomic_load "(" expr "," IDENT ")"

The parser reads ``scan``'s parallel token lists (kinds, texts, line
numbers) by index, with one lookahead slot: ``text``, the text of the
token at ``pos``. In those lists an operator's or keyword's text
belongs to no other kind (string literals keep their quotes), so
``text == "("`` alone recognizes the operator. The kind and line are
read from their lists where a rule or an error needs them. The hot
rules (expressions and the statement dispatch) test the slot inline
and step ``pos`` themselves.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, NoReturn, Optional, TypeVar

from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import Window, scan


class ParseError(Exception):
    """Raised on malformed source."""


T = TypeVar("T")


#: Deepest nesting of blocks, control statements, parenthesised or
#: nested expressions and prefix operators the parser accepts. Parsing
#: and lowering recurse a few Python frames per level, so this keeps any
#: source well inside the interpreter's recursion limit: deeper source
#: is a ParseError, never a RecursionError.
MAX_NESTING = 200

_PREFIX_OPS = ("-", "!", "*", "&")

_LOAD_QUALIFIERS = ("acquire", "relaxed")
_STORE_QUALIFIERS = ("release", "relaxed")

# Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


class Parser:
    """Recursive descent over ``scan``'s token lists, read by index.

    ``text`` is the one lookahead slot: always ``texts[pos]``. The
    lists end in an ``eof`` token (text ``""``) that no rule consumes,
    so ``pos`` never runs past it. The parser never changes the lists.
    """

    def __init__(self, kinds: list[str], texts: list[str], lines: list[int]) -> None:
        self.kinds, self.texts, self.lines = kinds, texts, lines
        self.pos = 0
        self.text = self.texts[0]
        self.depth = 0  # current nesting, bounded by MAX_NESTING

    # --- token helpers -------------------------------------------------
    def advance(self) -> int:
        """Consume the lookahead token (unless it is ``eof``); its index."""
        pos = self.pos
        if self.text != "":
            self.pos = pos + 1
            self.text = self.texts[pos + 1]
        return pos

    def accept(self, text: str) -> bool:
        """Consume the operator or keyword ``text`` if it is next."""
        if self.text == text:
            pos = self.pos + 1
            self.pos = pos
            self.text = self.texts[pos]
            return True
        return False

    def expect(self, text: str) -> int:
        """Consume the operator or keyword ``text``; its index."""
        pos = self.pos
        if self.text != text:
            self._expected(text)
        self.pos = pos + 1
        self.text = self.texts[pos + 1]
        return pos

    def expect_kind(self, kind: str) -> int:
        """Consume an identifier, number or string; its index."""
        if self.kinds[self.pos] != kind:
            self._expected(kind)
        return self.advance()

    def shown(self, pos: int) -> str:
        """Token ``pos`` as error messages quote it (a string literal
        without its quotes)."""
        text = self.texts[pos]
        return text[1:-1] if self.kinds[pos] == "str" else text

    def _expected(self, want: str) -> NoReturn:
        raise ParseError(
            f"line {self.lines[self.pos]}: expected {want!r}, got {self.shown(self.pos)!r}"
        )

    def enter(self) -> None:
        """Open one nesting level (callers close it with
        ``self.depth -= 1``)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self._too_deep()

    def _too_deep(self) -> NoReturn:
        raise ParseError(
            f"line {self.lines[self.pos]}: nesting deeper than {MAX_NESTING} levels"
        )

    # --- top level --------------------------------------------------------
    def parse_module(self) -> ast.Module:
        globals_: list[ast.GlobalDecl] = []
        functions: list[ast.FuncDecl] = []
        threads: list[ast.ThreadDecl] = []
        start_line = self.lines[0]
        while True:
            text = self.text
            if text == "global":
                globals_.append(self.parse_global())
            elif text == "fn":
                functions.append(self.parse_function())
            elif text == "thread":
                threads.append(self.parse_thread())
            elif text == "":
                return ast.Module(start_line, tuple(globals_), tuple(functions), tuple(threads))
            else:
                self._expected_item()

    def _expected_item(self) -> NoReturn:
        raise ParseError(
            f"line {self.lines[self.pos]}: expected global/fn/thread, "
            f"got {self.shown(self.pos)!r}"
        )

    def cut(
        self, previous: ModuleItems | None = None, window: Window | None = None
    ) -> ModuleItems:
        """The module cut into top-level items on the token stream:
        globals and threads parsed, each ``fn`` left unparsed as a
        :class:`FunctionItem`.

        In a module that parses, ``global``, ``fn`` and ``thread`` occur
        only where an item starts, so the cut is at them. A header item
        must parse to exactly its span; a function's span is checked
        only when :meth:`ModuleItems.parse_function` parses it. Raises
        :class:`ParseError` where the module does not parse, though not
        always with :func:`parse`'s message.

        ``previous`` is the cut of the tokens these were rescanned from
        and ``window`` the rescan's (:func:`~repro.frontend.lexer.rescan`).
        Only the items that overlap the window, counting the token that
        ends each item, are cut again: an item ending before the window
        is taken as it is, one starting after it with its span and lines
        moved. Their tokens did not change, so neither did their digests.
        With no ``previous`` every item is cut.
        """
        texts = self.texts
        lo, hi = 0, len(texts) - 1  # the eof token ends the last item
        head: tuple[Item, ...] = ()
        tail: tuple[Item, ...] = ()
        head_starts: tuple[int, ...] = ()
        tail_starts: tuple[int, ...] = ()
        if previous is not None and previous.starts:
            starts, items = previous.starts, previous.items
            # The item holding the token before the window: its end may
            # be the window's first token.
            first = max(bisect_right(starts, window.start - 1) - 1, 0)
            after = bisect_left(starts, window.old_stop)
            shift = window.stop - window.old_stop
            lo = starts[first]
            head, head_starts = items[:first], starts[:first]
            if after < len(starts):
                hi = starts[after] + shift
                tail = tuple(_moved(item, window.lines, shift) for item in items[after:])
                tail_starts = tuple(start + shift for start in starts[after:])
        region = [i for i, text in enumerate(texts[lo:hi], lo) if text in _ITEM_KEYWORDS]
        region.append(hi)
        if region[0] != lo:  # only where ``lo`` is token 0: others start an old item
            self._expected_item()
        fresh = tuple(self._item(start, end) for start, end in zip(region, region[1:]))
        items = head + fresh + tail
        globals_ = tuple(item for item in items if type(item) is ast.GlobalDecl)
        reused_globals = (
            previous is not None
            and len(globals_) == len(previous.globals)
            and not any(type(item) is ast.GlobalDecl for item in fresh)
        )
        return ModuleItems(
            self,
            globals_,
            tuple(item for item in items if type(item) is FunctionItem),
            tuple(item for item in items if type(item) is ast.ThreadDecl),
            head_starts + tuple(region[:-1]) + tail_starts,
            items,
            len(fresh),
            reused_globals,
        )

    def _item(self, start: int, end: int) -> Item:
        """The item of tokens ``start:end``, which start with an item
        keyword."""
        texts = self.texts
        text = texts[start]
        if text == "global":
            return self.parse_item(Parser.parse_global, start, end)
        if text == "thread":
            return self.parse_item(Parser.parse_thread, start, end)
        # The parameters sit between the name's "(" and the first ")".
        close = start + 3
        while close < end and texts[close] != ")":
            close += 1
        # Token texts spell each kind, so they alone say what the
        # span parses and lowers to; "\n" occurs in none of them.
        digest = hashlib.blake2b(
            "\n".join(texts[start:end]).encode(), digest_size=16
        ).digest()
        return FunctionItem(
            texts[start + 1], self.lines[start],
            self.kinds[start + 3 : close].count("ident"), digest, start, end,
        )

    def parse_item(self, rule: Callable[[Parser], T], start: int, end: int) -> T:
        """Parse tokens ``start:end`` with ``rule``, which must consume
        exactly them."""
        self.pos = start
        self.text = self.texts[start]
        node = rule(self)
        if self.pos != end:
            self._expected_item()
        return node

    def parse_global(self) -> ast.GlobalDecl:
        line = self.lines[self.expect("global")]
        self.accept("int")  # optional noise word
        name = self.texts[self.expect_kind("ident")]
        size = 1
        if self.accept("["):
            size = self._parse_int_literal()
            self.expect("]")
        init: tuple[object, ...] = tuple([0] * size)
        if self.accept("="):
            if self.accept("{"):
                values = [self._parse_init_value()]
                while self.accept(","):
                    values.append(self._parse_init_value())
                self.expect("}")
                if len(values) != size:
                    raise ParseError(
                        f"line {line}: {len(values)} initializers for size {size}"
                    )
                init = tuple(values)
            else:
                value = self._parse_init_value()
                init = tuple([value] * size) if size > 1 else (value,)
        self.expect(";")
        return ast.GlobalDecl(line, name, size, init)

    def parse_function(self) -> ast.FuncDecl:
        line = self.lines[self.expect("fn")]
        name = self.texts[self.expect_kind("ident")]
        self.expect("(")
        params: list[str] = []
        if self.text != ")":
            self.accept("int")
            params.append(self.texts[self.expect_kind("ident")])
            while self.accept(","):
                self.accept("int")
                params.append(self.texts[self.expect_kind("ident")])
        self.expect(")")
        body = self.parse_block()
        return ast.FuncDecl(line, name, tuple(params), body)

    def parse_thread(self) -> ast.ThreadDecl:
        line = self.lines[self.expect("thread")]
        name = self.texts[self.expect_kind("ident")]
        self.expect("(")
        args: list[int] = []
        if self.text != ")":
            args.append(self._parse_signed_int())
            while self.accept(","):
                args.append(self._parse_signed_int())
        self.expect(")")
        self.expect(";")
        return ast.ThreadDecl(line, name, tuple(args))

    def _parse_int_literal(self) -> int:
        i = self.expect_kind("num")
        try:
            return int(self.texts[i], 0)
        except ValueError:
            raise ParseError(
                f"line {self.lines[i]}: bad integer {self.texts[i]!r}"
            ) from None

    def _parse_signed_int(self) -> int:
        if self.accept("-"):
            return -self._parse_int_literal()
        return self._parse_int_literal()

    def _parse_init_value(self) -> object:
        """An integer, or ``&name`` (address of a global) in an initializer."""
        if self.accept("&"):
            return ("&", self.texts[self.expect_kind("ident")])
        return self._parse_signed_int()

    # --- statements --------------------------------------------------------
    def parse_block(self) -> ast.Block:
        line = self.lines[self.expect("{")]
        self.enter()
        stmts: list[ast.Stmt] = []
        parse_statement = self.parse_statement
        while self.text != "}":
            stmts.append(parse_statement())
        self.expect("}")
        self.depth -= 1
        return ast.Block(line, tuple(stmts))

    def parse_statement(self) -> ast.Stmt:
        text = self.text
        rule = _KEYWORD_STATEMENTS.get(text)
        if rule is not None:
            return rule(self)
        if text == "{":
            return self.parse_block()
        return self._parse_assign_or_expr(consume_semi=True)

    def _parse_return(self) -> ast.Return:
        line = self.lines[self.advance()]
        value = None
        if self.text != ";":
            value = self.parse_expression()
        self.expect(";")
        return ast.Return(line, value)

    def _parse_break(self) -> ast.Break:
        line = self.lines[self.advance()]
        self.expect(";")
        return ast.Break(line)

    def _parse_continue(self) -> ast.Continue:
        line = self.lines[self.advance()]
        self.expect(";")
        return ast.Continue(line)

    def _parse_fence(self) -> ast.FenceStmt:
        line = self.lines[self.advance()]
        flavor = None
        if self.kinds[self.pos] == "ident":
            flavor = self.texts[self.advance()]
        self.expect(";")
        return ast.FenceStmt(line, True, flavor)

    def _parse_cfence(self) -> ast.FenceStmt:
        line = self.lines[self.advance()]
        self.expect(";")
        return ast.FenceStmt(line, False)

    def _parse_observe(self) -> ast.ObserveStmt:
        line = self.lines[self.advance()]
        self.expect("(")
        label = self.shown(self.expect_kind("str"))
        self.expect(",")
        expr = self.parse_expression()
        self.expect(")")
        self.expect(";")
        return ast.ObserveStmt(line, label, expr)

    def _parse_atomic_store(self) -> ast.AtomicStoreStmt:
        line = self.lines[self.advance()]
        self.expect("(")
        addr = self.parse_expression()
        self.expect(",")
        value = self.parse_expression()
        self.expect(",")
        ordering = self._parse_qualifier(_STORE_QUALIFIERS)
        self.expect(")")
        self.expect(";")
        return ast.AtomicStoreStmt(line, addr, value, ordering)

    def _parse_qualifier(self, allowed: tuple[str, ...]) -> str:
        i = self.expect_kind("ident")
        text = self.texts[i]
        if text not in allowed:
            raise ParseError(
                f"line {self.lines[i]}: bad ordering qualifier {text!r} "
                f"(want one of {', '.join(allowed)})"
            )
        return text

    def parse_local(self) -> ast.LocalDecl:
        line = self.lines[self.expect("local")]
        self.accept("int")
        name = self.texts[self.expect_kind("ident")]
        size = 1
        init: Optional[ast.Expr] = None
        if self.accept("["):
            size = self._parse_int_literal()
            self.expect("]")
        elif self.accept("="):
            init = self.parse_expression()
        self.expect(";")
        return ast.LocalDecl(line, name, size, init)

    def parse_if(self) -> ast.If:
        line = self.lines[self.expect("if")]
        self.enter()
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self._block_or_single()
        els: Optional[ast.Block] = None
        if self.accept("else"):
            if self.text == "if":
                nested = self.parse_if()
                els = ast.Block(nested.line, (nested,))
            else:
                els = self._block_or_single()
        self.depth -= 1
        return ast.If(line, cond, then, els)

    def parse_while(self) -> ast.While:
        line = self.lines[self.expect("while")]
        self.enter()
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        if self.accept(";"):  # busy-wait: while (e);
            body = ast.Block(line, ())
        else:
            body = self._block_or_single()
        self.depth -= 1
        return ast.While(line, cond, body)

    def parse_for(self) -> ast.For:
        line = self.lines[self.expect("for")]
        self.enter()
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if self.text != ";":
            init = self._parse_assign_or_expr(consume_semi=False)
        self.expect(";")
        cond: Optional[ast.Expr] = None
        if self.text != ";":
            cond = self.parse_expression()
        self.expect(";")
        step: Optional[ast.Stmt] = None
        if self.text != ")":
            step = self._parse_assign_or_expr(consume_semi=False)
        self.expect(")")
        body = self._block_or_single()
        self.depth -= 1
        return ast.For(line, init, cond, step, body)

    def _block_or_single(self) -> ast.Block:
        if self.text == "{":
            return self.parse_block()
        stmt = self.parse_statement()
        return ast.Block(stmt.line, (stmt,))

    def _parse_assign_or_expr(self, consume_semi: bool) -> ast.Stmt:
        line = self.lines[self.pos]
        expr = self.parse_expression()
        if self.accept("="):
            value = self.parse_expression()
            if consume_semi:
                self.expect(";")
            if not isinstance(expr, (ast.Var, ast.Index)) and not (
                isinstance(expr, ast.Unary) and expr.op == "*"
            ):
                raise ParseError(f"line {line}: invalid assignment target")
            return ast.Assign(line, expr, value)
        if consume_semi:
            self.expect(";")
        return ast.ExprStmt(line, expr)

    # --- expressions -----------------------------------------------------------
    def parse_expression(self, min_prec: int = 1) -> ast.Expr:
        self.depth += 1  # ``enter``, inlined on the hottest rule
        if self.depth > MAX_NESTING:
            self._too_deep()
        lhs = self.parse_unary()
        op = self.text
        prec = _PRECEDENCE.get(op)
        while prec is not None and prec >= min_prec:
            pos = self.pos + 1
            self.pos = pos
            self.text = self.texts[pos]
            rhs = self.parse_expression(prec + 1)
            lhs = ast.Binary(self.lines[pos - 1], op, lhs, rhs)
            op = self.text
            prec = _PRECEDENCE.get(op)
        self.depth -= 1
        return lhs

    def parse_unary(self) -> ast.Expr:
        """Prefix operators, then a primary with postfix indexing."""
        op = self.text
        if op in _PREFIX_OPS:
            line = self.lines[self.advance()]
            self.enter()
            operand = self.parse_unary()
            self.depth -= 1
            return ast.Unary(line, op, operand)
        expr = self.parse_primary()
        while self.text == "[":
            self.advance()
            index = self.parse_expression()
            self.expect("]")
            expr = ast.Index(self.lines[self.pos], expr, index)
        return expr

    def parse_primary(self) -> ast.Expr:
        pos = self.pos
        kind = self.kinds[pos]
        text = self.text
        line = self.lines[pos]
        if kind == "ident":
            pos += 1
            if self.texts[pos] != "(":  # a variable
                self.pos = pos
                self.text = self.texts[pos]
                return ast.Var(line, text)
            self.pos = pos + 1  # a call: past the name and "("
            self.text = self.texts[pos + 1]
            args: list[ast.Expr] = []
            if self.text != ")":
                args.append(self.parse_expression())
                while self.accept(","):
                    args.append(self.parse_expression())
            self.expect(")")
            return ast.CallExpr(line, text, tuple(args))
        if kind == "num":
            self.advance()
            try:
                return ast.Num(line, int(text, 0))
            except ValueError:
                raise ParseError(f"line {line}: bad integer {text!r}") from None
        if text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if text in ("cas", "xchg", "fadd"):
            self.advance()
            self.expect("(")
            rmw_args = [self.parse_expression()]
            while self.accept(","):
                rmw_args.append(self.parse_expression())
            self.expect(")")
            if text == "cas":
                if len(rmw_args) != 3:
                    raise ParseError(f"line {line}: cas takes 3 arguments")
                return ast.CasExpr(line, rmw_args[0], rmw_args[1], rmw_args[2])
            if len(rmw_args) != 2:
                raise ParseError(f"line {line}: {text} takes 2 arguments")
            if text == "xchg":
                return ast.XchgExpr(line, rmw_args[0], rmw_args[1])
            return ast.FaddExpr(line, rmw_args[0], rmw_args[1])
        if text == "atomic_load":
            self.advance()
            self.expect("(")
            addr = self.parse_expression()
            self.expect(",")
            ordering = self._parse_qualifier(_LOAD_QUALIFIERS)
            self.expect(")")
            return ast.AtomicLoadExpr(line, addr, ordering)
        raise ParseError(f"line {line}: unexpected token {self.shown(pos)!r}")


#: The statements that start with a keyword, by that keyword.
_KEYWORD_STATEMENTS = {
    "local": Parser.parse_local,
    "if": Parser.parse_if,
    "while": Parser.parse_while,
    "for": Parser.parse_for,
    "return": Parser._parse_return,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
    "fence": Parser._parse_fence,
    "cfence": Parser._parse_cfence,
    "observe": Parser._parse_observe,
    "atomic_store": Parser._parse_atomic_store,
}


class FunctionItem(NamedTuple):
    """One ``fn`` of a cut module, not yet parsed: its name, line and
    parameter count, a digest of its token texts, and its token span.
    Lines stay out of the digest, as they stay out of the IR."""

    name: str
    line: int
    arity: int
    digest: bytes
    start: int
    end: int


#: A top-level item of a cut module.
Item = ast.GlobalDecl | FunctionItem | ast.ThreadDecl


def _moved(item: Item, lines: int, shift: int) -> Item:
    """``item`` ``lines`` lines and ``shift`` tokens further on."""
    if type(item) is FunctionItem:
        if not (lines or shift):
            return item
        return item._replace(
            line=item.line + lines, start=item.start + shift, end=item.end + shift
        )
    if not lines:
        return item
    return type(item)(item.line + lines, *item[1:])


class ModuleItems(NamedTuple):
    """A module lexed once and cut into items (see :meth:`Parser.cut`):
    its globals, functions and threads, and every item in source order
    with the token it starts at. ``recut`` items were cut afresh (the
    rest were reused from the previous cut), and ``reused_globals``
    says the globals are the previous cut's, in order (their lines may
    have moved)."""

    parser: Parser
    globals: tuple[ast.GlobalDecl, ...]
    functions: tuple[FunctionItem, ...]
    threads: tuple[ast.ThreadDecl, ...]
    starts: tuple[int, ...]
    items: tuple[Item, ...]
    recut: int
    reused_globals: bool

    def parse_function(self, item: FunctionItem) -> ast.FuncDecl:
        return self.parser.parse_item(Parser.parse_function, item.start, item.end)


_ITEM_KEYWORDS = frozenset(("global", "fn", "thread"))


def parse(source: str) -> ast.Module:
    """Parse mini-C source text into a module AST."""
    return Parser(*scan(source)).parse_module()
