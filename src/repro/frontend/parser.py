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

from typing import NoReturn, Optional

from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import scan


class ParseError(Exception):
    """Raised on malformed source."""


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
    so ``pos`` never runs past it.
    """

    def __init__(self, source: str) -> None:
        self.kinds, self.texts, self.lines = scan(source)
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
                raise ParseError(
                    f"line {self.lines[self.pos]}: expected global/fn/thread, "
                    f"got {self.shown(self.pos)!r}"
                )

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


def parse(source: str) -> ast.Module:
    """Parse mini-C source text into a module AST."""
    return Parser(source).parse_module()
