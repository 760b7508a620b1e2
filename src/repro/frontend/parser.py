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
"""

from __future__ import annotations

from typing import Optional

from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import Token, tokenize


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
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0  # current nesting, bounded by MAX_NESTING

    # --- token helpers -------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if not self.check(kind, text):
            want = text or kind
            raise ParseError(f"line {tok.line}: expected {want!r}, got {tok.text!r}")
        return self.advance()

    def enter(self) -> None:
        """Open one nesting level (callers close it with
        ``self.depth -= 1``)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"line {self.peek().line}: nesting deeper than "
                f"{MAX_NESTING} levels"
            )

    # --- top level --------------------------------------------------------
    def parse_module(self) -> ast.Module:
        globals_: list[ast.GlobalDecl] = []
        functions: list[ast.FuncDecl] = []
        threads: list[ast.ThreadDecl] = []
        start_line = self.peek().line
        while not self.check("eof"):
            if self.check("kw", "global"):
                globals_.append(self.parse_global())
            elif self.check("kw", "fn"):
                functions.append(self.parse_function())
            elif self.check("kw", "thread"):
                threads.append(self.parse_thread())
            else:
                tok = self.peek()
                raise ParseError(
                    f"line {tok.line}: expected global/fn/thread, got {tok.text!r}"
                )
        return ast.Module(start_line, tuple(globals_), tuple(functions), tuple(threads))

    def parse_global(self) -> ast.GlobalDecl:
        line = self.expect("kw", "global").line
        self.accept("kw", "int")  # optional noise word
        name = self.expect("ident").text
        size = 1
        if self.accept("op", "["):
            size = self._parse_int_literal()
            self.expect("op", "]")
        init: tuple[object, ...] = tuple([0] * size)
        if self.accept("op", "="):
            if self.accept("op", "{"):
                values = [self._parse_init_value()]
                while self.accept("op", ","):
                    values.append(self._parse_init_value())
                self.expect("op", "}")
                if len(values) != size:
                    raise ParseError(
                        f"line {line}: {len(values)} initializers for size {size}"
                    )
                init = tuple(values)
            else:
                value = self._parse_init_value()
                init = tuple([value] * size) if size > 1 else (value,)
        self.expect("op", ";")
        return ast.GlobalDecl(line, name, size, init)

    def parse_function(self) -> ast.FuncDecl:
        line = self.expect("kw", "fn").line
        name = self.expect("ident").text
        self.expect("op", "(")
        params: list[str] = []
        if not self.check("op", ")"):
            self.accept("kw", "int")
            params.append(self.expect("ident").text)
            while self.accept("op", ","):
                self.accept("kw", "int")
                params.append(self.expect("ident").text)
        self.expect("op", ")")
        body = self.parse_block()
        return ast.FuncDecl(line, name, tuple(params), body)

    def parse_thread(self) -> ast.ThreadDecl:
        line = self.expect("kw", "thread").line
        name = self.expect("ident").text
        self.expect("op", "(")
        args: list[int] = []
        if not self.check("op", ")"):
            args.append(self._parse_signed_int())
            while self.accept("op", ","):
                args.append(self._parse_signed_int())
        self.expect("op", ")")
        self.expect("op", ";")
        return ast.ThreadDecl(line, name, tuple(args))

    def _parse_int_literal(self) -> int:
        tok = self.expect("num")
        try:
            return int(tok.text, 0)
        except ValueError:
            raise ParseError(f"line {tok.line}: bad integer {tok.text!r}") from None

    def _parse_signed_int(self) -> int:
        if self.accept("op", "-"):
            return -self._parse_int_literal()
        return self._parse_int_literal()

    def _parse_init_value(self) -> object:
        """An integer, or ``&name`` (address of a global) in an initializer."""
        if self.accept("op", "&"):
            return ("&", self.expect("ident").text)
        return self._parse_signed_int()

    # --- statements --------------------------------------------------------
    def parse_block(self) -> ast.Block:
        tok = self.expect("op", "{")
        self.enter()
        stmts: list[ast.Stmt] = []
        while not self.check("op", "}"):
            stmts.append(self.parse_statement())
        self.expect("op", "}")
        self.depth -= 1
        return ast.Block(tok.line, tuple(stmts))

    def parse_statement(self) -> ast.Stmt:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "{":
            return self.parse_block()
        if tok.kind == "kw":
            if tok.text == "local":
                return self.parse_local()
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "for":
                return self.parse_for()
            if tok.text == "return":
                self.advance()
                value = None
                if not self.check("op", ";"):
                    value = self.parse_expression()
                self.expect("op", ";")
                return ast.Return(tok.line, value)
            if tok.text == "break":
                self.advance()
                self.expect("op", ";")
                return ast.Break(tok.line)
            if tok.text == "continue":
                self.advance()
                self.expect("op", ";")
                return ast.Continue(tok.line)
            if tok.text == "fence":
                self.advance()
                flavor = None
                if self.check("ident"):
                    flavor = self.advance().text
                self.expect("op", ";")
                return ast.FenceStmt(tok.line, full=True, flavor=flavor)
            if tok.text == "cfence":
                self.advance()
                self.expect("op", ";")
                return ast.FenceStmt(tok.line, full=False)
            if tok.text == "observe":
                self.advance()
                self.expect("op", "(")
                label = self.expect("str").text
                self.expect("op", ",")
                expr = self.parse_expression()
                self.expect("op", ")")
                self.expect("op", ";")
                return ast.ObserveStmt(tok.line, label, expr)
            if tok.text == "atomic_store":
                self.advance()
                self.expect("op", "(")
                addr = self.parse_expression()
                self.expect("op", ",")
                value = self.parse_expression()
                self.expect("op", ",")
                ordering = self._parse_qualifier(_STORE_QUALIFIERS)
                self.expect("op", ")")
                self.expect("op", ";")
                return ast.AtomicStoreStmt(tok.line, addr, value, ordering)
        return self.parse_simple_statement()

    def _parse_qualifier(self, allowed: tuple[str, ...]) -> str:
        tok = self.expect("ident")
        if tok.text not in allowed:
            raise ParseError(
                f"line {tok.line}: bad ordering qualifier {tok.text!r} "
                f"(want one of {', '.join(allowed)})"
            )
        return tok.text

    def parse_local(self) -> ast.LocalDecl:
        line = self.expect("kw", "local").line
        self.accept("kw", "int")
        name = self.expect("ident").text
        size = 1
        init: Optional[ast.Expr] = None
        if self.accept("op", "["):
            size = self._parse_int_literal()
            self.expect("op", "]")
        elif self.accept("op", "="):
            init = self.parse_expression()
        self.expect("op", ";")
        return ast.LocalDecl(line, name, size, init)

    def parse_if(self) -> ast.If:
        tok = self.expect("kw", "if")
        self.enter()
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        then = self._block_or_single()
        els: Optional[ast.Block] = None
        if self.accept("kw", "else"):
            if self.check("kw", "if"):
                nested = self.parse_if()
                els = ast.Block(nested.line, (nested,))
            else:
                els = self._block_or_single()
        self.depth -= 1
        return ast.If(tok.line, cond, then, els)

    def parse_while(self) -> ast.While:
        tok = self.expect("kw", "while")
        self.enter()
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        if self.accept("op", ";"):  # busy-wait: while (e);
            body = ast.Block(tok.line, ())
        else:
            body = self._block_or_single()
        self.depth -= 1
        return ast.While(tok.line, cond, body)

    def parse_for(self) -> ast.For:
        tok = self.expect("kw", "for")
        self.enter()
        self.expect("op", "(")
        init: Optional[ast.Stmt] = None
        if not self.check("op", ";"):
            init = self._parse_assign_or_expr(consume_semi=False)
        self.expect("op", ";")
        cond: Optional[ast.Expr] = None
        if not self.check("op", ";"):
            cond = self.parse_expression()
        self.expect("op", ";")
        step: Optional[ast.Stmt] = None
        if not self.check("op", ")"):
            step = self._parse_assign_or_expr(consume_semi=False)
        self.expect("op", ")")
        body = self._block_or_single()
        self.depth -= 1
        return ast.For(tok.line, init, cond, step, body)

    def _block_or_single(self) -> ast.Block:
        if self.check("op", "{"):
            return self.parse_block()
        stmt = self.parse_statement()
        return ast.Block(stmt.line, (stmt,))

    def parse_simple_statement(self) -> ast.Stmt:
        return self._parse_assign_or_expr(consume_semi=True)

    def _parse_assign_or_expr(self, consume_semi: bool) -> ast.Stmt:
        line = self.peek().line
        expr = self.parse_expression()
        if self.accept("op", "="):
            value = self.parse_expression()
            if consume_semi:
                self.expect("op", ";")
            if not isinstance(expr, (ast.Var, ast.Index)) and not (
                isinstance(expr, ast.Unary) and expr.op == "*"
            ):
                raise ParseError(f"line {line}: invalid assignment target")
            return ast.Assign(line, expr, value)
        if consume_semi:
            self.expect("op", ";")
        return ast.ExprStmt(line, expr)

    # --- expressions -----------------------------------------------------------
    def parse_expression(self, min_prec: int = 1) -> ast.Expr:
        self.enter()
        lhs = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            prec = _PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                break
            self.advance()
            rhs = self.parse_expression(prec + 1)
            lhs = ast.Binary(tok.line, tok.text, lhs, rhs)
        self.depth -= 1
        return lhs

    def parse_unary(self) -> ast.Expr:
        """Prefix operators, then a primary with postfix indexing."""
        tok = self.peek()
        if tok.kind == "op" and tok.text in _PREFIX_OPS:
            self.advance()
            self.enter()
            operand = self.parse_unary()
            self.depth -= 1
            return ast.Unary(tok.line, tok.text, operand)
        expr = self.parse_primary()
        while self.accept("op", "["):
            index = self.parse_expression()
            self.expect("op", "]")
            expr = ast.Index(self.peek().line, expr, index)
        return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            try:
                return ast.Num(tok.line, int(tok.text, 0))
            except ValueError:
                raise ParseError(f"line {tok.line}: bad integer {tok.text!r}") from None
        if tok.kind == "kw" and tok.text in ("cas", "xchg", "fadd"):
            self.advance()
            self.expect("op", "(")
            args = [self.parse_expression()]
            while self.accept("op", ","):
                args.append(self.parse_expression())
            self.expect("op", ")")
            if tok.text == "cas":
                if len(args) != 3:
                    raise ParseError(f"line {tok.line}: cas takes 3 arguments")
                return ast.CasExpr(tok.line, args[0], args[1], args[2])
            if len(args) != 2:
                raise ParseError(f"line {tok.line}: {tok.text} takes 2 arguments")
            if tok.text == "xchg":
                return ast.XchgExpr(tok.line, args[0], args[1])
            return ast.FaddExpr(tok.line, args[0], args[1])
        if tok.kind == "kw" and tok.text == "atomic_load":
            self.advance()
            self.expect("op", "(")
            addr = self.parse_expression()
            self.expect("op", ",")
            ordering = self._parse_qualifier(_LOAD_QUALIFIERS)
            self.expect("op", ")")
            return ast.AtomicLoadExpr(tok.line, addr, ordering)
        if tok.kind == "ident":
            self.advance()
            if self.accept("op", "("):
                args: list[ast.Expr] = []
                if not self.check("op", ")"):
                    args.append(self.parse_expression())
                    while self.accept("op", ","):
                        args.append(self.parse_expression())
                self.expect("op", ")")
                return ast.CallExpr(tok.line, tok.text, tuple(args))
            return ast.Var(tok.line, tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise ParseError(f"line {tok.line}: unexpected token {tok.text!r}")


def parse(source: str) -> ast.Module:
    """Parse mini-C source text into a module AST."""
    return Parser(source).parse_module()
