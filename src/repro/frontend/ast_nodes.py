"""AST for the mini-C source language.

The language is the paper's multi-threaded "while" language with
pointers (Fig. 3), extended with the features the evaluation workloads
need: global/local arrays, atomic read-modify-writes (``cas``,
``xchg``, ``fadd``), function calls, explicit ``fence``/``cfence``
statements for manual placements, and ``observe`` for litmus outcomes.

A node is an immutable tuple of its fields, in the order ``_fields``
names them, with one read-only property per field. Building one is a
single ``tuple.__new__`` call rather than a ``setattr`` per field. Two
nodes are equal when they have the same class and equal fields.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Optional, Sequence


def _field(index: int) -> Any:
    return property(itemgetter(index))


class Node(tuple):
    """Base AST node; ``line`` supports error messages."""

    __slots__ = ()
    _fields: tuple[str, ...] = ("line",)
    line: int = _field(0)

    def __new__(cls, line: int) -> Node:
        return tuple.__new__(cls, (line,))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


# --- expressions -----------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class Num(Expr):
    __slots__ = ()
    _fields = ("line", "value")
    value: int = _field(1)

    def __new__(cls, line: int, value: int) -> Num:
        return tuple.__new__(cls, (line, value))


class Var(Expr):
    """A variable reference (global, local, or parameter)."""

    __slots__ = ()
    _fields = ("line", "name")
    name: str = _field(1)

    def __new__(cls, line: int, name: str) -> Var:
        return tuple.__new__(cls, (line, name))


class Unary(Expr):
    """Unary ``-``, ``!``, ``*`` (dereference), or ``&`` (address-of)."""

    __slots__ = ()
    _fields = ("line", "op", "operand")
    op: str = _field(1)
    operand: Expr = _field(2)

    def __new__(cls, line: int, op: str, operand: Expr) -> Unary:
        return tuple.__new__(cls, (line, op, operand))


class Binary(Expr):
    __slots__ = ()
    _fields = ("line", "op", "lhs", "rhs")
    op: str = _field(1)
    lhs: Expr = _field(2)
    rhs: Expr = _field(3)

    def __new__(cls, line: int, op: str, lhs: Expr, rhs: Expr) -> Binary:
        return tuple.__new__(cls, (line, op, lhs, rhs))


class Index(Expr):
    """``base[index]`` over arrays or pointers."""

    __slots__ = ()
    _fields = ("line", "base", "index")
    base: Expr = _field(1)
    index: Expr = _field(2)

    def __new__(cls, line: int, base: Expr, index: Expr) -> Index:
        return tuple.__new__(cls, (line, base, index))


class CallExpr(Expr):
    __slots__ = ()
    _fields = ("line", "callee", "args")
    callee: str = _field(1)
    args: Sequence[Expr] = _field(2)

    def __new__(cls, line: int, callee: str, args: Sequence[Expr]) -> CallExpr:
        return tuple.__new__(cls, (line, callee, args))


class CasExpr(Expr):
    """``cas(addr, expected, new)`` returning the old value."""

    __slots__ = ()
    _fields = ("line", "addr", "expected", "new")
    addr: Expr = _field(1)
    expected: Expr = _field(2)
    new: Expr = _field(3)

    def __new__(cls, line: int, addr: Expr, expected: Expr, new: Expr) -> CasExpr:
        return tuple.__new__(cls, (line, addr, expected, new))


class XchgExpr(Expr):
    """``xchg(addr, value)`` returning the old value."""

    __slots__ = ()
    _fields = ("line", "addr", "value")
    addr: Expr = _field(1)
    value: Expr = _field(2)

    def __new__(cls, line: int, addr: Expr, value: Expr) -> XchgExpr:
        return tuple.__new__(cls, (line, addr, value))


class FaddExpr(Expr):
    """``fadd(addr, value)`` (fetch-and-add) returning the old value."""

    __slots__ = ()
    _fields = ("line", "addr", "value")
    addr: Expr = _field(1)
    value: Expr = _field(2)

    def __new__(cls, line: int, addr: Expr, value: Expr) -> FaddExpr:
        return tuple.__new__(cls, (line, addr, value))


class AtomicLoadExpr(Expr):
    """``atomic_load(addr, acquire|relaxed)`` — a qualified atomic read.

    ``acquire`` discharges the ``r->r``/``r->w`` ordering obligations
    out of the load; ``relaxed`` marks the access atomic but orders
    nothing (it still needs fences like a plain access).
    """

    __slots__ = ()
    _fields = ("line", "addr", "ordering")
    addr: Expr = _field(1)
    ordering: str = _field(2)

    def __new__(cls, line: int, addr: Expr, ordering: str) -> AtomicLoadExpr:
        return tuple.__new__(cls, (line, addr, ordering))


# --- statements --------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Block(Stmt):
    __slots__ = ()
    _fields = ("line", "stmts")
    stmts: Sequence[Stmt] = _field(1)

    def __new__(cls, line: int, stmts: Sequence[Stmt]) -> Block:
        return tuple.__new__(cls, (line, stmts))


class LocalDecl(Stmt):
    """``local x;`` or ``local x = e;`` or ``local a[n];``"""

    __slots__ = ()
    _fields = ("line", "name", "size", "init")
    name: str = _field(1)
    size: int = _field(2)
    init: Optional[Expr] = _field(3)

    def __new__(
        cls, line: int, name: str, size: int = 1, init: Optional[Expr] = None
    ) -> LocalDecl:
        return tuple.__new__(cls, (line, name, size, init))


class Assign(Stmt):
    """``target = value;`` where target is Var, Index, or Unary('*')."""

    __slots__ = ()
    _fields = ("line", "target", "value")
    target: Expr = _field(1)
    value: Expr = _field(2)

    def __new__(cls, line: int, target: Expr, value: Expr) -> Assign:
        return tuple.__new__(cls, (line, target, value))


class ExprStmt(Stmt):
    __slots__ = ()
    _fields = ("line", "expr")
    expr: Expr = _field(1)

    def __new__(cls, line: int, expr: Expr) -> ExprStmt:
        return tuple.__new__(cls, (line, expr))


class If(Stmt):
    __slots__ = ()
    _fields = ("line", "cond", "then", "els")
    cond: Expr = _field(1)
    then: Block = _field(2)
    els: Optional[Block] = _field(3)

    def __new__(cls, line: int, cond: Expr, then: Block, els: Optional[Block] = None) -> If:
        return tuple.__new__(cls, (line, cond, then, els))


class While(Stmt):
    __slots__ = ()
    _fields = ("line", "cond", "body")
    cond: Expr = _field(1)
    body: Block = _field(2)

    def __new__(cls, line: int, cond: Expr, body: Block) -> While:
        return tuple.__new__(cls, (line, cond, body))


class For(Stmt):
    """``for (init; cond; step) body`` — sugar; lowered like while."""

    __slots__ = ()
    _fields = ("line", "init", "cond", "step", "body")
    init: Optional[Stmt] = _field(1)
    cond: Optional[Expr] = _field(2)
    step: Optional[Stmt] = _field(3)
    body: Block = _field(4)

    def __new__(
        cls,
        line: int,
        init: Optional[Stmt],
        cond: Optional[Expr],
        step: Optional[Stmt],
        body: Block,
    ) -> For:
        return tuple.__new__(cls, (line, init, cond, step, body))


class Return(Stmt):
    __slots__ = ()
    _fields = ("line", "value")
    value: Optional[Expr] = _field(1)

    def __new__(cls, line: int, value: Optional[Expr] = None) -> Return:
        return tuple.__new__(cls, (line, value))


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


class FenceStmt(Stmt):
    """``fence;`` (full) or ``cfence;`` (compiler directive).

    A full fence may name an ISA flavor — ``fence lwsync;`` — which the
    lowering keeps on the IR :class:`~repro.ir.instructions.Fence`
    (see :mod:`repro.arch` for the flavor catalogs).

    These are *manual* fences; the compiler drops them unless asked to
    keep them (the manual-placement variant of the experiments).
    """

    __slots__ = ()
    _fields = ("line", "full", "flavor")
    full: bool = _field(1)
    flavor: Optional[str] = _field(2)

    def __new__(cls, line: int, full: bool = True, flavor: Optional[str] = None) -> FenceStmt:
        return tuple.__new__(cls, (line, full, flavor))


class AtomicStoreStmt(Stmt):
    """``atomic_store(addr, value, release|relaxed);``.

    ``release`` discharges the ``r->w``/``w->w`` ordering obligations
    into the store; ``relaxed`` orders nothing.
    """

    __slots__ = ()
    _fields = ("line", "addr", "value", "ordering")
    addr: Expr = _field(1)
    value: Expr = _field(2)
    ordering: str = _field(3)

    def __new__(cls, line: int, addr: Expr, value: Expr, ordering: str) -> AtomicStoreStmt:
        return tuple.__new__(cls, (line, addr, value, ordering))


class ObserveStmt(Stmt):
    __slots__ = ()
    _fields = ("line", "label", "expr")
    label: str = _field(1)
    expr: Expr = _field(2)

    def __new__(cls, line: int, label: str, expr: Expr) -> ObserveStmt:
        return tuple.__new__(cls, (line, label, expr))


# --- top-level ----------------------------------------------------------------


class GlobalDecl(Node):
    """``init`` entries are ints or ``("&", name)`` symbolic addresses
    (paper Fig. 5 needs ``y = &z`` initial state)."""

    __slots__ = ()
    _fields = ("line", "name", "size", "init")
    name: str = _field(1)
    size: int = _field(2)
    init: Sequence[object] = _field(3)

    def __new__(
        cls, line: int, name: str, size: int = 1, init: Sequence[object] = (0,)
    ) -> GlobalDecl:
        return tuple.__new__(cls, (line, name, size, init))


class FuncDecl(Node):
    __slots__ = ()
    _fields = ("line", "name", "params", "body")
    name: str = _field(1)
    params: Sequence[str] = _field(2)
    body: Block = _field(3)

    def __new__(cls, line: int, name: str, params: Sequence[str], body: Block) -> FuncDecl:
        return tuple.__new__(cls, (line, name, params, body))


class ThreadDecl(Node):
    __slots__ = ()
    _fields = ("line", "func_name", "args")
    func_name: str = _field(1)
    args: Sequence[int] = _field(2)

    def __new__(cls, line: int, func_name: str, args: Sequence[int]) -> ThreadDecl:
        return tuple.__new__(cls, (line, func_name, args))


class Module(Node):
    __slots__ = ()
    _fields = ("line", "globals", "functions", "threads")
    globals: Sequence[GlobalDecl] = _field(1)
    functions: Sequence[FuncDecl] = _field(2)
    threads: Sequence[ThreadDecl] = _field(3)

    def __new__(
        cls,
        line: int,
        globals: Sequence[GlobalDecl],
        functions: Sequence[FuncDecl],
        threads: Sequence[ThreadDecl],
    ) -> Module:
        return tuple.__new__(cls, (line, globals, functions, threads))
