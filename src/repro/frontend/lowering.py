"""Lowering: mini-C AST to the load/store IR.

Lowering follows the LLVM ``-O0`` discipline the paper's algorithms
assume: every mutable local variable becomes an ``alloca`` slot
accessed through loads and stores, and every temporary is a fresh
virtual register written exactly once. This is what makes the paper's
backwards slicer (which chases loaded values through
``potential_writers``) directly applicable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.frontend import ast_nodes as ast
from repro.ir.builder import IRBuilder
from repro.ir.function import GlobalVar, Program
from repro.ir.instructions import FenceKind, FenceOrigin, Store
from repro.ir.values import Constant, GlobalRef, Register, Value
from repro.ir.verifier import verify_program


class LoweringError(Exception):
    """Raised on semantic errors (undefined names, bad targets, ...)."""


@dataclass
class _LocalSlot:
    """A local variable: its alloca register and declared size."""

    addr: Register
    size: int


class _LoopContext:
    """Break/continue targets for the innermost loop."""

    __slots__ = ("continue_label", "break_label")

    def __init__(self, continue_label: str, break_label: str) -> None:
        self.continue_label = continue_label
        self.break_label = break_label


class FunctionLowerer:
    def __init__(
        self,
        func: ast.FuncDecl,
        global_sizes: dict[str, int],
        include_manual_fences: bool,
    ) -> None:
        self.decl = func
        self.global_sizes = global_sizes
        self.include_manual_fences = include_manual_fences
        self.builder = IRBuilder(func.name, func.params)
        self.locals: dict[str, _LocalSlot] = {}
        self.loop_stack: list[_LoopContext] = []

    def lower(self):
        b = self.builder
        b.new_block("entry")
        # Parameters become mutable alloca slots, like clang -O0.
        for param in b.function.params:
            slot = b.alloca(1, var_name=param.name)
            b.store(slot, param)
            self.locals[param.name] = _LocalSlot(slot, 1)
        self.lower_block(self.decl.body)
        return b.build()

    # --- statements ----------------------------------------------------
    def lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        b = self.builder
        if isinstance(stmt, ast.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.LocalDecl):
            if stmt.name in self.locals:
                raise LoweringError(
                    f"line {stmt.line}: duplicate local {stmt.name!r} in "
                    f"{self.decl.name}"
                )
            slot = b.alloca(stmt.size, var_name=stmt.name)
            self.locals[stmt.name] = _LocalSlot(slot, stmt.size)
            if stmt.init is not None:
                b.store(slot, self.lower_expr(stmt.init))
        elif isinstance(stmt, ast.Assign):
            value = self.lower_expr(stmt.value)
            addr = self.lower_address_of(stmt.target)
            b.store(addr, value)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr, discard=True)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            value = None if stmt.value is None else self.lower_expr(stmt.value)
            b.ret(value)
            b.new_block()  # dead continuation for any trailing statements
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise LoweringError(f"line {stmt.line}: break outside loop")
            b.jump(self.loop_stack[-1].break_label)
            b.new_block()
        elif isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                raise LoweringError(f"line {stmt.line}: continue outside loop")
            b.jump(self.loop_stack[-1].continue_label)
            b.new_block()
        elif isinstance(stmt, ast.FenceStmt):
            if self.include_manual_fences:
                kind = FenceKind.FULL if stmt.full else FenceKind.COMPILER
                b.fence(kind, FenceOrigin.MANUAL, flavor=stmt.flavor)
        elif isinstance(stmt, ast.AtomicStoreStmt):
            value = self.lower_expr(stmt.value)
            addr = self.lower_expr(stmt.addr)
            b.store(addr, value, ordering=stmt.ordering)
        elif isinstance(stmt, ast.ObserveStmt):
            b.observe(stmt.label, self.lower_expr(stmt.expr))
        else:  # pragma: no cover - parser produces no other nodes
            raise LoweringError(f"unknown statement {type(stmt).__name__}")

    def _lower_if(self, stmt: ast.If) -> None:
        b = self.builder
        cond = self.lower_expr(stmt.cond)
        then_label = b.fresh_label("then")
        merge_label = b.fresh_label("endif")
        else_label = b.fresh_label("else") if stmt.els is not None else merge_label
        b.br(cond, then_label, else_label)
        b.set_block(b.function.add_block(then_label))
        self.lower_block(stmt.then)
        if not b.current.is_terminated():
            b.jump(merge_label)
        if stmt.els is not None:
            b.set_block(b.function.add_block(else_label))
            self.lower_block(stmt.els)
            if not b.current.is_terminated():
                b.jump(merge_label)
        b.set_block(b.function.add_block(merge_label))

    def _lower_while(self, stmt: ast.While) -> None:
        b = self.builder
        header_label = b.fresh_label("while.head")
        body_label = b.fresh_label("while.body")
        exit_label = b.fresh_label("while.end")
        b.jump(header_label)
        b.set_block(b.function.add_block(header_label))
        cond = self.lower_expr(stmt.cond)
        b.br(cond, body_label, exit_label)
        b.set_block(b.function.add_block(body_label))
        self.loop_stack.append(_LoopContext(header_label, exit_label))
        self.lower_block(stmt.body)
        self.loop_stack.pop()
        if not b.current.is_terminated():
            b.jump(header_label)
        b.set_block(b.function.add_block(exit_label))

    def _lower_for(self, stmt: ast.For) -> None:
        b = self.builder
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        header_label = b.fresh_label("for.head")
        body_label = b.fresh_label("for.body")
        step_label = b.fresh_label("for.step")
        exit_label = b.fresh_label("for.end")
        b.jump(header_label)
        b.set_block(b.function.add_block(header_label))
        if stmt.cond is not None:
            cond = self.lower_expr(stmt.cond)
            b.br(cond, body_label, exit_label)
        else:
            b.jump(body_label)
        b.set_block(b.function.add_block(body_label))
        self.loop_stack.append(_LoopContext(step_label, exit_label))
        self.lower_block(stmt.body)
        self.loop_stack.pop()
        if not b.current.is_terminated():
            b.jump(step_label)
        b.set_block(b.function.add_block(step_label))
        if stmt.step is not None:
            self.lower_stmt(stmt.step)
        b.jump(header_label)
        b.set_block(b.function.add_block(exit_label))

    # --- addresses --------------------------------------------------------
    def lower_address_of(self, target: ast.Expr) -> Value:
        """Address of an lvalue (assignment target or ``&`` operand)."""
        b = self.builder
        if isinstance(target, ast.Var):
            slot = self.locals.get(target.name)
            if slot is not None:
                return slot.addr
            if target.name in self.global_sizes:
                return GlobalRef(target.name)
            raise LoweringError(
                f"line {target.line}: undefined variable {target.name!r}"
            )
        if isinstance(target, ast.Index):
            base = self._lower_base_address(target.base)
            offset = self.lower_expr(target.index)
            return b.gep(base, offset)
        if isinstance(target, ast.Unary) and target.op == "*":
            return self.lower_expr(target.operand)
        raise LoweringError(f"line {target.line}: expression is not an lvalue")

    def _lower_base_address(self, base: ast.Expr) -> Value:
        """Base pointer of an indexing expression.

        An array *name* denotes its base address; anything else is a
        pointer-valued expression.
        """
        if isinstance(base, ast.Var):
            slot = self.locals.get(base.name)
            if slot is not None:
                if slot.size > 1:
                    return slot.addr  # local array decays to its address
                return self.builder.load(slot.addr)  # scalar holding a pointer
            if base.name in self.global_sizes:
                if self.global_sizes[base.name] > 1:
                    return GlobalRef(base.name)
                return self.builder.load(GlobalRef(base.name))
            raise LoweringError(f"line {base.line}: undefined variable {base.name!r}")
        return self.lower_expr(base)

    # --- expressions ----------------------------------------------------------
    def lower_expr(self, expr: ast.Expr, discard: bool = False) -> Value:
        b = self.builder
        if isinstance(expr, ast.Num):
            return Constant(expr.value)
        if isinstance(expr, ast.Var):
            slot = self.locals.get(expr.name)
            if slot is not None:
                if slot.size > 1:
                    return slot.addr  # array decays to pointer
                return b.load(slot.addr)
            if expr.name in self.global_sizes:
                if self.global_sizes[expr.name] > 1:
                    return GlobalRef(expr.name)
                return b.load(GlobalRef(expr.name))
            raise LoweringError(f"line {expr.line}: undefined variable {expr.name!r}")
        if isinstance(expr, ast.Unary):
            if expr.op == "&":
                return self.lower_address_of(expr.operand)
            if expr.op == "*":
                return b.load(self.lower_expr(expr.operand))
            if expr.op == "-":
                return b.binop("-", Constant(0), self.lower_expr(expr.operand))
            if expr.op == "!":
                return b.cmp("==", self.lower_expr(expr.operand), Constant(0))
            raise LoweringError(f"line {expr.line}: unknown unary op {expr.op!r}")
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Index):
            base = self._lower_base_address(expr.base)
            offset = self.lower_expr(expr.index)
            return b.load(b.gep(base, offset))
        if isinstance(expr, ast.CallExpr):
            return b.call(expr.callee, [self.lower_expr(a) for a in expr.args],
                          returns=not discard) or Constant(0)
        if isinstance(expr, ast.CasExpr):
            return b.cmpxchg(
                self.lower_expr(expr.addr),
                self.lower_expr(expr.expected),
                self.lower_expr(expr.new),
            )
        if isinstance(expr, ast.XchgExpr):
            return b.xchg(self.lower_expr(expr.addr), self.lower_expr(expr.value))
        if isinstance(expr, ast.FaddExpr):
            return b.fetch_add(self.lower_expr(expr.addr), self.lower_expr(expr.value))
        if isinstance(expr, ast.AtomicLoadExpr):
            return b.load(self.lower_expr(expr.addr), ordering=expr.ordering)
        raise LoweringError(f"unknown expression {type(expr).__name__}")

    def _lower_binary(self, expr: ast.Binary) -> Value:
        # ``a + b + c + ...`` parses left-deep with no nesting limit:
        # walk the left spine in a loop, emitting the same instructions
        # in the same order as recursing on ``lhs`` would.
        spine = [expr]
        while isinstance(spine[-1].lhs, ast.Binary):
            spine.append(spine[-1].lhs)
        value = self.lower_expr(spine[-1].lhs)
        for node in reversed(spine):
            value = self._combine(node.op, value, self.lower_expr(node.rhs))
        return value

    def _combine(self, op: str, lhs: Value, rhs: Value) -> Value:
        b = self.builder
        if op in ("&&", "||"):
            # Non-short-circuit logical ops: normalize to 0/1 and combine.
            # Sufficient for the workloads (conditions are side-effect
            # free) and keeps the CFG simple for the analyses.
            lhs_bool = b.cmp("!=", lhs, Constant(0))
            rhs_bool = b.cmp("!=", rhs, Constant(0))
            return b.binop("&" if op == "&&" else "|", lhs_bool, rhs_bool)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return b.cmp(op, lhs, rhs)
        return b.binop(op, lhs, rhs)


def lower_module(
    module: ast.Module,
    name: str = "program",
    include_manual_fences: bool = False,
) -> Program:
    """Lower a parsed module to a verified, finalized IR program."""
    program = Program(name)
    global_sizes: dict[str, int] = {}
    for g in module.globals:
        program.add_global(GlobalVar(g.name, g.size, tuple(g.init)))
        global_sizes[g.name] = g.size
    for f in module.functions:
        lowerer = FunctionLowerer(f, global_sizes, include_manual_fences)
        program.add_function(lowerer.lower())
    for t in module.threads:
        program.add_thread(t.func_name, t.args)
    program.finalize()
    verify_program(program)
    return program
