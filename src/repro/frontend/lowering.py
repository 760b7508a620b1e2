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
from typing import NoReturn, Optional

from repro.frontend import ast_nodes as ast
from repro.ir.builder import IRBuilder
from repro.ir.function import GlobalVar, Program
from repro.ir.instructions import FenceKind, FenceOrigin
from repro.ir.values import Constant, GlobalRef, Register, Value
from repro.ir.verifier import verify_program


class LoweringError(Exception):
    """Raised on semantic errors (undefined names, bad targets, ...)."""


@dataclass
class _LocalSlot:
    """A local variable: its alloca register and declared size."""

    addr: Register
    size: int


class _ModuleScope:
    """What the functions of one module share while they are lowered:
    each global's size and its one ``GlobalRef``, each function's
    parameter count, and one ``Constant`` per value. Operands are
    immutable values, so instructions share them."""

    __slots__ = ("global_sizes", "global_refs", "arities", "constants")

    def __init__(self) -> None:
        self.global_sizes: dict[str, int] = {}
        self.global_refs: dict[str, GlobalRef] = {}
        self.arities: dict[str, int] = {}
        self.constants: dict[int, Constant] = {0: Constant(0)}


class _LoopContext:
    """Break/continue targets for the innermost loop."""

    __slots__ = ("continue_label", "break_label")

    def __init__(self, continue_label: str, break_label: str) -> None:
        self.continue_label = continue_label
        self.break_label = break_label


class FunctionLowerer:
    """Lowers one function. ``lower_stmt`` and ``lower_expr`` dispatch
    on the node's class through ``_STMT_RULES`` and ``_EXPR_RULES``."""

    def __init__(
        self, func: ast.FuncDecl, scope: _ModuleScope, include_manual_fences: bool
    ) -> None:
        self.decl = func
        self.global_sizes = scope.global_sizes
        self.global_refs = scope.global_refs
        self.arities = scope.arities
        self.constants = scope.constants
        self.zero = scope.constants[0]
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
        _STMT_RULES[type(stmt)](self, stmt)

    def _lower_local(self, stmt: ast.LocalDecl) -> None:
        if stmt.name in self.locals:
            raise LoweringError(
                f"line {stmt.line}: duplicate local {stmt.name!r} in {self.decl.name}"
            )
        if stmt.size < 1:
            raise LoweringError(
                f"line {stmt.line}: local array {stmt.name!r} has size {stmt.size}; "
                "sizes must be >= 1"
            )
        slot = self.builder.alloca(stmt.size, var_name=stmt.name)
        self.locals[stmt.name] = _LocalSlot(slot, stmt.size)
        if stmt.init is not None:
            self.builder.store(slot, self.lower_expr(stmt.init))

    def _lower_assign(self, stmt: ast.Assign) -> None:
        value = self.lower_expr(stmt.value)
        addr = self.lower_address_of(stmt.target)
        self.builder.store(addr, value)

    def _lower_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        if type(stmt.expr) is ast.CallExpr:
            self._lower_call(stmt.expr, returns=False)  # the result is unused
        else:
            self.lower_expr(stmt.expr)

    def _lower_return(self, stmt: ast.Return) -> None:
        b = self.builder
        value = None if stmt.value is None else self.lower_expr(stmt.value)
        b.ret(value)
        b.new_block()  # dead continuation for any trailing statements

    def _lower_break(self, stmt: ast.Break) -> None:
        if not self.loop_stack:
            raise LoweringError(f"line {stmt.line}: break outside loop")
        self.builder.jump(self.loop_stack[-1].break_label)
        self.builder.new_block()

    def _lower_continue(self, stmt: ast.Continue) -> None:
        if not self.loop_stack:
            raise LoweringError(f"line {stmt.line}: continue outside loop")
        self.builder.jump(self.loop_stack[-1].continue_label)
        self.builder.new_block()

    def _lower_fence(self, stmt: ast.FenceStmt) -> None:
        if self.include_manual_fences:
            kind = FenceKind.FULL if stmt.full else FenceKind.COMPILER
            self.builder.fence(kind, FenceOrigin.MANUAL, flavor=stmt.flavor)

    def _lower_atomic_store(self, stmt: ast.AtomicStoreStmt) -> None:
        value = self.lower_expr(stmt.value)
        addr = self.lower_expr(stmt.addr)
        self.builder.store(addr, value, ordering=stmt.ordering)

    def _lower_observe(self, stmt: ast.ObserveStmt) -> None:
        self.builder.observe(stmt.label, self.lower_expr(stmt.expr))

    def _lower_if(self, stmt: ast.If) -> None:
        b = self.builder
        cond = self.lower_expr(stmt.cond)
        then_label = b.fresh_label("then")
        merge_label = b.fresh_label("endif")
        else_label = b.fresh_label("else") if stmt.els is not None else merge_label
        b.br(cond, then_label, else_label)
        b.set_block(b.function.add_block(then_label))
        for inner in stmt.then.stmts:
            self.lower_stmt(inner)
        if not b.terminated:
            b.jump(merge_label)
        if stmt.els is not None:
            b.set_block(b.function.add_block(else_label))
            for inner in stmt.els.stmts:
                self.lower_stmt(inner)
            if not b.terminated:
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
        for inner in stmt.body.stmts:
            self.lower_stmt(inner)
        self.loop_stack.pop()
        if not b.terminated:
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
        for inner in stmt.body.stmts:
            self.lower_stmt(inner)
        self.loop_stack.pop()
        if not b.terminated:
            b.jump(step_label)
        b.set_block(b.function.add_block(step_label))
        if stmt.step is not None:
            self.lower_stmt(stmt.step)
        b.jump(header_label)
        b.set_block(b.function.add_block(exit_label))

    # --- addresses --------------------------------------------------------
    def lower_address_of(self, target: ast.Expr) -> Value:
        """Address of an lvalue (assignment target or ``&`` operand)."""
        kind = type(target)
        if kind is ast.Var:
            slot = self.locals.get(target.name)
            if slot is not None:
                return slot.addr
            if target.name in self.global_sizes:
                return self.global_refs[target.name]
            raise LoweringError(
                f"line {target.line}: undefined variable {target.name!r}"
            )
        if kind is ast.Index:
            base = self._lower_base_address(target.base)
            offset = self.lower_expr(target.index)
            return self.builder.gep(base, offset)
        if kind is ast.Unary and target.op == "*":
            return self.lower_expr(target.operand)
        raise LoweringError(f"line {target.line}: expression is not an lvalue")

    def _lower_base_address(self, base: ast.Expr) -> Value:
        """Base pointer of an indexing expression.

        An array *name* denotes its base address; anything else is a
        pointer-valued expression.
        """
        if type(base) is ast.Var:
            slot = self.locals.get(base.name)
            if slot is not None:
                if slot.size > 1:
                    return slot.addr  # local array decays to its address
                return self.builder.load(slot.addr)  # scalar holding a pointer
            size = self.global_sizes.get(base.name)
            if size is not None:
                if size > 1:
                    return self.global_refs[base.name]
                return self.builder.load(self.global_refs[base.name])
            raise LoweringError(f"line {base.line}: undefined variable {base.name!r}")
        return self.lower_expr(base)

    # --- expressions ----------------------------------------------------------
    def lower_expr(self, expr: ast.Expr) -> Value:
        return _EXPR_RULES[type(expr)](self, expr)

    def _lower_num(self, expr: ast.Num) -> Value:
        const = self.constants.get(expr.value)
        if const is None:
            const = self.constants[expr.value] = Constant(expr.value)
        return const

    def _lower_var(self, expr: ast.Var) -> Value:
        slot = self.locals.get(expr.name)
        if slot is not None:
            if slot.size > 1:
                return slot.addr  # array decays to pointer
            return self.builder.load(slot.addr)
        size = self.global_sizes.get(expr.name)
        if size is not None:
            if size > 1:
                return self.global_refs[expr.name]
            return self.builder.load(self.global_refs[expr.name])
        raise LoweringError(f"line {expr.line}: undefined variable {expr.name!r}")

    def _lower_unary(self, expr: ast.Unary) -> Value:
        b = self.builder
        op = expr.op
        if op == "&":
            return self.lower_address_of(expr.operand)
        if op == "*":
            return b.load(self.lower_expr(expr.operand))
        if op == "-":
            return b.binop("-", self.zero, self.lower_expr(expr.operand))
        if op == "!":
            return b.cmp("==", self.lower_expr(expr.operand), self.zero)
        raise LoweringError(f"line {expr.line}: unknown unary op {op!r}")

    def _lower_index(self, expr: ast.Index) -> Value:
        base = self._lower_base_address(expr.base)
        offset = self.lower_expr(expr.index)
        b = self.builder
        return b.load(b.gep(base, offset))

    def _lower_call_expr(self, expr: ast.CallExpr) -> Value:
        return self._lower_call(expr, returns=True)

    def _lower_call(self, expr: ast.CallExpr, returns: bool) -> Optional[Register]:
        arity = self.arities.get(expr.callee)
        if arity is not None and arity != len(expr.args):
            raise LoweringError(
                f"line {expr.line}: call to {expr.callee!r} passes "
                f"{len(expr.args)} arguments for {arity} parameters"
            )
        args = [self.lower_expr(a) for a in expr.args]
        return self.builder.call(expr.callee, args, returns=returns)

    def _lower_cas(self, expr: ast.CasExpr) -> Value:
        return self.builder.cmpxchg(
            self.lower_expr(expr.addr),
            self.lower_expr(expr.expected),
            self.lower_expr(expr.new),
        )

    def _lower_xchg(self, expr: ast.XchgExpr) -> Value:
        return self.builder.xchg(self.lower_expr(expr.addr), self.lower_expr(expr.value))

    def _lower_fadd(self, expr: ast.FaddExpr) -> Value:
        return self.builder.fetch_add(self.lower_expr(expr.addr), self.lower_expr(expr.value))

    def _lower_atomic_load(self, expr: ast.AtomicLoadExpr) -> Value:
        return self.builder.load(self.lower_expr(expr.addr), ordering=expr.ordering)

    def _lower_binary(self, expr: ast.Binary) -> Value:
        # ``a + b + c + ...`` parses left-deep with no nesting limit:
        # walk the left spine in a loop, emitting the same instructions
        # in the same order as recursing on ``lhs`` would.
        spine = []
        while type(expr) is ast.Binary:
            spine.append(expr)
            expr = expr.lhs
        b = self.builder
        value = self.lower_expr(expr)
        for node in reversed(spine):
            op = node.op
            rhs = self.lower_expr(node.rhs)
            if op in _CMP_OPS:
                value = b.cmp(op, value, rhs)
            elif op == "&&" or op == "||":
                # Non-short-circuit logical ops: normalize to 0/1 and
                # combine. Sufficient for the workloads (conditions are
                # side-effect free) and keeps the CFG simple for the
                # analyses.
                lhs_bool = b.cmp("!=", value, self.zero)
                rhs_bool = b.cmp("!=", rhs, self.zero)
                value = b.binop("&" if op == "&&" else "|", lhs_bool, rhs_bool)
            else:
                value = b.binop(op, value, rhs)
        return value


_CMP_OPS = frozenset(("==", "!=", "<", "<=", ">", ">="))

class _Rules(dict):
    """Lowering rules by node class; a class without one is an error."""

    def __init__(self, what: str, rules: dict) -> None:
        super().__init__(rules)
        self.what = what

    def __missing__(self, kind: type) -> NoReturn:
        raise LoweringError(f"unknown {self.what} {kind.__name__}")


_STMT_RULES = _Rules("statement", {
    ast.Block: FunctionLowerer.lower_block,
    ast.LocalDecl: FunctionLowerer._lower_local,
    ast.Assign: FunctionLowerer._lower_assign,
    ast.ExprStmt: FunctionLowerer._lower_expr_stmt,
    ast.If: FunctionLowerer._lower_if,
    ast.While: FunctionLowerer._lower_while,
    ast.For: FunctionLowerer._lower_for,
    ast.Return: FunctionLowerer._lower_return,
    ast.Break: FunctionLowerer._lower_break,
    ast.Continue: FunctionLowerer._lower_continue,
    ast.FenceStmt: FunctionLowerer._lower_fence,
    ast.AtomicStoreStmt: FunctionLowerer._lower_atomic_store,
    ast.ObserveStmt: FunctionLowerer._lower_observe,
})

_EXPR_RULES = _Rules("expression", {
    ast.Num: FunctionLowerer._lower_num,
    ast.Var: FunctionLowerer._lower_var,
    ast.Unary: FunctionLowerer._lower_unary,
    ast.Binary: FunctionLowerer._lower_binary,
    ast.Index: FunctionLowerer._lower_index,
    ast.CallExpr: FunctionLowerer._lower_call_expr,
    ast.CasExpr: FunctionLowerer._lower_cas,
    ast.XchgExpr: FunctionLowerer._lower_xchg,
    ast.FaddExpr: FunctionLowerer._lower_fadd,
    ast.AtomicLoadExpr: FunctionLowerer._lower_atomic_load,
})


def lower_module(
    module: ast.Module,
    name: str = "program",
    include_manual_fences: bool = False,
) -> Program:
    """Lower a parsed module to a verified, finalized IR program.

    Raises :class:`LoweringError` (``line N: ...``) on a duplicate
    global or function, an array of size below 1, a global initializer
    taking the address of an undeclared global, or a call whose
    argument count differs from the callee's parameters.
    """
    program = Program(name)
    scope = _ModuleScope()
    global_sizes = scope.global_sizes
    for g in module.globals:
        if g.name in global_sizes:
            raise LoweringError(f"line {g.line}: duplicate global {g.name!r}")
        if g.size < 1:
            raise LoweringError(
                f"line {g.line}: global array {g.name!r} has size {g.size}; "
                "sizes must be >= 1"
            )
        program.add_global(GlobalVar(g.name, g.size, tuple(g.init)))
        global_sizes[g.name] = g.size
        scope.global_refs[g.name] = GlobalRef(g.name)
    for g in module.globals:
        for entry in g.init:
            if isinstance(entry, tuple) and entry[1] not in global_sizes:
                raise LoweringError(
                    f"line {g.line}: initializer of {g.name!r} takes the address "
                    f"of undeclared global {entry[1]!r}"
                )
    for f in module.functions:
        if f.name in scope.arities:
            raise LoweringError(f"line {f.line}: duplicate function {f.name!r}")
        scope.arities[f.name] = len(f.params)
    for f in module.functions:
        # ``build`` finalizes each function, so the program needs no
        # ``finalize`` of its own.
        program.add_function(FunctionLowerer(f, scope, include_manual_fences).lower())
    for t in module.threads:
        program.add_thread(t.func_name, t.args)
    verify_program(program)
    return program
