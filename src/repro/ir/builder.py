"""Convenience builder for constructing IR functions programmatically.

Used by the frontend's lowering pass and by tests that hand-build the
paper's examples (MP, MP-with-pointers, Dekker, the Fig. 2 worked
example).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    AtomicAdd,
    AtomicXchg,
    BinOp,
    Br,
    Call,
    Cmp,
    CmpXchg,
    Fence,
    FenceKind,
    FenceOrigin,
    Gep,
    Instruction,
    Jump,
    Load,
    Observe,
    Ret,
    Store,
)
from repro.ir.values import Constant, Register, Value


class IRBuilder:
    """Builds one function; tracks the current insertion block.

    ``terminated`` says whether the current block already ends in a
    terminator. The builder keeps it up to date through ``set_block``
    and its own ``br``/``jump``/``ret``, so appending costs no look at
    the block's last instruction; an instruction appended to the block
    directly (``builder.current.append``) must not be a terminator.
    """

    def __init__(self, name: str, param_names: Sequence[str] = ()) -> None:
        self._reg_counter = 0
        self._label_counter = 0
        params = tuple(Register(p) for p in param_names)
        self.function = Function(name, params)
        self.current: Optional[BasicBlock] = None
        self.terminated = False

    # --- registers, labels, blocks ---------------------------------------
    def fresh_reg(self, hint: str = "") -> Register:
        n = self._reg_counter
        self._reg_counter = n + 1
        return Register(f"{hint}{n}")

    def fresh_label(self, hint: str = "bb") -> str:
        label = f"{hint}{self._label_counter}"
        self._label_counter += 1
        return label

    def block(self, label: Optional[str] = None) -> BasicBlock:
        """Create a new block (does not switch insertion point)."""
        return self.function.add_block(label or self.fresh_label())

    def set_block(self, block: BasicBlock) -> BasicBlock:
        self.current = block
        self.terminated = block.is_terminated()
        return block

    def new_block(self, label: Optional[str] = None) -> BasicBlock:
        """Create a new block and make it current."""
        return self.set_block(self.block(label))

    def _append(self, inst: Instruction) -> Instruction:
        block = self.current
        if block is None:
            raise ValueError("no current block; call new_block() first")
        if self.terminated:
            raise ValueError(f"block {block.label} already terminated")
        block.instructions.append(inst)
        return inst

    def _terminate(self, inst: Instruction) -> None:
        self._append(inst)
        self.terminated = True

    # --- value helpers ----------------------------------------------------
    @staticmethod
    def const(value: int) -> Constant:
        return Constant(value)

    # --- instructions -------------------------------------------------------
    def alloca(self, size: int = 1, var_name: str = "") -> Register:
        dest = self.fresh_reg()
        self._append(Alloca(dest, size, var_name))
        return dest

    def load(self, addr: Value, ordering: Optional[str] = None) -> Register:
        dest = self.fresh_reg()
        self._append(Load(dest, addr, ordering))
        return dest

    def store(
        self, addr: Value, value: Value, ordering: Optional[str] = None
    ) -> None:
        self._append(Store(addr, value, ordering))

    def binop(self, op: str, lhs: Value, rhs: Value) -> Register:
        dest = self.fresh_reg()
        self._append(BinOp(dest, op, lhs, rhs))
        return dest

    def cmp(self, op: str, lhs: Value, rhs: Value) -> Register:
        dest = self.fresh_reg()
        self._append(Cmp(dest, op, lhs, rhs))
        return dest

    def gep(self, base: Value, offset: Value) -> Register:
        dest = self.fresh_reg()
        self._append(Gep(dest, base, offset))
        return dest

    def br(self, cond: Value, true_label: str, false_label: str) -> None:
        self._terminate(Br(cond, true_label, false_label))

    def jump(self, target: str) -> None:
        self._terminate(Jump(target))

    def ret(self, value: Optional[Value] = None) -> None:
        self._terminate(Ret(value))

    def call(
        self, callee: str, args: Sequence[Value], returns: bool = False
    ) -> Optional[Register]:
        dest = self.fresh_reg() if returns else None
        self._append(Call(dest, callee, args))
        return dest

    def fence(
        self,
        kind: FenceKind = FenceKind.FULL,
        origin: FenceOrigin = FenceOrigin.INSERTED,
        flavor: Optional[str] = None,
    ) -> None:
        self._append(Fence(kind, origin, flavor))

    def cmpxchg(self, addr: Value, expected: Value, new: Value) -> Register:
        dest = self.fresh_reg()
        self._append(CmpXchg(dest, addr, expected, new))
        return dest

    def xchg(self, addr: Value, value: Value) -> Register:
        dest = self.fresh_reg()
        self._append(AtomicXchg(dest, addr, value))
        return dest

    def fetch_add(self, addr: Value, value: Value) -> Register:
        dest = self.fresh_reg()
        self._append(AtomicAdd(dest, addr, value))
        return dest

    def observe(self, label: str, value: Value) -> None:
        self._append(Observe(label, value))

    # --- finishing ---------------------------------------------------------
    def build(self) -> Function:
        """Terminate any fall-through block with ``ret`` and finalize."""
        for block in self.function.blocks:
            if not block.is_terminated():
                block.append(Ret(None))
        return self.function.finalize()
