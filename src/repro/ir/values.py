"""IR values: constants, virtual registers, and global symbol addresses.

The IR follows the paper's setting (Section 4): an infinite-register
load/store intermediate representation. A :class:`Register` is written
by exactly one instruction (SSA for temporaries); mutable local
variables are lowered to ``alloca`` slots accessed through loads and
stores, which is exactly the shape the paper's backwards slicer
(Listing 2) is written against — it chases loaded values through
``potential_writers`` rather than phi nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional
from weakref import ref

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.instructions import Instruction


class Value:
    """Base class for anything an instruction operand may reference."""

    __slots__ = ()


class Constant(Value):
    """An integer literal (the IR is untyped word-sized, like the paper's)."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if not isinstance(value, int):
            raise TypeError(f"Constant requires int, got {type(value).__name__}")
        self.value = value

    def __repr__(self) -> str:
        return f"Constant({self.value})"

    def __str__(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("const", self.value))


class Register(Value):
    """A virtual register; written by exactly one defining instruction.

    ``defining_inst`` is set when the defining instruction is built,
    and is what the paper's ``get_def(operand)`` returns. The link does
    not own the instruction (its block does), so the IR holds no
    reference cycle and a program is freed as soon as it is dropped.
    """

    __slots__ = ("name", "_definer")

    def __init__(self, name: str) -> None:
        self.name = name
        # Set by ``Instruction.__init__``, once.
        self._definer: Optional[ref["Instruction"]] = None

    @property
    def defining_inst(self) -> Optional["Instruction"]:
        definer = self._definer
        return None if definer is None else definer()

    def __repr__(self) -> str:
        return f"Register(%{self.name})"

    def __str__(self) -> str:
        return f"%{self.name}"


class GlobalRef(Value):
    """The address of a global (shared) location — ``&x`` in the paper.

    Array globals are contiguous; ``GlobalRef`` denotes the base
    address of element 0.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"GlobalRef(@{self.name})"

    def __str__(self) -> str:
        return f"@{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GlobalRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("global", self.name))


def get_def(value: Value) -> Optional["Instruction"]:
    """The paper's ``get_def``: defining instruction of an operand.

    Constants and global addresses have no defining instruction and
    contribute nothing to a backwards slice.
    """
    if isinstance(value, Register):
        return value.defining_inst
    return None
