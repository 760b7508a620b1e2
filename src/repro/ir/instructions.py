"""IR instruction set.

The instruction vocabulary mirrors what the paper's algorithms inspect:

* ``Load`` / ``Store`` — the shared-memory accesses that escape analysis
  classifies and ordering generation pairs up;
* ``Br`` — conditional branches, the anchors of the *control* acquire
  signature (Listing 1);
* ``Gep`` — explicit address calculation (the paper names LLVM's
  ``GetElementPtr``), the anchor of the *address* acquire signature
  (Listing 3), which slices from the **offset** operand;
* dereferences — any load/store whose address operand is itself computed,
  the other anchor of Listing 3 (slices from the address operand);
* ``CmpXchg`` / ``AtomicXchg`` / ``AtomicAdd`` — read-modify-writes, which
  Section 3 of the paper treats as a read followed by a write to the same
  location (and which are implicit full fences on x86);
* ``Fence`` — a full memory fence or a zero-cost compiler directive, the
  two enforcement mechanisms of Section 4.4.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from repro.ir.values import Constant, GlobalRef, Register, Value


class FenceKind(enum.Enum):
    """Full hardware fence (x86 ``mfence``) vs compiler-only directive."""

    FULL = "full"
    COMPILER = "compiler"


class FenceOrigin(enum.Enum):
    """Whether a fence came from the source program or from a tool."""

    MANUAL = "manual"
    INSERTED = "inserted"


_BINARY_OPS = {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}
_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}

#: C11-style ordering qualifiers an atomic load may carry.
LOAD_ORDERINGS = ("relaxed", "acquire")
#: C11-style ordering qualifiers an atomic store may carry.
STORE_ORDERINGS = ("relaxed", "release")


class Instruction:
    """Base instruction. Subclasses define ``operands`` and flags.

    ``parent`` (basic block) and ``uid`` (stable per-function id) are
    assigned when the instruction is appended to a block / the function
    is finalized. Subclasses call ``Instruction.__init__`` directly:
    the hierarchy is one level deep, and lowering builds one
    instruction per IR line, where ``super()`` costs a lookup each.
    """

    __slots__ = ("dest", "parent", "uid")

    def __init__(self, dest: Optional[Register] = None) -> None:
        self.dest = dest
        self.parent = None  # type: ignore[assignment]
        self.uid: int = -1
        if dest is not None:
            if dest.defining_inst is not None:
                raise ValueError(f"register {dest} already defined")
            dest.defining_inst = self

    # --- operand access -------------------------------------------------
    @property
    def operands(self) -> Sequence[Value]:
        """All value operands (excluding ``dest``)."""
        return ()

    # --- classification flags used by the paper's algorithms ------------
    def is_load(self) -> bool:
        return False

    def is_store(self) -> bool:
        return False

    def is_atomic_rmw(self) -> bool:
        return False

    def is_memory_access(self) -> bool:
        """Shared-memory-capable access: load, store, or RMW."""
        return self.is_load() or self.is_store() or self.is_atomic_rmw()

    def reads_memory(self) -> bool:
        return self.is_load() or self.is_atomic_rmw()

    def writes_memory(self) -> bool:
        return self.is_store() or self.is_atomic_rmw()

    def is_cond_branch(self) -> bool:
        return False

    def is_address_calculation(self) -> bool:
        return False

    def is_dereference(self) -> bool:
        """A load/store whose address operand is not a bare global.

        Listing 3 slices from the address of every dereference; direct
        accesses to a named global contribute nothing to such a slice
        (their address is a constant), so treating only computed
        addresses as dereferences is an exact optimization, not an
        approximation.
        """
        addr = self.address_operand()
        return addr is not None and not isinstance(addr, (GlobalRef, Constant))

    def is_terminator(self) -> bool:
        return False

    def is_fence(self) -> bool:
        return False

    def address_operand(self) -> Optional[Value]:
        """The address this instruction dereferences, if any."""
        return None

    def mnemonic(self) -> str:
        return type(self).__name__.lower()

    def __repr__(self) -> str:
        dest = f"{self.dest} = " if self.dest is not None else ""
        ops = ", ".join(str(op) for op in self.operands)
        return f"<{dest}{self.mnemonic()} {ops}>".strip()


class Alloca(Instruction):
    """Allocate ``size`` thread-local words; defines their base address."""

    __slots__ = ("size", "var_name")

    def __init__(self, dest: Register, size: int = 1, var_name: str = "") -> None:
        Instruction.__init__(self, dest)
        if size < 1:
            raise ValueError("alloca size must be >= 1")
        self.size = size
        self.var_name = var_name

    def mnemonic(self) -> str:
        return "alloca"


class Load(Instruction):
    """``dest = *addr``.

    ``ordering`` is the C11-style atomic qualifier: ``None`` for a
    plain (non-atomic) load, ``"relaxed"`` for an atomic load with no
    ordering obligations, ``"acquire"`` for one that orders itself
    before every later access of its thread (kills the ``r->r`` and
    ``r->w`` delays out of it; see :mod:`repro.core.fence_min`).
    """

    __slots__ = ("addr", "ordering")

    def __init__(
        self, dest: Register, addr: Value, ordering: Optional[str] = None
    ) -> None:
        Instruction.__init__(self, dest)
        self.addr = addr
        self.ordering = ordering

    @property
    def operands(self) -> Sequence[Value]:
        return (self.addr,)

    def is_load(self) -> bool:
        return True

    def address_operand(self) -> Optional[Value]:
        return self.addr

    def mnemonic(self) -> str:
        return "load" if self.ordering is None else f"load.{self.ordering}"


class Store(Instruction):
    """``*addr = value``.

    ``ordering`` mirrors :class:`Load`: ``None`` for a plain store,
    ``"relaxed"`` for an atomic store with no ordering obligations,
    ``"release"`` for one that orders every earlier access of its
    thread before itself (kills the ``r->w`` and ``w->w`` delays into
    it).
    """

    __slots__ = ("addr", "value", "ordering")

    def __init__(
        self, addr: Value, value: Value, ordering: Optional[str] = None
    ) -> None:
        Instruction.__init__(self, None)
        self.addr = addr
        self.value = value
        self.ordering = ordering

    @property
    def operands(self) -> Sequence[Value]:
        return (self.addr, self.value)

    def is_store(self) -> bool:
        return True

    def address_operand(self) -> Optional[Value]:
        return self.addr

    def mnemonic(self) -> str:
        return "store" if self.ordering is None else f"store.{self.ordering}"


class BinOp(Instruction):
    """``dest = lhs <op> rhs`` for arithmetic/bitwise ops."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, dest: Register, op: str, lhs: Value, rhs: Value) -> None:
        if op not in _BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        Instruction.__init__(self, dest)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def operands(self) -> Sequence[Value]:
        return (self.lhs, self.rhs)

    def mnemonic(self) -> str:
        return f"binop.{self.op}"


class Cmp(Instruction):
    """``dest = lhs <relop> rhs`` producing 0/1."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, dest: Register, op: str, lhs: Value, rhs: Value) -> None:
        if op not in _CMP_OPS:
            raise ValueError(f"unknown comparison op {op!r}")
        Instruction.__init__(self, dest)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def operands(self) -> Sequence[Value]:
        return (self.lhs, self.rhs)

    def mnemonic(self) -> str:
        return f"cmp.{self.op}"


class Gep(Instruction):
    """``dest = base + offset`` — an explicit address calculation.

    Kept distinct from :class:`BinOp` because Listing 3 anchors address
    slices at address calculations specifically (slicing their offset).
    """

    __slots__ = ("base", "offset")

    def __init__(self, dest: Register, base: Value, offset: Value) -> None:
        Instruction.__init__(self, dest)
        self.base = base
        self.offset = offset

    @property
    def operands(self) -> Sequence[Value]:
        return (self.base, self.offset)

    def is_address_calculation(self) -> bool:
        return True

    def mnemonic(self) -> str:
        return "gep"


class Br(Instruction):
    """Conditional branch on ``cond != 0``."""

    __slots__ = ("cond", "true_label", "false_label")

    def __init__(self, cond: Value, true_label: str, false_label: str) -> None:
        Instruction.__init__(self, None)
        self.cond = cond
        self.true_label = true_label
        self.false_label = false_label

    @property
    def operands(self) -> Sequence[Value]:
        return (self.cond,)

    def is_cond_branch(self) -> bool:
        return True

    def is_terminator(self) -> bool:
        return True

    def mnemonic(self) -> str:
        return "br"


class Jump(Instruction):
    """Unconditional branch."""

    __slots__ = ("target",)

    def __init__(self, target: str) -> None:
        Instruction.__init__(self, None)
        self.target = target

    def is_terminator(self) -> bool:
        return True

    def mnemonic(self) -> str:
        return "jump"


class Ret(Instruction):
    """Function return, optionally with a value."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[Value] = None) -> None:
        Instruction.__init__(self, None)
        self.value = value

    @property
    def operands(self) -> Sequence[Value]:
        return () if self.value is None else (self.value,)

    def is_terminator(self) -> bool:
        return True

    def mnemonic(self) -> str:
        return "ret"


class Call(Instruction):
    """Direct call. Analyses are intraprocedural (paper Section 4) and
    treat calls conservatively; the interpreter executes them."""

    __slots__ = ("callee", "args")

    def __init__(self, dest: Optional[Register], callee: str, args: Sequence[Value]) -> None:
        Instruction.__init__(self, dest)
        self.callee = callee
        self.args = tuple(args)

    @property
    def operands(self) -> Sequence[Value]:
        return self.args

    def mnemonic(self) -> str:
        return f"call @{self.callee}"


class Fence(Instruction):
    """Memory fence: ``FULL`` (mfence) or ``COMPILER`` (directive).

    ``flavor`` names the ISA fence mnemonic a full fence lowers to
    (e.g. ``"lwsync"``, ``"dmb"``; see :mod:`repro.arch`). ``None`` is
    the generic full fence — strongest semantics, and the only shape
    the pre-arch pipeline ever emitted, so unflavored programs print
    and behave exactly as before. Compiler directives never carry a
    flavor (they have no hardware presence to name).
    """

    __slots__ = ("kind", "origin", "flavor")

    def __init__(
        self,
        kind: FenceKind = FenceKind.FULL,
        origin: FenceOrigin = FenceOrigin.INSERTED,
        flavor: Optional[str] = None,
    ) -> None:
        Instruction.__init__(self, None)
        self.kind = kind
        self.origin = origin
        self.flavor = flavor

    def is_fence(self) -> bool:
        return True

    def mnemonic(self) -> str:
        if self.flavor is not None:
            return f"fence.{self.kind.value}[{self.flavor}]"
        return f"fence.{self.kind.value}"


class CmpXchg(Instruction):
    """``dest = CAS(addr, expected, new)``; returns the old value.

    A read-modify-write: reads and (possibly) writes ``*addr``
    atomically. On x86 this is a locked instruction and acts as a full
    fence, which the fence-minimization machinery exploits.
    """

    __slots__ = ("addr", "expected", "new")

    def __init__(self, dest: Register, addr: Value, expected: Value, new: Value) -> None:
        Instruction.__init__(self, dest)
        self.addr = addr
        self.expected = expected
        self.new = new

    @property
    def operands(self) -> Sequence[Value]:
        return (self.addr, self.expected, self.new)

    def is_atomic_rmw(self) -> bool:
        return True

    def address_operand(self) -> Optional[Value]:
        return self.addr

    def mnemonic(self) -> str:
        return "cmpxchg"


class AtomicXchg(Instruction):
    """``dest = atomic swap(*addr, value)``; returns the old value."""

    __slots__ = ("addr", "value")

    def __init__(self, dest: Register, addr: Value, value: Value) -> None:
        Instruction.__init__(self, dest)
        self.addr = addr
        self.value = value

    @property
    def operands(self) -> Sequence[Value]:
        return (self.addr, self.value)

    def is_atomic_rmw(self) -> bool:
        return True

    def address_operand(self) -> Optional[Value]:
        return self.addr

    def mnemonic(self) -> str:
        return "xchg"


class AtomicAdd(Instruction):
    """``dest = fetch_and_add(*addr, value)``; returns the old value."""

    __slots__ = ("addr", "value")

    def __init__(self, dest: Register, addr: Value, value: Value) -> None:
        Instruction.__init__(self, dest)
        self.addr = addr
        self.value = value

    @property
    def operands(self) -> Sequence[Value]:
        return (self.addr, self.value)

    def is_atomic_rmw(self) -> bool:
        return True

    def address_operand(self) -> Optional[Value]:
        return self.addr

    def mnemonic(self) -> str:
        return "fadd"


class Observe(Instruction):
    """Record a named value in the executing thread's observation log.

    Used by litmus tests and examples to expose data-read results (the
    paper's notion of program behaviour is "the values returned by the
    data reads", Section 3) without routing them through shared memory.
    """

    __slots__ = ("label", "value")

    def __init__(self, label: str, value: Value) -> None:
        Instruction.__init__(self, None)
        self.label = label
        self.value = value

    @property
    def operands(self) -> Sequence[Value]:
        return (self.value,)

    def mnemonic(self) -> str:
        return f"observe[{self.label}]"
