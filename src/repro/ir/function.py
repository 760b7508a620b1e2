"""Basic blocks, functions, global variables, and whole programs.

A :class:`Program` is the unit the end-to-end pipeline operates on: a
set of global (shared) variables, a set of functions, and a static list
of thread entry points. Static threads are sufficient for the paper's
workloads (litmus tests, synchronization kernels, benchmark models) and
keep the memory-model explorers finite.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from repro.ir.instructions import Instruction, Jump, Br
from repro.ir.values import Register


class BasicBlock:
    """A labeled straight-line instruction sequence ending in a terminator."""

    __slots__ = ("label", "instructions", "index")

    def __init__(self, label: str) -> None:
        self.label = label
        self.instructions: list[Instruction] = []
        self.index: int = -1  # position within the function

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated():
            raise ValueError(f"block {self.label} already terminated")
        self.instructions.append(inst)
        return inst

    def insert(self, pos: int, inst: Instruction) -> Instruction:
        """Insert at ``pos`` (used by fence insertion)."""
        self.instructions.insert(pos, inst)
        return inst

    def is_terminated(self) -> bool:
        return bool(self.instructions) and self.instructions[-1].is_terminator()

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.is_terminated():
            return self.instructions[-1]
        return None

    def successor_labels(self) -> tuple[str, ...]:
        term = self.terminator
        if isinstance(term, Br):
            if term.true_label == term.false_label:
                return (term.true_label,)
            return (term.true_label, term.false_label)
        if isinstance(term, Jump):
            return (term.target,)
        return ()  # Ret or unterminated

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.instructions)} insts)>"


#: Source of :attr:`Function.generation` values, shared by every function.
_generations = itertools.count(1)


class Function:
    """A function: parameters (registers) and an ordered list of blocks.

    ``finalize()`` assigns stable instruction uids and block indices;
    analyses require a finalized function. An edit to a function's IR
    is followed by ``finalize()`` (fence insertion does this), which
    also gives it a fresh ``generation``: a query engine re-prints and
    re-fingerprints only functions whose generation moved, so it sees
    an in-place edit once the function is finalized, not before.
    """

    __slots__ = (
        "name", "params", "blocks", "_blocks_by_label", "_positions",
        "generation",
    )

    def __init__(self, name: str, params: Sequence[Register] = ()) -> None:
        self.name = name
        self.params = tuple(params)
        self.blocks: list[BasicBlock] = []
        self._blocks_by_label: dict[str, BasicBlock] = {}
        self._positions: dict[int, tuple[int, int]] = {}
        #: Distinct after every ``finalize()`` (0 before the first).
        self.generation = 0

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, label: str) -> BasicBlock:
        if label in self._blocks_by_label:
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label)
        self.blocks.append(block)
        self._blocks_by_label[label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        return self._blocks_by_label[label]

    def finalize(self) -> "Function":
        """Assign block indices and instruction uids/positions, and a
        fresh :attr:`generation`."""
        self.generation = next(_generations)
        self._positions.clear()
        uid = 0
        for bi, block in enumerate(self.blocks):
            block.index = bi
            for ii, inst in enumerate(block.instructions):
                inst.uid = uid
                self._positions[id(inst)] = (bi, ii)
                uid += 1
        return self

    def position(self, inst: Instruction) -> tuple[int, int]:
        """(block index, index within block) of a finalized instruction."""
        try:
            return self._positions[id(inst)]
        except KeyError:
            raise KeyError(
                f"instruction {inst!r} not in finalized function {self.name}"
            ) from None

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def memory_accesses(self) -> list[Instruction]:
        """All loads, stores, and RMWs in block/statement order."""
        return [i for i in self.instructions() if i.is_memory_access()]

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


class GlobalVar:
    """A shared global variable: a scalar (size 1) or contiguous array.

    Initializer entries are ints, or ``("&", name)`` tuples denoting
    the address of another global (resolved when memory is laid out).
    """

    __slots__ = ("name", "size", "init")

    def __init__(self, name: str, size: int = 1, init: Sequence | int = 0) -> None:
        if size < 1:
            raise ValueError("global size must be >= 1")
        self.name = name
        self.size = size
        if isinstance(init, int):
            self.init = tuple([init] * size)
        else:
            init = tuple(init)
            if len(init) != size:
                raise ValueError(
                    f"init length {len(init)} does not match size {size} for {name}"
                )
            for entry in init:
                if not isinstance(entry, int) and not (
                    isinstance(entry, tuple)
                    and len(entry) == 2
                    and entry[0] == "&"
                    and isinstance(entry[1], str)
                ):
                    raise ValueError(f"bad initializer entry {entry!r} for {name}")
            self.init = init

    def __repr__(self) -> str:
        return f"<GlobalVar @{self.name}[{self.size}]>"


class ThreadSpec:
    """A static thread: entry function name plus integer arguments."""

    __slots__ = ("func_name", "args")

    def __init__(self, func_name: str, args: Sequence[int] = ()) -> None:
        self.func_name = func_name
        self.args = tuple(args)

    def __repr__(self) -> str:
        return f"<Thread {self.func_name}{self.args}>"


class Program:
    """A whole multithreaded program (the analysis and execution unit)."""

    __slots__ = ("name", "globals", "functions", "threads")

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.globals: dict[str, GlobalVar] = {}
        self.functions: dict[str, Function] = {}
        self.threads: list[ThreadSpec] = []

    def add_global(self, var: GlobalVar) -> GlobalVar:
        if var.name in self.globals:
            raise ValueError(f"duplicate global {var.name!r}")
        self.globals[var.name] = var
        return var

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def add_thread(self, func_name: str, args: Iterable[int] = ()) -> ThreadSpec:
        spec = ThreadSpec(func_name, tuple(args))
        self.threads.append(spec)
        return spec

    def finalize(self) -> "Program":
        for func in self.functions.values():
            func.finalize()
        return self

    def fences(self) -> list[Instruction]:
        """All fence instructions across the program, in stable order."""
        result = []
        for name in sorted(self.functions):
            for inst in self.functions[name].instructions():
                if inst.is_fence():
                    result.append(inst)
        return result

    def __repr__(self) -> str:
        return (
            f"<Program {self.name}: {len(self.globals)} globals, "
            f"{len(self.functions)} functions, {len(self.threads)} threads>"
        )
