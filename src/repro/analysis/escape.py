"""Pensieve-style thread-escape analysis.

Per the paper (Section 2.1): "a conservative thread-escape analysis is
performed on each access in a function, to determine a set of
potentially escaping accesses E ... all references to memory that
cannot be proven to be restricted to the local function must be marked
as potentially escaping."

An access is *local* (non-escaping) only if its address provably
denotes non-escaped ``alloca`` slots; everything else — globals,
pointers from parameters, values loaded from shared memory, call
results — is potentially escaping.
"""

from __future__ import annotations

from repro.analysis.aliasing import PointsTo
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.util.orderedset import OrderedSet


class EscapeInfo:
    """Classification of every memory access in one function."""

    def __init__(self, func: Function, points_to: PointsTo | None = None) -> None:
        self.function = func
        self.points_to = points_to if points_to is not None else PointsTo(func)
        self.escaping: OrderedSet[Instruction] = OrderedSet()
        self.local: OrderedSet[Instruction] = OrderedSet()
        for inst in func.instructions():
            if not inst.is_memory_access():
                continue
            addr = inst.address_operand()
            if addr is not None and self.points_to.is_local_address(addr):
                self.local.add(inst)
            else:
                self.escaping.add(inst)
        #: Potentially thread-escaping reads (loads and RMWs). Like
        #: every set here, built once and read-only to every caller.
        self.escaping_reads: OrderedSet[Instruction] = OrderedSet(
            i for i in self.escaping if i.reads_memory()
        )
        #: Potentially thread-escaping writes (stores and RMWs). The
        #: paper treats *every* escaping write as a release (Section
        #: 1.3: "as in Pensieve, conservatively consider every shared
        #: write (escaping write) to be a release").
        self.escaping_writes: OrderedSet[Instruction] = OrderedSet(
            i for i in self.escaping if i.writes_memory()
        )
        #: The fence pipeline's last result for this function, kept by
        #: :meth:`repro.core.pipeline.FencePlacer.analyze_function`; it
        #: is dropped with these facts.
        self.pipeline_memo: object = None

    def is_escaping(self, inst: Instruction) -> bool:
        return inst in self.escaping

    def summary(self) -> dict[str, int]:
        return {
            "accesses": len(self.escaping) + len(self.local),
            "escaping": len(self.escaping),
            "local": len(self.local),
            "escaping_reads": len(self.escaping_reads),
            "escaping_writes": len(self.escaping_writes),
        }
