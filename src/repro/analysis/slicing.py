"""The intraprocedural backwards slicer (paper Listing 2).

Both acquire-detection algorithms (``Control``, ``Address+Control``)
delegate to this slicer: it walks backwards from seed instructions
through register defs and — for loads — through the stores that may
have produced the loaded value (via alias analysis), registering every
*escaping* read encountered as a synchronization-read candidate.

The ``seen`` set is shared across all slices within one function, both
to terminate on cycles and because slices from different anchors
overlap heavily (the paper notes this as an efficiency measure).
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.aliasing import PointsTo
from repro.analysis.escape import EscapeInfo
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import get_def
from repro.util.orderedset import OrderedSet


class Slicer:
    """Backwards slicer over one function.

    ``chase_load_addresses`` is an extension beyond the paper's
    Listing 2 (which chases only ``potential_writers`` of a load, not
    the load's address operand). It is off by default for faithfulness;
    turning it on gives a strictly more conservative slice and is used
    by an ablation test.
    """

    def __init__(
        self,
        func: Function,
        points_to: PointsTo,
        escape_info: EscapeInfo,
        chase_load_addresses: bool = False,
        writers_cache: dict[int, list[Instruction]] | None = None,
    ) -> None:
        self.function = func
        self.points_to = points_to
        self.escape_info = escape_info
        self.chase_load_addresses = chase_load_addresses
        # Per-load memo over PointsTo's writer index (which answers per
        # pointee set). Overlapping slices ask for the same load again;
        # the query engine's ``writers_cache`` fact is one shared dict,
        # so every slicer over the same function reuses the others'
        # answers.
        self._writers_cache: dict[int, list[Instruction]] = (
            writers_cache if writers_cache is not None else {}
        )

    def _potential_writers(self, inst: Instruction) -> list[Instruction]:
        cached = self._writers_cache.get(id(inst))
        if cached is None:
            cached = self.points_to.potential_writers(inst)
            self._writers_cache[id(inst)] = cached
        return cached

    def slice(
        self,
        work_list: OrderedSet[Instruction],
        seen: set[Instruction],
        sync_reads: OrderedSet[Instruction],
    ) -> None:
        """Listing 2, transcribed.

        Drains ``work_list``; populates ``sync_reads`` with escaping
        reads found in the backwards slice, and ``seen`` with every
        visited instruction.
        """
        while work_list:
            inst = work_list.pop_first()
            if inst in seen:
                continue
            seen.add(inst)

            if inst.reads_memory():  # loads; RMWs read too (Section 3)
                if self.escape_info.is_escaping(inst):
                    sync_reads.add(inst)
                for store in self._potential_writers(inst):
                    work_list.add(store)
                if self.chase_load_addresses:
                    addr_def = get_def(inst.address_operand())
                    if addr_def is not None:
                        work_list.add(addr_def)
            else:
                for operand in inst.operands:
                    operand_def = get_def(operand)
                    if operand_def is not None:
                        work_list.add(operand_def)

    def slice_from_values(
        self,
        values: Iterable,
        seen: set[Instruction],
        sync_reads: OrderedSet[Instruction],
    ) -> None:
        """Seed a slice from operand values (via ``get_def``) and run it."""
        work_list: OrderedSet[Instruction] = OrderedSet()
        for value in values:
            defining = get_def(value)
            if defining is not None:
                work_list.add(defining)
        self.slice(work_list, seen, sync_reads)
