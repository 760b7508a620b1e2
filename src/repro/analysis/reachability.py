"""CFG reachability lookup table for ordering generation.

Paper Section 4.3: "Whether there exists a path between basic blocks is
determined prior to this process with an examination of the CFG, to
create a lookup table of reachability. This can then be queried during
ordering generation."
"""

from __future__ import annotations

from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import Instruction


class ReachabilityTable:
    """Answers "can execution flow from access u to access v?" queries.

    Within a basic block, statement order decides. Across blocks, the
    precomputed block-level reachability decides. A later statement can
    also reach an earlier one in the same block when the block lies on
    a CFG cycle (the next loop iteration).
    """

    def __init__(self, func: Function, cfg: CFG | None = None) -> None:
        self.function = func
        self.cfg = cfg if cfg is not None else CFG(func)

    def exists_path(self, u: Instruction, v: Instruction) -> bool:
        """True if some execution path runs from ``u`` to ``v``.

        ``u == v`` counts only via a cycle (the access reaching its own
        next dynamic instance).
        """
        u_block, u_index = self.function.position(u)
        v_block, v_index = self.function.position(v)
        u_label = self.function.blocks[u_block].label
        v_label = self.function.blocks[v_block].label
        if u_block == v_block and u_index < v_index:
            return True
        return self.cfg.reaches(u_label, v_label)
