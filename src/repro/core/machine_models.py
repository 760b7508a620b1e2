"""Hardware memory-model descriptions.

A model records which program-order ordering kinds the hardware
enforces by itself. Orderings the hardware enforces still "have to be
preserved during the compilation process" (paper Section 2.1), so they
receive zero-cost compiler directives; the rest need full fences.

The paper evaluates on x86-TSO, where only ``w -> r`` needs a full
fence; SC, PSO, and RMO are provided for the ablation tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class OrderKind(enum.Enum):
    """Program-order ordering types between two memory accesses."""

    RR = "r->r"
    RW = "r->w"
    WR = "w->r"
    WW = "w->w"

    @staticmethod
    def of(src_is_write: bool, dst_is_write: bool) -> "OrderKind":
        if src_is_write:
            return OrderKind.WW if dst_is_write else OrderKind.WR
        return OrderKind.RW if dst_is_write else OrderKind.RR


@dataclass(frozen=True)
class MemoryModel:
    """Which ordering kinds hardware enforces, plus RMW semantics."""

    name: str
    enforced: frozenset[OrderKind]
    # x86 atomic read-modify-writes are LOCK-prefixed and act as full
    # fences; weaker models may not give RMWs fence semantics.
    rmw_is_full_fence: bool = True

    def needs_full_fence(self, kind: OrderKind) -> bool:
        """Does this ordering kind require a hardware fence?"""
        return kind not in self.enforced

    def needs_any_full_fence(self, kinds: "frozenset[OrderKind] | set[OrderKind]") -> bool:
        return any(self.needs_full_fence(k) for k in kinds)


SC = MemoryModel(
    name="sc",
    enforced=frozenset(OrderKind),
    rmw_is_full_fence=True,
)

# x86-TSO: store buffers allow w->r reordering only.
X86_TSO = MemoryModel(
    name="x86-tso",
    enforced=frozenset({OrderKind.RR, OrderKind.RW, OrderKind.WW}),
    rmw_is_full_fence=True,
)

# PSO additionally relaxes w->w (SPARC PSO).
PSO = MemoryModel(
    name="pso",
    enforced=frozenset({OrderKind.RR, OrderKind.RW}),
    rmw_is_full_fence=True,
)

# RMO/weak: nothing enforced, every surviving ordering needs a fence.
RMO = MemoryModel(
    name="rmo",
    enforced=frozenset(),
    rmw_is_full_fence=False,
)

# ARMv7-style relaxed: all four program-order kinds are reorderable and
# exclusive-access RMWs carry no implicit barrier (DMBs do the work).
ARM = MemoryModel(
    name="arm",
    enforced=frozenset(),
    rmw_is_full_fence=False,
)

# POWER: equally relaxed in program order; larger/flavored fence ISA
# (sync vs lwsync) — the flavor catalog lives in :mod:`repro.arch`.
POWER = MemoryModel(
    name="power",
    enforced=frozenset(),
    rmw_is_full_fence=False,
)

MODELS: dict[str, MemoryModel] = {
    m.name: m for m in (SC, X86_TSO, PSO, RMO, ARM, POWER)
}
