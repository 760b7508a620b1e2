"""Acquire detection: the paper's two signature-matching algorithms.

* :func:`detect_control_acquires` — Listing 1 (``Control``): for each
  conditional branch, backwards-slice from the defs of its operands;
  every escaping read in such a slice matches the *control* signature.

* :func:`detect_address_acquires` — the address half of Listing 3: for
  each address calculation, slice from its **offset**; for each
  dereference (computed-address load/store/RMW), slice from its address
  operand. Escaping reads found match the *address* signature.

* :func:`detect_acquires` — the public entry point; variant
  ``ADDRESS_CONTROL`` is Listing 3 (union of both signatures, shared
  ``seen`` set), variant ``CONTROL`` is Listing 1.

Theorem 3.1 guarantees every true acquire matches at least one
signature, so the detected set is a conservative over-approximation of
the synchronization reads (within the paper's same-function assumption,
Section 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.aliasing import PointsTo
from repro.analysis.escape import EscapeInfo
from repro.analysis.slicing import Slicer
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.util.orderedset import OrderedSet

if TYPE_CHECKING:
    from repro.query.engine import QueryEngine


class Variant(enum.Enum):
    """Which acquire-detection algorithm to run."""

    CONTROL = "control"
    ADDRESS_CONTROL = "address+control"


@dataclass
class AcquireResult:
    """Acquire detection output for one function."""

    function: Function
    variant: Variant
    sync_reads: OrderedSet[Instruction]
    seen: set[Instruction] = field(default_factory=set)

    def is_acquire(self, inst: Instruction) -> bool:
        return inst in self.sync_reads


def detect_control_acquires(
    func: Function,
    points_to: PointsTo,
    escape_info: EscapeInfo,
    seen: set[Instruction] | None = None,
    sync_reads: OrderedSet[Instruction] | None = None,
    slicer: Slicer | None = None,
) -> OrderedSet[Instruction]:
    """Listing 1: escaping reads with a conditional branch in their
    forward slice, found by slicing backwards from each branch."""
    slicer = slicer if slicer is not None else Slicer(func, points_to, escape_info)
    seen = seen if seen is not None else set()
    sync_reads = sync_reads if sync_reads is not None else OrderedSet()
    for inst in func.instructions():
        if inst.is_cond_branch():
            slicer.slice_from_values(inst.operands, seen, sync_reads)
    return sync_reads


def detect_address_acquires(
    func: Function,
    points_to: PointsTo,
    escape_info: EscapeInfo,
    seen: set[Instruction] | None = None,
    sync_reads: OrderedSet[Instruction] | None = None,
    slicer: Slicer | None = None,
) -> OrderedSet[Instruction]:
    """The address-signature half of Listing 3: slice from every
    address calculation's offset and every dereference's address."""
    slicer = slicer if slicer is not None else Slicer(func, points_to, escape_info)
    seen = seen if seen is not None else set()
    sync_reads = sync_reads if sync_reads is not None else OrderedSet()
    for inst in func.instructions():
        if inst.is_address_calculation():
            slicer.slice_from_values((inst.offset,), seen, sync_reads)
        elif inst.is_dereference():
            slicer.slice_from_values((inst.address_operand(),), seen, sync_reads)
    return sync_reads


def _resolve_facts(
    func: Function,
    points_to: PointsTo | None,
    escape_info: EscapeInfo | None,
    context: "QueryEngine | None",
) -> tuple[PointsTo, EscapeInfo, "dict | None"]:
    """Fill in missing per-function facts — from the program's query
    engine when one is supplied, built fresh otherwise."""
    writers_cache = None
    if context is not None:
        if points_to is None:
            points_to = context.get("points_to", func)
        if escape_info is None:
            escape_info = context.get("escape_info", func)
        writers_cache = context.get("writers_cache", func)
    points_to = points_to if points_to is not None else PointsTo(func)
    escape_info = (
        escape_info if escape_info is not None else EscapeInfo(func, points_to)
    )
    return points_to, escape_info, writers_cache


def detect_acquires(
    func: Function,
    variant: Variant,
    points_to: PointsTo | None = None,
    escape_info: EscapeInfo | None = None,
    context: "QueryEngine | None" = None,
) -> AcquireResult:
    """Run the requested detection algorithm on one function.

    For ``ADDRESS_CONTROL`` (Listing 3), control and address anchors
    share one ``seen`` set — slices overlap heavily and the paper notes
    the shared set "prevents reiteration".

    With a ``context`` (the program's
    :class:`~repro.query.engine.QueryEngine`), the per-function facts
    come from (and are memoized in) the engine instead of being rebuilt
    here.
    """
    points_to, escape_info, writers_cache = _resolve_facts(
        func, points_to, escape_info, context
    )
    slicer = Slicer(func, points_to, escape_info, writers_cache=writers_cache)
    seen: set[Instruction] = set()
    sync_reads: OrderedSet[Instruction] = OrderedSet()
    detect_control_acquires(func, points_to, escape_info, seen, sync_reads, slicer)
    if variant is Variant.ADDRESS_CONTROL:
        detect_address_acquires(func, points_to, escape_info, seen, sync_reads, slicer)
    return AcquireResult(func, variant, sync_reads, seen)


@dataclass
class SignatureBreakdown:
    """Which signature(s) each acquire in a function matches.

    This is what Table II of the paper reports per synchronization
    primitive: has control acquires / has address acquires / has
    *pure*-address acquires (address signature only). Separate ``seen``
    sets per signature are required here — the sets must not suppress
    each other's traversals.
    """

    function: Function
    control: OrderedSet[Instruction]
    address: OrderedSet[Instruction]

    @property
    def pure_address(self) -> OrderedSet[Instruction]:
        return self.address - self.control

    @property
    def all_acquires(self) -> OrderedSet[Instruction]:
        return self.control | self.address

    @property
    def has_control(self) -> bool:
        return bool(self.control)

    @property
    def has_address(self) -> bool:
        return bool(self.address)

    @property
    def has_pure_address(self) -> bool:
        return bool(self.pure_address)


def signature_breakdown(
    func: Function,
    points_to: PointsTo | None = None,
    escape_info: EscapeInfo | None = None,
    context: "QueryEngine | None" = None,
) -> SignatureBreakdown:
    """Classify every acquire by the signature(s) it matches."""
    points_to, escape_info, writers_cache = _resolve_facts(
        func, points_to, escape_info, context
    )
    # Separate seen sets per signature (see the class docstring), but
    # the potential-writers memo is safely shared across both slicers.
    control = detect_control_acquires(
        func, points_to, escape_info,
        slicer=Slicer(func, points_to, escape_info, writers_cache=writers_cache),
    )
    address = detect_address_acquires(
        func, points_to, escape_info,
        slicer=Slicer(func, points_to, escape_info, writers_cache=writers_cache),
    )
    return SignatureBreakdown(func, control, address)
