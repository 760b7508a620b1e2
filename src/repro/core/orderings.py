"""Ordering generation (paper Section 4.3).

"Ordering generation is done in line with Pensieve, generating an
ordering for every pair of variables in the set of potentially escaping
loads and stores, if there exists a path between them."

Atomic read-modify-writes are expanded into a read part followed by a
write part (Section 3: "considering them to be a read followed by a
write to the same location"), so every ordering has an unambiguous
kind among r->r, r->w, w->r, w->w.

Mask format
-----------
This module owns the representation of an ordering set. There is no
object per ordered pair: an :class:`OrderingSet` numbers its logical
accesses ``0..n-1`` (``accesses``) and stores, per source ``i``, one
destination bitmask ``succ[i]`` whose bit ``j`` is set iff the set
holds the ordering ``accesses[i] -> accesses[j]``. Everything derived
from a set's accesses alone lives in its shared :class:`AccessLayout`:

* ``writes`` — the bitmask of write parts, so an ordering's kind is
  read off two bits and kind counts are popcounts;
* ``positions[i]`` — ``(block index, instruction index)`` of access
  ``i``;
* ``forward[i]`` — the accesses strictly later than ``i`` in its own
  basic block (statement order; the other half of an RMW is not
  later).

Pruning (:mod:`repro.core.pruning`) intersects ``succ`` with per-source
keep masks and shares the layout; the delay graph
(:func:`repro.core.fence_min.span_records` and
:func:`~repro.core.fence_min.deadline_records`) splits each
``succ[i]`` into its same-block forward part and the rest, and caches
what it derives in the set's ``memo``. Accesses are numbered in
program order, so within a block a lower bit is an earlier access.
:class:`Ordering` objects exist only on demand, for callers that
iterate a set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Iterator

from repro.analysis.escape import EscapeInfo
from repro.analysis.reachability import ReachabilityTable
from repro.core.machine_models import OrderKind
from repro.ir.function import Function
from repro.ir.instructions import Instruction


@dataclass(frozen=True)
class Access:
    """A logical access: an instruction plus which half of an RMW.

    ``part`` is ``"r"`` or ``"w"``; plain loads have only an ``"r"``
    part, plain stores only a ``"w"`` part, RMWs both.
    """

    inst: Instruction
    part: str

    @property
    def is_write(self) -> bool:
        return self.part == "w"

    def __repr__(self) -> str:
        return f"Access({self.inst.mnemonic()}#{self.inst.uid}.{self.part})"


def logical_accesses(insts: Iterable[Instruction]) -> list[Access]:
    """Expand instructions into logical accesses, program order."""
    result: list[Access] = []
    for inst in insts:
        if inst.is_atomic_rmw():
            result.append(Access(inst, "r"))
            result.append(Access(inst, "w"))
        elif inst.is_load():
            result.append(Access(inst, "r"))
        elif inst.is_store():
            result.append(Access(inst, "w"))
    return result


@dataclass(frozen=True)
class Ordering:
    """A required program ordering between two escaping accesses."""

    src: Access
    dst: Access

    @property
    def kind(self) -> OrderKind:
        return OrderKind.of(self.src.is_write, self.dst.is_write)

    def __repr__(self) -> str:
        return f"Ordering({self.src!r} -> {self.dst!r}, {self.kind.value})"


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class AccessLayout:
    """Per-access facts shared by every ordering set over ``accesses``."""

    def __init__(self, func: Function, accesses: list[Access]) -> None:
        self.accesses = accesses
        self.positions = [func.position(a.inst) for a in accesses]
        self.writes = sum(1 << i for i, a in enumerate(accesses) if a.is_write)
        #: Accesses per block index (a bitmask).
        self.block_masks: dict[int, int] = {}
        n = len(accesses)
        self.forward = [0] * n
        #: The access's own instruction: itself plus the other RMW half.
        self.same_inst = [0] * n
        members: dict[int, list[int]] = {}
        for i, (block, _index) in enumerate(self.positions):
            members.setdefault(block, []).append(i)
            self.block_masks[block] = self.block_masks.get(block, 0) | 1 << i
        positions = self.positions

        def index_of(i: int) -> int:
            return positions[i][1]

        for block_members in members.values():
            # Walk the block backwards, one instruction (one or two
            # logical accesses) at a time.
            later = 0
            backwards = sorted(block_members, key=index_of, reverse=True)
            for _index, at_index in groupby(backwards, key=index_of):
                group = list(at_index)
                same = sum(1 << i for i in group)
                for i in group:
                    self.forward[i] = later
                    self.same_inst[i] = same
                later |= same

    def mask(self, predicate: Callable[[Access], bool]) -> int:
        """Bitmask of the accesses satisfying ``predicate``."""
        return sum(1 << i for i, a in enumerate(self.accesses) if predicate(a))


class OrderingSet:
    """The orderings of one function, as per-source destination masks.

    Built from a list of :class:`Ordering` objects (accesses numbered
    in program order) or by :func:`generate_orderings`. Iterating yields
    :class:`Ordering` objects in source-then-destination order;
    ``len()`` and :meth:`count_by_kind` are popcounts, computed once.
    """

    def __init__(self, func: Function, orderings: Iterable[Ordering] = ()) -> None:
        pairs = list(orderings)
        accesses = sorted(
            {a for o in pairs for a in (o.src, o.dst)},
            key=lambda a: (func.position(a.inst), a.part),
        )
        number = {a: i for i, a in enumerate(accesses)}
        succ = [0] * len(accesses)
        for o in pairs:
            succ[number[o.src]] |= 1 << number[o.dst]
        self._init(func, AccessLayout(func, accesses), succ)

    @classmethod
    def from_masks(
        cls, func: Function, layout: AccessLayout, succ: list[int]
    ) -> "OrderingSet":
        """The set whose source ``i`` orders before ``succ[i]``'s bits."""
        result = cls.__new__(cls)
        result._init(func, layout, succ)
        return result

    def _init(self, func: Function, layout: AccessLayout, succ: list[int]) -> None:
        self.function = func
        self.layout = layout
        self.accesses = layout.accesses
        self.succ = succ
        self._counts: dict[OrderKind, int] | None = None
        self._size: int | None = None
        self._orderings: list[Ordering] | None = None
        #: Results derived from this set alone, keyed by their other
        #: inputs (:mod:`repro.core.fence_min`): span records
        #: ``("spans", model, projection)``, deadline records
        #: ``("deadlines", model, projection)``, delay intervals
        #: ``("intervals", model, projection)`` and greedy plans
        #: ``("plan", model, entry fence, projection)``. Read-only to
        #: every caller.
        self.memo: dict[tuple, object] = {}

    def restricted(self, keep: Iterable[int]) -> "OrderingSet":
        """The subset keeping only source ``i``'s destinations in
        ``keep[i]`` (``-1`` keeps them all)."""
        return OrderingSet.from_masks(
            self.function, self.layout, [m & k for m, k in zip(self.succ, keep)]
        )

    def count_by_kind(self) -> dict[OrderKind, int]:
        return dict(self._kind_counts())

    def _kind_counts(self) -> dict[OrderKind, int]:
        if self._counts is None:
            writes = self.layout.writes
            rr = rw = wr = ww = 0
            for i, dsts in enumerate(self.succ):
                if not dsts:
                    continue
                into_writes = (dsts & writes).bit_count()
                into_reads = dsts.bit_count() - into_writes
                if writes >> i & 1:
                    wr += into_reads
                    ww += into_writes
                else:
                    rr += into_reads
                    rw += into_writes
            self._counts = {OrderKind.RR: rr, OrderKind.RW: rw, OrderKind.WR: wr, OrderKind.WW: ww}
        return self._counts

    @property
    def orderings(self) -> list[Ordering]:
        """Every ordering as an object, source-then-destination order."""
        if self._orderings is None:
            acc = self.accesses
            self._orderings = [
                Ordering(acc[i], acc[j]) for i, dsts in enumerate(self.succ) for j in bits(dsts)
            ]
        return self._orderings

    def __len__(self) -> int:
        size = self._size
        if size is None:
            size = self._size = sum(self._kind_counts().values())
        return size

    def __iter__(self) -> Iterator[Ordering]:
        return iter(self.orderings)


def generate_orderings(
    func: Function,
    escape_info: EscapeInfo,
    reach: ReachabilityTable | None = None,
    include_self_pairs: bool = False,
) -> OrderingSet:
    """Pensieve-style ordering generation over escaping accesses.

    One ordering per ordered pair (u, v) of escaping logical accesses
    with a CFG/statement path from u to v. Both directions are
    generated when both paths exist (accesses inside a loop). The two
    halves of a single RMW are skipped — hardware atomicity orders
    them. Self-pairs (an access reaching its own next dynamic instance
    through a loop) are off by default, matching pairwise generation
    over distinct accesses.

    One pass over the block reachability closure: u reaches the
    accesses after it in its own block, plus every access of every
    block its block reaches — its own block included when that block
    lies on a cycle.
    """
    reach = reach if reach is not None else ReachabilityTable(func)
    layout = AccessLayout(func, logical_accesses(escape_info.escaping))
    labels = [block.label for block in func.blocks]
    label_masks = {labels[b]: mask for b, mask in layout.block_masks.items()}
    closure: dict[int, int] = {}
    for b in layout.block_masks:
        mask = 0
        for label in reach.cfg.reachable_from(labels[b]):
            mask |= label_masks.get(label, 0)
        closure[b] = mask
    succ = []
    for i, (block, _index) in enumerate(layout.positions):
        dsts = layout.forward[i] | closure[block]
        if closure[block] >> i & 1:
            # A block on a cycle reaches itself: drop this instruction's
            # own accesses (RMW halves are atomic) unless self-pairs are on.
            dsts &= ~layout.same_inst[i]
            if include_self_pairs:
                dsts |= 1 << i
        succ.append(dsts)
    return OrderingSet.from_masks(func, layout, succ)
