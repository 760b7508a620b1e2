"""Flow-insensitive points-to and may-alias analysis.

This is the stand-in for LLVM's alias analysis in the paper's
implementation. It provides the two oracles the rest of the system
needs:

* ``may_alias(a, b)`` — can two address values denote overlapping
  memory? Used by ordering generation and by
* ``potential_writers(load)`` — "alias analysis is used to find all
  stores in the function that potentially wrote the value being read"
  (Listing 2, line 17), the memory-chasing step of the backwards slicer.

``potential_writers`` is answered from a *writer index*: on first use
``PointsTo`` collects the function's writer sites once, as
``(instruction, pointee set)`` in instruction order. The answer depends
only on the load address's pointee set, so it is memoized per pointee
set; a miss scans the writer sites alone, with the same alias test as
``may_alias``. Every call returns a fresh list in instruction order.

The abstraction: every pointer value maps to a set of abstract objects —
named globals (field-insensitive over arrays), individual ``alloca``
sites, and a conservative ``Unknown`` top element covering everything
that escapes the function (parameter pointers, values loaded from
shared memory, call results, integer constants used as addresses).
``Unknown`` may alias any global or *escaped* alloca but never a
provably-local one; this is exactly the precision/conservatism split
that makes the paper's Fig. 2 example work (``*p1`` with locally
assigned ``p1`` aliases {x, y} but not ``flag``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Union

from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    AtomicAdd,
    AtomicXchg,
    BinOp,
    Call,
    Cmp,
    CmpXchg,
    Gep,
    Instruction,
    Load,
    Ret,
    Store,
)
from repro.ir.values import Constant, GlobalRef, Register, Value


class AbstractObject:
    """Base class for abstract memory objects."""

    __slots__ = ()


class GlobalObj(AbstractObject):
    """A named global variable (whole array, field-insensitive)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GlobalObj) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("g", self.name))

    def __repr__(self) -> str:
        return f"GlobalObj({self.name})"


class AllocaObj(AbstractObject):
    """One ``alloca`` site (identified by its instruction)."""

    __slots__ = ("inst",)

    def __init__(self, inst: Alloca) -> None:
        self.inst = inst

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AllocaObj) and other.inst is self.inst

    def __hash__(self) -> int:
        return hash(("a", id(self.inst)))

    def __repr__(self) -> str:
        return f"AllocaObj({self.inst.dest})"


class _Unknown(AbstractObject):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Unknown"


UNKNOWN = _Unknown()

Pointees = frozenset


class PointsTo:
    """Flow-insensitive Andersen-style points-to for one function.

    Also computes the set of *escaped* allocas: locals whose address may
    leave the function (stored into shared memory, passed to a call,
    returned, or stored into another escaped local).
    """

    def __init__(self, func: Function) -> None:
        self.function = func
        # Register id -> set of abstract objects the register may point at.
        self._reg_pointees: dict[int, frozenset[AbstractObject]] = {}
        # Alloca contents: pointer values that may have been stored in it.
        self._contents: dict[AllocaObj, frozenset[AbstractObject]] = {}
        self.escaped_allocas: frozenset[AllocaObj] = frozenset()
        # The writer index's answers, per load pointee set.
        self._writers_by_pointees: dict[
            frozenset[AbstractObject], tuple[Instruction, ...]
        ] = {}
        self._compute()

    # --- public API ------------------------------------------------------
    def pointees(self, value: Value) -> frozenset[AbstractObject]:
        """Abstract objects ``value`` may denote when used as an address."""
        if isinstance(value, GlobalRef):
            return frozenset([GlobalObj(value.name)])
        if isinstance(value, Constant):
            # Integer literals cannot denote valid addresses in this
            # language (addresses arise only from ``&x`` / allocas), so
            # a constant points at nothing — this is what lets a
            # null-initialized pointer slot stay precise.
            return frozenset()
        if isinstance(value, Register):
            return self._reg_pointees.get(id(value), frozenset([UNKNOWN]))
        raise TypeError(f"not a value: {value!r}")

    def may_alias(self, a: Value, b: Value) -> bool:
        """Can addresses ``a`` and ``b`` denote overlapping memory?"""
        return self._objects_alias(self.pointees(a), self.pointees(b))

    def _objects_alias(
        self, sa: frozenset[AbstractObject], sb: frozenset[AbstractObject]
    ) -> bool:
        """``may_alias`` on two pointee sets."""
        if sa & sb - {UNKNOWN}:
            return True
        if UNKNOWN in sa and self._has_escaping_target(sb):
            return True
        if UNKNOWN in sb and self._has_escaping_target(sa):
            return True
        return False

    def _has_escaping_target(self, objs: Iterable[AbstractObject]) -> bool:
        """Does the set contain anything Unknown could alias?"""
        for o in objs:
            if isinstance(o, GlobalObj) or o is UNKNOWN:
                return True
            if isinstance(o, AllocaObj) and o in self.escaped_allocas:
                return True
        return False

    def potential_writers(self, inst: Instruction) -> list[Instruction]:
        """All stores/RMWs in the function that may write the location
        read by ``inst`` (Listing 2's ``potential_writers``)."""
        addr = inst.address_operand()
        if addr is None:
            raise ValueError(f"{inst!r} does not read memory")
        pointees = self.pointees(addr)
        writers = self._writers_by_pointees.get(pointees)
        if writers is None:
            writers = tuple(
                other
                for other, other_pointees in self._writer_sites
                if self._objects_alias(pointees, other_pointees)
            )
            self._writers_by_pointees[pointees] = writers
        return list(writers)

    @cached_property
    def _writer_sites(self) -> list[tuple[Instruction, frozenset[AbstractObject]]]:
        """The function's writer sites with their pointee sets, in
        instruction order (collected on first use)."""
        sites = []
        for other in self.function.instructions():
            if other.writes_memory():
                other_addr = other.address_operand()
                if other_addr is not None:
                    sites.append((other, self.pointees(other_addr)))
        return sites

    def is_local_address(self, addr: Value) -> bool:
        """True if ``addr`` provably denotes only non-escaped allocas."""
        return all(
            isinstance(o, AllocaObj) and o not in self.escaped_allocas
            for o in self.pointees(addr)
        )

    # --- fixpoint computation ----------------------------------------------
    def _compute(self) -> None:
        func = self.function
        # Initialize: parameters are Unknown; every register starts empty
        # and is filled by its defining instruction's transfer function.
        for param in func.params:
            self._reg_pointees[id(param)] = frozenset([UNKNOWN])

        changed = True
        while changed:
            changed = False
            for inst in func.instructions():
                if inst.dest is None:
                    if isinstance(inst, Store):
                        changed |= self._flow_store(inst.addr, inst.value)
                    continue
                new = self._transfer(inst)
                old = self._reg_pointees.get(id(inst.dest), frozenset())
                if new != old:
                    self._reg_pointees[id(inst.dest)] = new | old
                    changed = True
            # RMWs also store their operand value.
            for inst in func.instructions():
                if isinstance(inst, CmpXchg):
                    changed |= self._flow_store(inst.addr, inst.new)
                elif isinstance(inst, (AtomicXchg, AtomicAdd)):
                    changed |= self._flow_store(inst.addr, inst.value)
        self._compute_escaped()

    def _transfer(self, inst: Instruction) -> frozenset[AbstractObject]:
        if isinstance(inst, Alloca):
            return frozenset([AllocaObj(inst)])
        if isinstance(inst, Load):
            return self._load_from(inst.addr)
        if isinstance(inst, (CmpXchg, AtomicXchg, AtomicAdd)):
            return self._load_from(inst.addr)
        if isinstance(inst, Gep):
            # Field-insensitive: the result points into the same objects.
            return self.pointees(inst.base)
        if isinstance(inst, BinOp):
            return self.pointees(inst.lhs) | self.pointees(inst.rhs)
        if isinstance(inst, Cmp):
            # Comparison results are booleans, never addresses.
            return frozenset([UNKNOWN])
        if isinstance(inst, Call):
            return frozenset([UNKNOWN])
        return frozenset([UNKNOWN])

    def _load_from(self, addr: Value) -> frozenset[AbstractObject]:
        result: set[AbstractObject] = set()
        for o in self.pointees(addr):
            if isinstance(o, AllocaObj):
                result |= self._contents.get(o, frozenset())
            else:
                # Loading through a global or unknown pointer: the value
                # may be anything another thread/function put there.
                result.add(UNKNOWN)
        if not result:
            # Loading from an alloca nothing was stored to yet.
            result.add(UNKNOWN)
        return frozenset(result)

    def _flow_store(self, addr: Value, value: Value) -> bool:
        """Record ``value``'s pointees in the contents of what ``addr``
        points at. Returns True if anything changed."""
        changed = False
        value_pointees = self.pointees(value)
        for o in self.pointees(addr):
            if isinstance(o, AllocaObj):
                old = self._contents.get(o, frozenset())
                new = old | value_pointees
                if new != old:
                    self._contents[o] = new
                    changed = True
        return changed

    def _compute_escaped(self) -> None:
        """Fixpoint: an alloca escapes if its address reaches shared
        memory, a call, a return, or an already-escaped alloca."""
        escaped: set[AllocaObj] = set()

        def targets_escape(addr: Value) -> bool:
            for o in self.pointees(addr):
                if isinstance(o, GlobalObj) or o is UNKNOWN:
                    return True
                if isinstance(o, AllocaObj) and o in escaped:
                    return True
            return False

        def allocas_in(value: Value) -> set[AllocaObj]:
            return {
                o for o in self.pointees(value) if isinstance(o, AllocaObj)
            }

        changed = True
        while changed:
            changed = False
            for inst in self.function.instructions():
                candidates: set[AllocaObj] = set()
                if isinstance(inst, Store) and targets_escape(inst.addr):
                    candidates = allocas_in(inst.value)
                elif isinstance(inst, CmpXchg) and targets_escape(inst.addr):
                    candidates = allocas_in(inst.new)
                elif isinstance(inst, (AtomicXchg, AtomicAdd)) and targets_escape(
                    inst.addr
                ):
                    candidates = allocas_in(inst.value)
                elif isinstance(inst, Call):
                    for arg in inst.args:
                        candidates |= allocas_in(arg)
                elif isinstance(inst, Ret) and inst.value is not None:
                    candidates = allocas_in(inst.value)
                new = candidates - escaped
                if new:
                    escaped |= new
                    changed = True
        self.escaped_allocas = frozenset(escaped)
