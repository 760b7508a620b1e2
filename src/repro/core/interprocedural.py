"""Interprocedural acquire detection — the paper's future-work step.

The shipped algorithms are intraprocedural (paper Section 4): an
acquire whose read and consuming branch/address live in *different*
functions is missed. The paper argues the split is contrived in
practice ("we never see such a split") but notes an interprocedural
algorithm "would be a necessary step to achieving soundness". This
module closes that gap with a summary-based fixpoint built on the same
backwards slicer:

* **result rule** — if a call's result feeds an anchor slice in the
  caller, the callee's return value becomes an anchor: escaping reads
  feeding the callee's ``return`` are acquires;
* **parameter rule** — if a callee's parameter feeds an anchor slice in
  the callee, the corresponding argument at *every call site* becomes
  an anchor seed in that caller.

Both rules iterate to a fixpoint (call chains of any depth, recursion
included, terminated by seen-sets). The result is a conservative
superset of the intraprocedural detection — verified as a property in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.signatures import Variant
from repro.ir.function import Function, Program
from repro.ir.instructions import Call, Instruction, Ret
from repro.ir.values import Register, Value, get_def
from repro.query.engine import QueryEngine
from repro.util.orderedset import OrderedSet


@dataclass
class _SliceResult:
    """What one anchor slice of a function touched."""

    escaping_reads: OrderedSet[Instruction] = field(default_factory=OrderedSet)
    calls: OrderedSet[Instruction] = field(default_factory=OrderedSet)
    params: OrderedSet[str] = field(default_factory=OrderedSet)  # param names


class _FunctionContext:
    """Per-function analysis state shared across slices."""

    def __init__(self, func: Function, engine: QueryEngine) -> None:
        self.function = func
        self.points_to = engine.get("points_to", func)
        self.escape_info = engine.get("escape_info", func)
        self.param_names = {p.name for p in func.params}
        self.seen: set[Instruction] = set()
        self.seen_params: set[str] = set()
        # Shared with every other slicer over this function.
        self._writers_cache = engine.get("writers_cache", func)

    def potential_writers(self, inst: Instruction) -> list[Instruction]:
        cached = self._writers_cache.get(id(inst))
        if cached is None:
            cached = self.points_to.potential_writers(inst)
            self._writers_cache[id(inst)] = cached
        return cached

    def slice_from(self, seeds: list[Value]) -> _SliceResult:
        """Backwards slice recording reads, calls, and parameters hit.

        The ``seen`` set persists across slices of this function, so
        the returned result only contains *newly* visited items — which
        is exactly what the fixpoint needs.
        """
        result = _SliceResult()
        work: OrderedSet[Instruction] = OrderedSet()
        for seed in seeds:
            self._enqueue_value(seed, work, result)
        while work:
            inst = work.pop_first()
            if inst in self.seen:
                continue
            self.seen.add(inst)
            if inst.reads_memory():
                if self.escape_info.is_escaping(inst):
                    result.escaping_reads.add(inst)
                for writer in self.potential_writers(inst):
                    work.add(writer)
            else:
                if isinstance(inst, Call):
                    result.calls.add(inst)
                for operand in inst.operands:
                    self._enqueue_value(operand, work, result)
        return result

    def _enqueue_value(
        self, value: Value, work: OrderedSet[Instruction], result: _SliceResult
    ) -> None:
        defining = get_def(value)
        if defining is not None:
            work.add(defining)
        elif isinstance(value, Register) and value.name in self.param_names:
            if value.name not in self.seen_params:
                self.seen_params.add(value.name)
                result.params.add(value.name)

    def anchor_seeds(self, variant: Variant) -> list[Value]:
        """Initial slice seeds: branch operands; plus dereference
        addresses and address-calculation offsets for ADDRESS_CONTROL."""
        seeds: list[Value] = []
        for inst in self.function.instructions():
            if inst.is_cond_branch():
                seeds.extend(inst.operands)
            elif variant is Variant.ADDRESS_CONTROL:
                if inst.is_address_calculation():
                    seeds.append(inst.offset)
                elif inst.is_dereference():
                    addr = inst.address_operand()
                    if addr is not None:
                        seeds.append(addr)
        return seeds

    def return_seeds(self) -> list[Value]:
        return [
            inst.value
            for inst in self.function.instructions()
            if isinstance(inst, Ret) and inst.value is not None
        ]


@dataclass
class InterproceduralResult:
    """Acquires per function, plus the intraprocedural baseline."""

    program: Program
    variant: Variant
    acquires: dict[str, OrderedSet[Instruction]]
    intraprocedural: dict[str, OrderedSet[Instruction]]

    def extra_acquires(self) -> dict[str, OrderedSet[Instruction]]:
        """Acquires found only by the interprocedural rules."""
        return {
            name: self.acquires[name] - self.intraprocedural.get(name, OrderedSet())
            for name in self.acquires
            if self.acquires[name] - self.intraprocedural.get(name, OrderedSet())
        }


def detect_acquires_interprocedural(
    program: Program,
    variant: Variant = Variant.CONTROL,
    context: QueryEngine | None = None,
) -> InterproceduralResult:
    """Whole-program acquire detection with cross-function propagation.

    With a ``context`` (the program's
    :class:`~repro.query.engine.QueryEngine`), per-function facts are
    drawn from it instead of rebuilt.
    """
    engine = context if context is not None else QueryEngine(program)
    contexts = {
        name: _FunctionContext(f, engine) for name, f in program.functions.items()
    }
    call_sites: dict[str, list[tuple[str, Call]]] = {}
    for name, func in program.functions.items():
        for inst in func.instructions():
            if isinstance(inst, Call):
                call_sites.setdefault(inst.callee, []).append((name, inst))

    acquires: dict[str, OrderedSet[Instruction]] = {
        name: OrderedSet() for name in program.functions
    }
    intra: dict[str, OrderedSet[Instruction]] = {}

    # Work queue of (function name, seed values) slice requests.
    queue: list[tuple[str, list[Value]]] = []
    # Functions whose return value has become an anchor already.
    return_anchored: set[str] = set()

    for name, ctx in contexts.items():
        queue.append((name, ctx.anchor_seeds(variant)))

    first_pass: dict[str, _SliceResult] = {}

    def handle(name: str, result: _SliceResult) -> None:
        acquires[name].update(result.escaping_reads)
        # Result rule: callees whose results feed this slice.
        for call in result.calls:
            callee = call.callee
            if callee in contexts and callee not in return_anchored:
                return_anchored.add(callee)
                queue.append((callee, contexts[callee].return_seeds()))
        # Parameter rule: arguments at every call site of this function.
        for param_name in result.params:
            func = contexts[name].function
            index = next(
                i for i, p in enumerate(func.params) if p.name == param_name
            )
            for caller_name, call in call_sites.get(name, []):
                if index < len(call.args):
                    queue.append((caller_name, [call.args[index]]))

    while queue:
        name, seeds = queue.pop(0)
        if name not in contexts:
            continue
        result = contexts[name].slice_from(seeds)
        if name not in first_pass:
            first_pass[name] = result
            intra[name] = OrderedSet(result.escaping_reads)
        handle(name, result)

    return InterproceduralResult(program, variant, acquires, intra)
