"""Single-thread IR execution machinery shared by all executors.

The explorers (SC, store-buffer TSO/PSO, relaxed ARM/POWER), SC trace
enumeration, and the timed performance simulator all need to run
threads instruction by instruction while owning shared memory
themselves. The :class:`ThreadExecutor` therefore uses a two-phase
protocol:

1. ``next_action(state)`` advances the thread through *invisible*
   instructions (arithmetic, branches, calls, accesses to the thread's
   own stack, observations) and stops at the next *visible* action —
   a shared-memory load/store/RMW or a fence — returning a
   :class:`PendingAction` describing it without performing it.
2. The caller performs the memory side per its own model (SC memory,
   TSO store buffer, timed machine) and calls ``commit`` with the load
   result, which completes the instruction and advances the thread.

The explorers add one invariant on top: a :class:`ThreadState` placed
in an explorer state is immutable. Siblings share it, and it carries
its derived facts — its key, its symmetry key, its future footprint,
its *probe* (a clone run to the next visible action, see
:meth:`ThreadExecutor.probe`) and its explorer-interned key id —
computed at most once, on first use.
A step never touches a placed state either: :meth:`ThreadExecutor.step`
commits on a fresh clone of the probe's ready state and memoizes that
successor on the ready state by load result, so every explorer state
(and every SC trace prefix) in which the thread takes the same step
shares one successor object, and with it that successor's cached
facts. ``clone()`` starts without cached facts. The simulator mutates
its threads in place and reads none of them.

Addresses are word-granular integers. Globals live at ``GLOBAL_BASE``;
each thread's stack occupies a disjoint window, so "own stack" checks
are range tests. Cross-thread stack sharing is treated as visible
(escaped locals published through globals remain correctly modeled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.function import Function, Program, ThreadSpec
from repro.ir.instructions import (
    Alloca,
    AtomicAdd,
    AtomicXchg,
    BinOp,
    Br,
    Call,
    Cmp,
    CmpXchg,
    Fence,
    FenceKind,
    Gep,
    Instruction,
    Jump,
    Load,
    Observe,
    Ret,
    Store,
)
from repro.ir.values import Constant, GlobalRef, Register, Value

GLOBAL_BASE = 0x100000
STACK_BASE = 0x4000000
STACK_STRIDE = 0x100000


class ExecutionError(Exception):
    """Runtime error in interpreted IR (bad address, div by zero, ...)."""


def _cdiv(a: int, b: int) -> int:
    """C-style truncating division."""
    if b == 0:
        raise ExecutionError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _cmod(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("modulo by zero")
    return a - _cdiv(a, b) * b


_BINOP_FNS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _cdiv,
    "%": _cmod,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << (b & 63),
    ">>": lambda a, b: a >> (b & 63),
}

_CMP_FNS = {
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}


class GlobalLayout:
    """Word addresses for every global variable of a program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.base: dict[str, int] = {}
        addr = GLOBAL_BASE
        for name, var in program.globals.items():
            self.base[name] = addr
            addr += var.size
        self.end = addr

    def initial_memory(self) -> dict[int, int]:
        memory: dict[int, int] = {}
        for name, var in self.program.globals.items():
            base = self.base[name]
            for offset, value in enumerate(var.init):
                if isinstance(value, tuple):  # ("&", other_global)
                    target = value[1]
                    if target not in self.base:
                        raise ExecutionError(
                            f"global {name}: initializer &{target} is undefined"
                        )
                    memory[base + offset] = self.base[target]
                else:
                    memory[base + offset] = value
        return memory

    def is_global(self, addr: int) -> bool:
        return GLOBAL_BASE <= addr < self.end

    def name_of(self, addr: int) -> Optional[str]:
        """Debugging helper: global name + offset at ``addr``."""
        for name, base in self.base.items():
            size = self.program.globals[name].size
            if base <= addr < base + size:
                return name if size == 1 else f"{name}[{addr - base}]"
        return None

    def final_globals(self, memory: dict[int, int]) -> dict[str, int]:
        """Named view of scalar globals (arrays reported element-wise)."""
        result = {}
        for name, var in self.program.globals.items():
            base = self.base[name]
            if var.size == 1:
                result[name] = memory.get(base, 0)
            else:
                for i in range(var.size):
                    result[f"{name}[{i}]"] = memory.get(base + i, 0)
        return result


def stack_range(tid: int) -> tuple[int, int]:
    base = STACK_BASE + tid * STACK_STRIDE
    return base, base + STACK_STRIDE


@dataclass
class Frame:
    """One call frame."""

    func: Function
    block_index: int = 0
    inst_index: int = 0
    regs: dict[str, int] = field(default_factory=dict)
    saved_sp: int = 0
    call_dest: Optional[str] = None  # caller register awaiting our return

    def clone(self) -> "Frame":
        return Frame(
            self.func,
            self.block_index,
            self.inst_index,
            dict(self.regs),
            self.saved_sp,
            self.call_dest,
        )


@dataclass
class ThreadState:
    """Complete state of one thread (control + registers + stack)."""

    tid: int
    frames: list[Frame] = field(default_factory=list)
    local_mem: dict[int, int] = field(default_factory=dict)
    sp: int = 0
    observations: tuple[tuple[str, int], ...] = ()
    done: bool = False
    steps: int = 0
    # Derived facts, cached on first use; valid only because a placed
    # state is never mutated (see the module docstring).
    _key: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    #: Symmetry key (``repro.memmodel.explore``), or its bail-out marker.
    _norm: object = field(default=None, init=False, repr=False, compare=False)
    #: Future footprint (``repro.memmodel.explore.FutureFootprints``).
    _future: object = field(default=None, init=False, repr=False, compare=False)
    _probe: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    #: Interned key id (``repro.memmodel.explore.CoreExplorer``).
    _id: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    #: Committed successors of this (ready) state, by load result
    #: (:meth:`ThreadExecutor.step`).
    _next: Optional[dict[Optional[int], "ThreadState"]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def clone(self) -> "ThreadState":
        return ThreadState(
            self.tid,
            [f.clone() for f in self.frames],
            dict(self.local_mem),
            self.sp,
            self.observations,
            self.done,
            self.steps,
        )

    def key(self) -> tuple:
        """Hashable state fingerprint (for explorer memoization),
        computed once per state."""
        key = self._key
        if key is None:
            key = self._key = self._compute_key()
        return key

    def _compute_key(self) -> tuple:
        return (
            self.tid,
            tuple(
                (
                    f.func.name,
                    f.block_index,
                    f.inst_index,
                    tuple(sorted(f.regs.items())),
                    f.call_dest,
                )
                for f in self.frames
            ),
            tuple(sorted(self.local_mem.items())),
            self.observations,
            self.done,
        )


@dataclass
class PendingAction:
    """A visible action about to be performed by a thread.

    ``kind``: "load" | "store" | "rmw" | "fence".
    For loads: ``addr``. For stores: ``addr`` and ``value``. For RMWs:
    ``addr`` plus the instruction's operands resolved (``rmw_args``).
    For fences: ``fence_kind``.
    """

    kind: str
    inst: Instruction
    addr: Optional[int] = None
    value: Optional[int] = None
    rmw_args: tuple[int, ...] = ()
    fence_kind: Optional[FenceKind] = None

    def rmw_result(self, old: int) -> tuple[int, Optional[int]]:
        """(value returned to dest, new memory value or None if no write)."""
        inst = self.inst
        if isinstance(inst, CmpXchg):
            expected, new = self.rmw_args
            return old, (new if old == expected else None)
        if isinstance(inst, AtomicXchg):
            (value,) = self.rmw_args
            return old, value
        if isinstance(inst, AtomicAdd):
            (value,) = self.rmw_args
            return old, old + value
        raise ExecutionError(f"not an RMW: {inst!r}")


class ThreadExecutor:
    """Advances :class:`ThreadState`s over a program's IR."""

    def __init__(self, program: Program, layout: GlobalLayout | None = None) -> None:
        self.program = program
        self.layout = layout if layout is not None else GlobalLayout(program)
        #: Probes computed (threads run to their next visible action).
        self.probes = 0

    # --- thread setup ------------------------------------------------------
    def start_thread(self, tid: int, spec: ThreadSpec) -> ThreadState:
        func = self.program.functions[spec.func_name]
        if len(spec.args) != len(func.params):
            raise ExecutionError(
                f"thread {spec.func_name}: argument count mismatch"
            )
        base, _ = stack_range(tid)
        frame = Frame(func, regs={p.name: a for p, a in zip(func.params, spec.args)})
        frame.saved_sp = base
        return ThreadState(tid=tid, frames=[frame], sp=base)

    def start_all(self) -> list[ThreadState]:
        return [
            self.start_thread(tid, spec)
            for tid, spec in enumerate(self.program.threads)
        ]

    # --- value evaluation ------------------------------------------------------
    @staticmethod
    def _eval(value: Value, frame: Frame, layout: GlobalLayout) -> int:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalRef):
            return layout.base[value.name]
        if isinstance(value, Register):
            try:
                return frame.regs[value.name]
            except KeyError:
                raise ExecutionError(
                    f"read of unset register %{value.name} in {frame.func.name}"
                ) from None
        raise ExecutionError(f"cannot evaluate {value!r}")

    def _is_own_stack(self, ts: ThreadState, addr: int) -> bool:
        lo, hi = stack_range(ts.tid)
        return lo <= addr < hi

    # --- the two-phase protocol ---------------------------------------------
    def next_action(self, ts: ThreadState, max_steps: int = 1_000_000) -> Optional[PendingAction]:
        """Run invisible instructions; stop at the next visible action.

        Returns ``None`` once the thread has finished. Raises
        :class:`ExecutionError` if ``max_steps`` invisible+visible steps
        are exceeded (runaway loop guard).
        """
        layout = self.layout
        while True:
            if not ts.frames:
                ts.done = True
                return None
            if ts.steps >= max_steps:
                raise ExecutionError(
                    f"thread {ts.tid}: exceeded {max_steps} steps"
                )
            frame = ts.frames[-1]
            block = frame.func.blocks[frame.block_index]
            inst = block.instructions[frame.inst_index]
            ts.steps += 1

            if isinstance(inst, (Load, CmpXchg, AtomicXchg, AtomicAdd)):
                addr = self._eval(inst.addr, frame, layout)
                if self._is_own_stack(ts, addr):
                    self._execute_local_memory(ts, frame, inst, addr)
                    continue
                if isinstance(inst, Load):
                    return PendingAction("load", inst, addr=addr)
                if isinstance(inst, CmpXchg):
                    args = (
                        self._eval(inst.expected, frame, layout),
                        self._eval(inst.new, frame, layout),
                    )
                elif isinstance(inst, AtomicXchg):
                    args = (self._eval(inst.value, frame, layout),)
                else:
                    args = (self._eval(inst.value, frame, layout),)
                return PendingAction("rmw", inst, addr=addr, rmw_args=args)

            if isinstance(inst, Store):
                addr = self._eval(inst.addr, frame, layout)
                value = self._eval(inst.value, frame, layout)
                if self._is_own_stack(ts, addr):
                    ts.local_mem[addr] = value
                    self._advance(ts)
                    continue
                return PendingAction("store", inst, addr=addr, value=value)

            if isinstance(inst, Fence):
                return PendingAction("fence", inst, fence_kind=inst.kind)

            self._execute_invisible(ts, frame, inst)

    def probe(
        self, ts: ThreadState, max_steps: int = 1_000_000
    ) -> tuple[ThreadState, Optional[PendingAction]]:
        """``(ready, pending)``: a clone of ``ts`` run to its next
        visible action, and that action (None once finished). Computed
        once per state object and cached on it; ``ts`` is not mutated.
        The ready clone is shared too: advance it with :meth:`step`."""
        probe = ts._probe
        if probe is None:
            ready = ts.clone()
            probe = ts._probe = (ready, self.next_action(ready, max_steps))
            self.probes += 1
        return probe

    def step(
        self,
        ready: ThreadState,
        pending: PendingAction,
        load_result: Optional[int] = None,
    ) -> ThreadState:
        """The successor of a probe's ``ready`` state after performing
        ``pending`` with ``load_result``: committed on a fresh clone the
        first time, then memoized on ``ready`` by load result (a ready
        state has exactly one pending action). ``ready`` is not mutated,
        and the successor must not be either."""
        memo = ready._next
        if memo is None:
            memo = ready._next = {}
        nxt = memo.get(load_result)
        if nxt is None:
            nxt = ready.clone()
            self.commit(nxt, pending, load_result)
            memo[load_result] = nxt
        return nxt

    def commit(
        self,
        ts: ThreadState,
        pending: PendingAction,
        load_result: Optional[int] = None,
    ) -> None:
        """Complete a visible action and advance past its instruction."""
        inst = pending.inst
        frame = ts.frames[-1]
        if pending.kind in ("load", "rmw"):
            if load_result is None:
                raise ExecutionError("load/rmw commit requires a value")
            if inst.dest is not None:
                frame.regs[inst.dest.name] = load_result
        self._advance(ts)

    # --- execution helpers ------------------------------------------------------
    def _execute_local_memory(
        self, ts: ThreadState, frame: Frame, inst: Instruction, addr: int
    ) -> None:
        old = ts.local_mem.get(addr, 0)
        if isinstance(inst, Load):
            frame.regs[inst.dest.name] = old
        else:
            layout = self.layout
            if isinstance(inst, CmpXchg):
                pending = PendingAction(
                    "rmw",
                    inst,
                    addr=addr,
                    rmw_args=(
                        self._eval(inst.expected, frame, layout),
                        self._eval(inst.new, frame, layout),
                    ),
                )
            elif isinstance(inst, AtomicXchg):
                pending = PendingAction(
                    "rmw", inst, addr=addr,
                    rmw_args=(self._eval(inst.value, frame, layout),),
                )
            else:
                pending = PendingAction(
                    "rmw", inst, addr=addr,
                    rmw_args=(self._eval(inst.value, frame, layout),),
                )
            result, new = pending.rmw_result(old)
            if new is not None:
                ts.local_mem[addr] = new
            frame.regs[inst.dest.name] = result
        self._advance(ts)

    def _execute_invisible(
        self, ts: ThreadState, frame: Frame, inst: Instruction
    ) -> None:
        layout = self.layout
        if isinstance(inst, Alloca):
            frame.regs[inst.dest.name] = ts.sp
            ts.sp += inst.size
            _, hi = stack_range(ts.tid)
            if ts.sp > hi:
                raise ExecutionError(f"thread {ts.tid}: stack overflow")
            self._advance(ts)
        elif isinstance(inst, BinOp):
            a = self._eval(inst.lhs, frame, layout)
            b = self._eval(inst.rhs, frame, layout)
            frame.regs[inst.dest.name] = _BINOP_FNS[inst.op](a, b)
            self._advance(ts)
        elif isinstance(inst, Cmp):
            a = self._eval(inst.lhs, frame, layout)
            b = self._eval(inst.rhs, frame, layout)
            frame.regs[inst.dest.name] = _CMP_FNS[inst.op](a, b)
            self._advance(ts)
        elif isinstance(inst, Gep):
            base = self._eval(inst.base, frame, layout)
            offset = self._eval(inst.offset, frame, layout)
            frame.regs[inst.dest.name] = base + offset
            self._advance(ts)
        elif isinstance(inst, Br):
            cond = self._eval(inst.cond, frame, layout)
            target = inst.true_label if cond != 0 else inst.false_label
            self._jump(frame, target)
        elif isinstance(inst, Jump):
            self._jump(frame, inst.target)
        elif isinstance(inst, Observe):
            value = self._eval(inst.value, frame, layout)
            ts.observations = ts.observations + ((inst.label, value),)
            self._advance(ts)
        elif isinstance(inst, Call):
            callee = self.program.functions.get(inst.callee)
            if callee is None:
                raise ExecutionError(f"call to unknown function {inst.callee!r}")
            args = [self._eval(a, frame, layout) for a in inst.args]
            new_frame = Frame(
                callee,
                regs={p.name: v for p, v in zip(callee.params, args)},
                saved_sp=ts.sp,
                call_dest=inst.dest.name if inst.dest is not None else None,
            )
            ts.frames.append(new_frame)
        elif isinstance(inst, Ret):
            value = (
                self._eval(inst.value, frame, layout)
                if inst.value is not None
                else None
            )
            # Reclaim this frame's stack window.
            for addr in [a for a in ts.local_mem if a >= frame.saved_sp]:
                del ts.local_mem[addr]
            ts.sp = frame.saved_sp
            dest = frame.call_dest
            ts.frames.pop()
            if ts.frames:
                caller = ts.frames[-1]
                if dest is not None:
                    caller.regs[dest] = value if value is not None else 0
                self._advance(ts)
            else:
                ts.done = True
        else:
            raise ExecutionError(f"cannot execute {inst!r}")

    @staticmethod
    def _advance(ts: ThreadState) -> None:
        frame = ts.frames[-1]
        frame.inst_index += 1

    @staticmethod
    def _jump(frame: Frame, label: str) -> None:
        func = frame.func
        frame.block_index = func.block(label).index
        frame.inst_index = 0
