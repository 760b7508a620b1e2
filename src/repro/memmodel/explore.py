"""Shared dynamic partial-order-reduction core for the explorers.

The SC, store-buffer (TSO/PSO), and relaxed (ARM/POWER) explorers
all walk the same shape of state graph: per-state they enumerate
*transitions* (thread steps and store-buffer flushes) and DFS with
memoization. Historically
each did so naively — every interleaving of independent actions was
enumerated, so k commuting actions cost 2^k visited states (the full
hypercube of intermediate states, even though the endpoints merge).

This module factors the walk into :class:`CoreExplorer` and adds three
reductions, each sound with respect to the final-outcome semantics
(``Outcome`` = observations + final globals):

* **Sleep sets** (Godefroid). After exploring transition ``t`` from
  state ``s``, every sibling branch remembers ``t`` in its sleep set
  and never re-executes it until a *dependent* transition wakes it.
  Dependence is computed from read/write footprints: two transitions
  are dependent iff they are program-ordered steps of the same thread
  or their footprints conflict (write/write or read/write overlap).
  One linearization per Mazurkiewicz trace survives.

* **Persistent singleton ("safe") steps.** A transition whose
  footprint cannot conflict with anything the *other* threads may
  still do — computed from a static, PC-indexed may-read/may-write
  future footprint per thread (points-to based, fixpoint over blocks
  and callees) plus their currently buffered store addresses — is a
  persistent set of size one: it is taken alone, with no branching.
  Thread-local actions (buffered stores, forwarded loads, sealed
  fences, thread finish) are always safe.

* **Canonical state hashing with symmetry normalization.** State keys
  are thread PCs + registers + memory + buffer/seal state. When
  several threads run the same function with the same arguments (and
  no alloca escapes, so no thread-identifying stack address can leak
  into shared state or observations), the per-thread components are
  sorted within each symmetry class, merging states that differ only
  by a permutation of identical threads; collected outcomes are closed
  under the class permutations afterwards.

Explorer states are immutable once placed on the DFS stack: a step
builds a new state tuple and shares every part it did not change.
That lets each object carry its derived facts and compute them once:
a :class:`~repro.memmodel.interpreter.ThreadState` caches its key,
symmetry key, future footprint and probe (its next visible action),
and a :class:`SharedMap` (memory, the relaxed previous-value map)
caches its sorted items. A :class:`Transition` carries a builder
rather than its successor states, so only the transitions the DFS
takes — the safe singleton, or the ones sleep sets leave explorable —
cost a clone and a commit.

Budgets are explicit: plain mode stops at ``max_states`` exactly like
the pre-DPOR explorers, and the opt-in *iterative deepening* mode
re-runs with a doubling depth limit until a pass finishes inside both
the depth and state budgets, so the returned
:class:`~repro.memmodel.sc.ExplorationResult` carries a principled
``verdict`` ("complete", "bounded:max-states", "bounded:depth")
instead of silently truncating.

Every reduction is differentially tested against exhaustive
exploration (``reduction=False, canonicalize=False``) over the litmus
suite, the benchmark corpus, and fuzz-generated programs — see
``tests/test_explore_differential.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.analysis.aliasing import UNKNOWN, AllocaObj, GlobalObj, PointsTo
from repro.ir.function import Program
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.ir.instructions import (
    AtomicAdd,
    AtomicXchg,
    Br,
    Call,
    CmpXchg,
    Jump,
    Load,
    Observe,
    Store,
)
from repro.memmodel.interpreter import (
    STACK_BASE,
    GlobalLayout,
    PendingAction,
    ThreadExecutor,
    ThreadState,
    stack_range,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memmodel.sc import ExplorationResult, Outcome


_EMPTY: frozenset[int] = frozenset()

#: Orbit cap: symmetry closure enumerates every class permutation, so
#: refuse classes whose combined orbit exceeds 6! mappings.
_MAX_ORBIT = 720


@dataclass(frozen=True)
class Footprint:
    """May-read/may-write effect of one transition.

    ``local`` marks actions invisible to every other thread (buffered
    store, forwarded load, seal-only fence, thread finish): they
    conflict with nothing. ``global_read`` marks actions that observe
    unbounded shared state (a stale-read-killing fence reads the whole
    previous-value map): they conflict with every write. ``top`` marks
    actions whose target cannot be bounded (cross-thread stack
    access): they conflict with everything and are never safe.
    """

    reads: frozenset[int] = _EMPTY
    writes: frozenset[int] = _EMPTY
    local: bool = False
    global_read: bool = False
    top: bool = False


LOCAL_FP = Footprint(local=True)
TOP_FP = Footprint(top=True)


def footprints_conflict(a: Footprint, b: Footprint) -> bool:
    """Can the two effects fail to commute?"""
    if a.local or b.local:
        return False
    if a.top or b.top:
        return True
    if (a.global_read and b.writes) or (b.global_read and a.writes):
        return True
    return bool(a.writes & (b.reads | b.writes)) or bool(b.writes & a.reads)


class SharedMap(dict):
    """An address -> value map placed in explorer states: memory, and
    the relaxed explorer's previous-value map. Explorers copy it on
    write (``SharedMap(old)``) and never mutate a placed one, so its
    sorted items — its part of the state key — are computed once."""

    __slots__ = ("_items",)

    def sorted_items(self) -> tuple[tuple[int, int], ...]:
        try:
            return self._items
        except AttributeError:
            items = self._items = tuple(sorted(self.items()))
            return items


@dataclass(slots=True)
class Transition:
    """One enabled transition: identity key, owning thread, footprint,
    and a zero-argument ``build`` returning its successor states
    (several for a relaxed load with a stale-value choice). Only the
    transitions the DFS explores are built."""

    key: tuple
    tid: int
    is_step: bool  # thread step (program-ordered) vs buffer flush
    fp: Footprint
    build: Callable[[], tuple]


# One sleep entry: (key, tid, is_step, footprint) of an explored sibling.
_SleepEntry = tuple[tuple, int, bool, Footprint]


def _dependent(entry: _SleepEntry, t: Transition) -> bool:
    _key, tid, is_step, fp = entry
    if is_step and t.is_step and tid == t.tid:
        return True  # program order
    return footprints_conflict(fp, t.fp)


# --- static future footprints (for persistent singleton selection) ------


def _merge(
    a: Optional[tuple[frozenset[int], frozenset[int]]],
    b: Optional[tuple[frozenset[int], frozenset[int]]],
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    if a is None or b is None:
        return None
    return (a[0] | b[0], a[1] | b[1])


class FutureFootprints:
    """PC-indexed may-read/may-write sets: everything a thread might
    still access from its current program point onwards.

    Addresses are concrete (the layout is known); pointees come from
    the flow-insensitive points-to analysis, field-insensitively
    widened to the whole global. Accesses through unknown pointers
    poison the set to ``None`` (= may touch anything). Own-stack
    accesses are invisible to other threads and contribute nothing.
    """

    def __init__(self, program: Program, layout: GlobalLayout) -> None:
        self.program = program
        self.layout = layout
        self._pt: dict[str, PointsTo] = {}
        self._closure: Optional[dict] = None  # func -> sets | None(top)
        self._block_from: dict[tuple, Optional[tuple]] = {}
        self._point: dict[tuple, Optional[tuple]] = {}
        self._thread: dict[tuple, Optional[tuple]] = {}

    def points_to(self, fname: str) -> PointsTo:
        pt = self._pt.get(fname)
        if pt is None:
            pt = self._pt[fname] = PointsTo(self.program.functions[fname])
        return pt

    def _objs_to_addrs(self, objs: Iterable) -> Optional[frozenset[int]]:
        addrs: set[int] = set()
        for o in objs:
            if o is UNKNOWN:
                return None
            if isinstance(o, GlobalObj):
                base = self.layout.base[o.name]
                addrs.update(range(base, base + self.program.globals[o.name].size))
            # AllocaObj: the owning thread's own stack — invisible.
        return frozenset(addrs)

    def _inst_sets(self, fname: str, inst) -> Optional[tuple]:
        """(reads, writes) of one instruction, callees included."""
        pt = self.points_to(fname)
        if isinstance(inst, Load):
            a = self._objs_to_addrs(pt.pointees(inst.addr))
            return None if a is None else (a, _EMPTY)
        if isinstance(inst, Store):
            a = self._objs_to_addrs(pt.pointees(inst.addr))
            return None if a is None else (_EMPTY, a)
        if isinstance(inst, (CmpXchg, AtomicXchg, AtomicAdd)):
            a = self._objs_to_addrs(pt.pointees(inst.addr))
            return None if a is None else (a, a)
        if isinstance(inst, Call):
            return self._closures().get(inst.callee)
        return (_EMPTY, _EMPTY)

    def _closures(self) -> dict:
        """Whole-function (reads, writes) including callees, fixpoint
        over the (possibly recursive) call graph."""
        if self._closure is not None:
            return self._closure
        own: dict[str, Optional[tuple]] = {}
        calls: dict[str, set[str]] = {}
        for name, func in self.program.functions.items():
            pt = self.points_to(name)
            r: set[int] = set()
            w: set[int] = set()
            top = False
            callees: set[str] = set()
            for inst in func.instructions():
                if isinstance(inst, Call):
                    callees.add(inst.callee)
                    continue
                if isinstance(inst, (Load, Store, CmpXchg, AtomicXchg, AtomicAdd)):
                    a = self._objs_to_addrs(pt.pointees(inst.addr))
                    if a is None:
                        top = True
                        break
                    if not isinstance(inst, Store):
                        r |= a
                    if not isinstance(inst, Load):
                        w |= a
            own[name] = None if top else (frozenset(r), frozenset(w))
            calls[name] = callees
        closure = dict(own)
        changed = True
        while changed:
            changed = False
            for name in closure:
                cur = closure[name]
                for callee in calls[name]:
                    cur = _merge(cur, closure.get(callee))  # unknown -> top
                if cur != closure[name]:
                    closure[name] = cur
                    changed = True
        self._closure = closure
        return closure

    def _block_sets(self, fname: str, block_index: int) -> Optional[tuple]:
        """Accesses from the start of a block to the end of the
        function (loops and callees included) — block-level fixpoint."""
        memo_key = (fname, block_index)
        if memo_key in self._block_from:
            return self._block_from[memo_key]
        func = self.program.functions[fname]
        own: list[Optional[tuple]] = []
        succs: list[list[int]] = []
        for block in func.blocks:
            acc: Optional[tuple] = (_EMPTY, _EMPTY)
            targets: list[int] = []
            for inst in block.instructions:
                acc = _merge(acc, self._inst_sets(fname, inst))
                if isinstance(inst, Br):
                    targets.append(func.block(inst.true_label).index)
                    targets.append(func.block(inst.false_label).index)
                elif isinstance(inst, Jump):
                    targets.append(func.block(inst.target).index)
            own.append(acc)
            succs.append(targets)
        sets = list(own)
        changed = True
        while changed:
            changed = False
            for b in range(len(func.blocks)):
                cur = sets[b]
                for s in succs[b]:
                    cur = _merge(cur, sets[s])
                if cur != sets[b]:
                    sets[b] = cur
                    changed = True
        for b in range(len(func.blocks)):
            self._block_from[(fname, b)] = sets[b]
        return sets[block_index]

    def _point_sets(
        self, fname: str, block_index: int, inst_index: int
    ) -> Optional[tuple]:
        """Accesses from one program point onwards."""
        memo_key = (fname, block_index, inst_index)
        cached = self._point.get(memo_key, False)
        if cached is not False:
            return cached
        func = self.program.functions[fname]
        block = func.blocks[block_index]
        acc: Optional[tuple] = (_EMPTY, _EMPTY)
        for inst in block.instructions[inst_index:]:
            acc = _merge(acc, self._inst_sets(fname, inst))
            if isinstance(inst, Br):
                acc = _merge(acc, self._block_sets(fname, func.block(inst.true_label).index))
                acc = _merge(acc, self._block_sets(fname, func.block(inst.false_label).index))
            elif isinstance(inst, Jump):
                acc = _merge(acc, self._block_sets(fname, func.block(inst.target).index))
        self._point[memo_key] = acc
        return acc

    def thread_future(self, ts: ThreadState) -> Optional[tuple]:
        """(reads, writes) thread ``ts`` may still perform, or None if
        unbounded. Caller frames resume *after* their call site.
        Cached on ``ts``, which only ever meets this oracle."""
        fut = ts._future
        if fut is None:
            fut = ts._future = (self._thread_future(ts),)
        return fut[0]

    def _thread_future(self, ts: ThreadState) -> Optional[tuple]:
        if ts.done or not ts.frames:
            return (_EMPTY, _EMPTY)
        pcs = tuple(
            (f.func.name, f.block_index, f.inst_index) for f in ts.frames
        )
        cached = self._thread.get(pcs, False)
        if cached is not False:
            return cached
        acc: Optional[tuple] = (_EMPTY, _EMPTY)
        last = len(pcs) - 1
        for depth, (fname, block_index, inst_index) in enumerate(pcs):
            idx = inst_index if depth == last else inst_index + 1
            acc = _merge(acc, self._point_sets(fname, block_index, idx))
            if acc is None:
                break
        self._thread[pcs] = acc
        return acc


# --- symmetry ------------------------------------------------------------


def _executed_functions(program: Program) -> Optional[set[str]]:
    seen: set[str] = set()
    work = [spec.func_name for spec in program.threads]
    while work:
        name = work.pop()
        if name in seen:
            continue
        func = program.functions.get(name)
        if func is None:
            return None
        seen.add(name)
        for inst in func.instructions():
            if isinstance(inst, Call):
                work.append(inst.callee)
    return seen


def _symmetry_safe(program: Program) -> bool:
    """Thread permutations preserve behavior only if no thread-owned
    stack address can reach shared state or an observation: stack
    windows are tid-indexed, so a leaked address would distinguish
    otherwise-identical threads."""
    executed = _executed_functions(program)
    if executed is None:
        return False
    for name in executed:
        func = program.functions[name]
        pt = PointsTo(func)
        if pt.escaped_allocas:
            return False
        for inst in func.instructions():
            if isinstance(inst, Observe) and any(
                isinstance(o, AllocaObj) for o in pt.pointees(inst.value)
            ):
                return False
    return True


def symmetry_classes(program: Program) -> tuple[tuple[int, ...], ...]:
    """Groups of thread ids running the same function with the same
    arguments, when permuting them is provably behavior-preserving.
    Empty when no class exists, the orbit is too large, or a stack
    address may leak into shared state."""
    groups: dict[tuple, list[int]] = {}
    for tid, spec in enumerate(program.threads):
        groups.setdefault((spec.func_name, tuple(spec.args)), []).append(tid)
    classes = tuple(tuple(g) for g in groups.values() if len(g) > 1)
    if not classes:
        return ()
    orbit = 1
    for cls in classes:
        orbit *= math.factorial(len(cls))
    if orbit > _MAX_ORBIT:
        return ()
    if not _symmetry_safe(program):
        return ()
    return classes


class _CanonBail(Exception):
    """A value outside the thread's own stack window: fall back to the
    raw (non-symmetric) key."""


def _norm_thread_key(ts: ThreadState) -> Optional[tuple]:
    """``ThreadState.key()`` with the thread identity removed: stack
    addresses rebased to the window start and the tid dropped. None
    when a value lies outside the thread's own stack window. Computed
    once per state."""
    norm = ts._norm
    if norm is None:
        try:
            norm = _compute_norm_key(ts)
        except _CanonBail:
            norm = False
        ts._norm = norm
    return norm or None


def _compute_norm_key(ts: ThreadState) -> tuple:
    lo, hi = stack_range(ts.tid)

    def nv(v: int) -> object:
        if lo <= v < hi:
            return ("S", v - lo)
        if v >= STACK_BASE:
            raise _CanonBail
        return v

    frames = tuple(
        (
            f.func.name,
            f.block_index,
            f.inst_index,
            tuple(sorted((name, nv(v)) for name, v in f.regs.items())),
            f.call_dest,
        )
        for f in ts.frames
    )
    local = tuple(sorted((addr - lo, nv(v)) for addr, v in ts.local_mem.items()))
    obs = tuple((label, nv(v)) for label, v in ts.observations)
    return (frames, local, ts.sp - lo, obs, ts.done)


def close_outcomes(
    outcomes: set["Outcome"], classes: tuple[tuple[int, ...], ...]
) -> set["Outcome"]:
    """Orbit closure: re-attribute observations under every class
    permutation (final globals are permutation-invariant)."""
    from repro.memmodel.sc import Outcome

    maps: list[dict[int, int]] = [{}]
    for cls in classes:
        maps = [
            {**m, **dict(zip(cls, perm))}
            for m in maps
            for perm in itertools.permutations(cls)
        ]
    closed: set[Outcome] = set()
    for o in outcomes:
        for m in maps:
            obs = tuple(
                sorted((m.get(tid, tid), label, v) for tid, label, v in o.observations)
            )
            closed.add(Outcome(obs, o.final_globals))
    return closed


# --- the core DFS --------------------------------------------------------


class CoreExplorer:
    """Model-generic DFS with sleep sets, persistent singleton steps,
    canonical hashing, and budget-aware deepening.

    Subclasses supply the operational semantics:

    * ``initial_state()`` — the root state;
    * ``transitions(state)`` — enabled :class:`Transition`\\ s;
    * ``threads_of(state)`` / ``state_parts(state)`` /
      ``buffered_addrs(state, tid)`` — state decomposition;
    * ``outcome_of(state)`` / ``check_final(state)`` — terminal states.

    ``reduction=False`` restores exhaustive interleaving enumeration
    (the differential-testing baseline); ``canonicalize=False``
    disables symmetry normalization; ``deepening=True`` switches the
    single bounded DFS for iterative deepening with a doubling depth
    limit and a principled verdict.
    """

    DEFAULT_MAX_STATES = 1_000_000

    #: Registry key used to label this explorer's metrics samples
    #: (``repro_explore_*_total{model=...}``); subclasses override.
    MODEL_KEY = "generic"

    def __init__(
        self,
        program: Program,
        max_states: Optional[int] = None,
        max_steps_per_thread: int = 100_000,
        observe_globals: Optional[list[str]] = None,
        *,
        reduction: bool = True,
        canonicalize: bool = True,
        deepening: bool = False,
        initial_depth: int = 64,
    ) -> None:
        self.program = program
        self.executor = ThreadExecutor(program)
        self.layout = self.executor.layout
        self.max_states = (
            self.DEFAULT_MAX_STATES if max_states is None else max_states
        )
        self.max_steps = max_steps_per_thread
        self.observe_globals = observe_globals
        self.reduction = reduction
        self.canonicalize = canonicalize
        self.deepening = deepening
        self.initial_depth = initial_depth
        self.sleep_blocked = 0
        self.pruned_transitions = 0
        self.successors_built = 0
        self._fp_memo: dict[tuple[int, bool, bool], Footprint] = {}

    # --- semantics hooks (subclass responsibility) -----------------------
    def initial_state(self) -> tuple:
        raise NotImplementedError

    def transitions(self, state: tuple) -> list[Transition]:
        raise NotImplementedError

    def threads_of(self, state: tuple) -> tuple[ThreadState, ...]:
        raise NotImplementedError

    def state_parts(self, state: tuple) -> tuple[tuple, tuple]:
        """(shared component, per-thread model components)."""
        raise NotImplementedError

    def buffered_addrs(self, state: tuple, tid: int) -> frozenset[int]:
        return _EMPTY

    def outcome_of(self, state: tuple) -> "Outcome":
        raise NotImplementedError

    def check_final(self, state: tuple) -> None:
        """Raise on deadlock; terminal states are otherwise outcomes."""

    # --- shared helpers ---------------------------------------------------
    def _addr_fp(
        self, addr: int, *, reads: bool = False, writes: bool = False
    ) -> Footprint:
        memo_key = (addr, reads, writes)
        fp = self._fp_memo.get(memo_key)
        if fp is None:
            if not self.layout.is_global(addr):
                fp = TOP_FP  # cross-thread stack access: unanalyzable
            else:
                a = frozenset((addr,))
                fp = Footprint(
                    reads=a if reads else _EMPTY, writes=a if writes else _EMPTY
                )
            self._fp_memo[memo_key] = fp
        return fp

    def _commit(
        self,
        threads: tuple[ThreadState, ...],
        i: int,
        ready: ThreadState,
        pending: Optional[PendingAction],
        load_result: Optional[int] = None,
    ) -> tuple[ThreadState, ...]:
        """``threads`` after thread ``i`` performs ``pending`` from its
        probe's ``ready`` state: committed on a fresh clone, or, for a
        finished thread, the ready state itself. Siblings are shared."""
        if pending is not None:
            ready = ready.clone()
            self.executor.commit(ready, pending, load_result)
        return threads[:i] + (ready,) + threads[i + 1 :]

    # --- exploration ------------------------------------------------------
    def explore(self) -> "ExplorationResult":
        from repro.memmodel.sc import ExplorationResult

        oracle = (
            FutureFootprints(self.program, self.layout) if self.reduction else None
        )
        classes = symmetry_classes(self.program) if self.canonicalize else ()
        # Per-exploration reduction counters, flushed to the metrics
        # registry once at the end (the DFS itself stays metric-free).
        self.sleep_blocked = 0
        self.pruned_transitions = 0
        self.successors_built = 0
        self.executor.probes = 0

        with obs_trace.span(
            "explore.run", cat="explore",
            model=self.MODEL_KEY, program=self.program.name,
        ) as sp:
            if not self.deepening:
                outcomes, states, hit_states, _ = self._run(
                    oracle, classes, None
                )
                visited = states
                complete = not hit_states
                verdict = "complete" if complete else "bounded:max-states"
                rounds = 1
            else:
                depth = max(1, self.initial_depth)
                rounds = 0
                visited = 0
                while True:
                    rounds += 1
                    outcomes, states, hit_states, hit_depth = self._run(
                        oracle, classes, depth
                    )
                    visited += states
                    if hit_states:
                        complete, verdict = False, "bounded:max-states"
                        break
                    if not hit_depth:
                        complete, verdict = True, "complete"
                        break
                    depth *= 2
            sp.set(states=visited, verdict=verdict, rounds=rounds)
        registry = obs_metrics.REGISTRY
        registry.inc(
            "repro_explore_states_total", visited, model=self.MODEL_KEY
        )
        registry.inc(
            "repro_explore_sleep_blocked_total",
            self.sleep_blocked, model=self.MODEL_KEY,
        )
        registry.inc(
            "repro_explore_pruned_total",
            self.pruned_transitions, model=self.MODEL_KEY,
        )
        registry.inc(
            "repro_explore_successors_total",
            self.successors_built, model=self.MODEL_KEY,
        )
        registry.inc(
            "repro_explore_probes_total",
            self.executor.probes, model=self.MODEL_KEY,
        )
        if classes:
            outcomes = close_outcomes(outcomes, classes)
        return ExplorationResult(
            outcomes,
            states,
            complete,
            verdict=verdict,
            reduced=self.reduction,
            rounds=rounds,
        )

    def _canon_key(
        self, state: tuple, classes: tuple[tuple[int, ...], ...]
    ) -> tuple[tuple, Optional[list[int]]]:
        shared, parts = self.state_parts(state)
        threads = self.threads_of(state)
        if classes:
            norm = [_norm_thread_key(ts) for ts in threads]
            if None in norm:
                classes = ()
        if not classes:
            return ("raw", shared, tuple([ts.key() for ts in threads]), parts), None
        entries = [(norm[i], parts[i]) for i in range(len(threads))]
        perm = list(range(len(threads)))
        for cls in classes:
            ranked = sorted(cls, key=lambda i: repr(entries[i]))
            for slot, orig in zip(cls, ranked):
                perm[orig] = slot
        arranged: list = [None] * len(threads)
        for orig, slot in enumerate(perm):
            arranged[slot] = entries[orig]
        return ("sym", shared, tuple(arranged)), perm

    @staticmethod
    def _canon_tkey(key: tuple, perm: Optional[list[int]]) -> tuple:
        if perm is None:
            return key
        return (key[0], perm[key[1]]) + key[2:]

    def _pick_safe(
        self,
        state: tuple,
        explorable: list[Transition],
        oracle: FutureFootprints,
    ) -> Optional[Transition]:
        """A transition forming a persistent set of size one, if any."""
        for t in explorable:
            if t.fp.local and t.is_step:
                return t  # invisible: commutes with everything
        threads = self.threads_of(state)
        pending_addrs: dict[int, frozenset[int]] = {}
        for t in explorable:
            fp = t.fp
            if fp.top or fp.local:
                continue
            ok = True
            for j, ts in enumerate(threads):
                if j == t.tid:
                    continue
                pend = pending_addrs.get(j)
                if pend is None:
                    pend = pending_addrs[j] = self.buffered_addrs(state, j)
                fut = oracle.thread_future(ts)
                if fut is None:
                    ok = False
                    break
                future_reads, future_writes = fut
                if pend:
                    future_writes = future_writes | pend
                if fp.global_read:
                    if future_writes:
                        ok = False
                        break
                    continue
                if (fp.reads | fp.writes) & future_writes or fp.writes & future_reads:
                    ok = False
                    break
            if ok:
                return t
        return None

    def _push(
        self, stack: list, t: Transition, sleep: tuple[_SleepEntry, ...], depth: int
    ) -> None:
        """Build ``t``'s successor states and push them for the DFS."""
        succs = t.build()
        self.successors_built += len(succs)
        for succ in succs:
            stack.append((succ, sleep, depth))

    def _run(
        self,
        oracle: Optional[FutureFootprints],
        classes: tuple[tuple[int, ...], ...],
        depth_limit: Optional[int],
    ) -> tuple[set, int, bool, bool]:
        outcomes: set = set()
        # state key -> antichain of (sleep keyset, entry depth) already
        # explored there. A prior visit covers this one only if it
        # slept on a subset of our sleep set (explored at least as
        # much) at no greater depth (had at least our remaining depth
        # budget).
        visited: dict[tuple, list[tuple[frozenset, int]]] = {}
        stack: list[tuple[tuple, tuple[_SleepEntry, ...], int]] = [
            (self.initial_state(), (), 0)
        ]
        states = 0
        hit_states = False
        hit_depth = False

        while stack:
            state, sleep, depth = stack.pop()
            key, perm = self._canon_key(state, classes)
            sleep_keys = frozenset(
                self._canon_tkey(e[0], perm) for e in sleep
            )
            records = visited.get(key)
            if records is not None and any(
                recorded <= sleep_keys and rdepth <= depth
                for recorded, rdepth in records
            ):
                continue
            if records is None:
                visited[key] = [(sleep_keys, depth)]
            else:
                records.append((sleep_keys, depth))
            states += 1
            if states > self.max_states:
                hit_states = True
                break

            trans = self.transitions(state)
            if not trans:
                self.check_final(state)
                outcomes.add(self.outcome_of(state))
                continue
            if depth_limit is not None and depth >= depth_limit:
                hit_depth = True
                continue

            if sleep:
                asleep = {e[0] for e in sleep}
                explorable = [t for t in trans if t.key not in asleep]
                self.pruned_transitions += len(trans) - len(explorable)
                if not explorable:
                    self.sleep_blocked += 1
                    continue  # everything here was explored from a sibling
            else:
                explorable = trans
            ndepth = depth + 1

            if oracle is None:
                for t in explorable:
                    self._push(stack, t, (), ndepth)
                continue

            safe = self._pick_safe(state, explorable, oracle)
            if safe is not None:
                self.pruned_transitions += len(explorable) - 1
                new_sleep = tuple(e for e in sleep if not _dependent(e, safe))
                self._push(stack, safe, new_sleep, ndepth)
                continue

            slept = list(sleep)
            for t in explorable:
                new_sleep = tuple(e for e in slept if not _dependent(e, t))
                self._push(stack, t, new_sleep, ndepth)
                slept.append((t.key, t.tid, t.is_step, t.fp))

        return outcomes, states, hit_states, hit_depth
