"""Exact Shasha-Snir delay-set analysis for whole (small) programs.

The practical pipeline approximates Delay-set analysis the Pensieve way
(escape analysis + pairwise orderings). This module implements the real
thing — critical-cycle enumeration over the mixed program-order /
conflict graph — at litmus scale, for three uses:

* the paper's Fig. 2 worked example (5 fences -> 2 after pruning);
* ground truth in tests (MP, SB, Dekker delay pairs);
* the ablation test comparing exact vs approximated orderings.

Critical cycles are enumerated as simple cycles in the combined graph
with at most two accesses per thread (Shasha & Snir's minimality
condition; with <= 2 accesses per thread, each thread contributes at
most one transitive program-order edge, so no cycle has two
consecutive program-order edges). We do not filter chords, which can
only *add* delay pairs — a conservative over-approximation, consistent
with every practical tool built on this analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.aliasing import UNKNOWN, AllocaObj, GlobalObj, PointsTo
from repro.core.orderings import Access, Ordering, OrderingSet, logical_accesses
from repro.ir.function import Program
from repro.query.engine import QueryEngine


@dataclass(frozen=True)
class ThreadAccess:
    """A logical access tagged with the thread (index) executing it."""

    thread: int
    access: Access

    def __repr__(self) -> str:
        return f"T{self.thread}:{self.access!r}"


@dataclass
class CriticalCycle:
    """One critical cycle plus its program-order (delay) and conflict edges."""

    nodes: tuple[ThreadAccess, ...]
    delays: tuple[tuple[ThreadAccess, ThreadAccess], ...]
    conflicts: tuple[tuple[ThreadAccess, ThreadAccess], ...] = ()


@dataclass
class DelaySetResult:
    program: Program
    cycles: list[CriticalCycle]
    # Delay (program-order) edges per function name.
    delays: dict[str, list[Ordering]] = field(default_factory=dict)

    def ordering_set(self, func_name: str) -> OrderingSet:
        func = self.program.functions[func_name]
        return OrderingSet(func, self.delays.get(func_name, []))

    @property
    def total_delays(self) -> int:
        return sum(len(v) for v in self.delays.values())


class DelaySetAnalysis:
    """Shasha-Snir critical cycles over a whole program's static accesses.

    ``exclude_coherence_cycles`` drops cycles whose conflict edges all
    sit on one provably-identical location: cache coherence already
    orders same-location accesses on every real machine (including the
    relaxed ones the paper targets), so such cycles — CoRR and
    coherence shapes — need no fences. The paper's Fig. 2 worked
    example implicitly applies the same rule.
    """

    def __init__(
        self,
        program: Program,
        max_cycle_nodes: int = 8,
        exclude_coherence_cycles: bool = True,
        context: QueryEngine | None = None,
    ) -> None:
        self.program = program
        self.max_cycle_nodes = max_cycle_nodes
        self.exclude_coherence_cycles = exclude_coherence_cycles
        # All per-function facts come from the program's query engine
        # (lazily), so a pipeline run over the same IR reuses them and
        # vice versa.
        self.engine = context if context is not None else QueryEngine(program)

    def _points_to_of(self, func_name: str) -> PointsTo:
        return self.engine.get("points_to", self.program.functions[func_name])

    # --- cross-thread conflict oracle ---------------------------------------
    def _shared_objects(self, thread_func: str, access: Access) -> frozenset:
        """Thread-visible abstract objects an access may touch."""
        pt = self._points_to_of(thread_func)
        addr = access.inst.address_operand()
        objs = pt.pointees(addr)
        shared = set()
        for o in objs:
            if isinstance(o, GlobalObj) or o is UNKNOWN:
                shared.add(o)
            elif isinstance(o, AllocaObj) and o in pt.escaped_allocas:
                # Escaped locals are not nameable across functions;
                # conservatively treat as unknown shared memory.
                shared.add(UNKNOWN)
        return frozenset(shared)

    def _conflicts(self, a: ThreadAccess, b: ThreadAccess, fa: str, fb: str) -> bool:
        if a.thread == b.thread:
            return False
        if not (a.access.is_write or b.access.is_write):
            return False
        sa = self._shared_objects(fa, a.access)
        sb = self._shared_objects(fb, b.access)
        if not sa or not sb:
            return False
        if UNKNOWN in sa or UNKNOWN in sb:
            return True
        return bool(sa & sb)

    # --- cycle enumeration ------------------------------------------------------
    def compute(self) -> DelaySetResult:
        threads = list(self.program.threads)
        nodes: list[ThreadAccess] = []
        func_of_thread: dict[int, str] = {}
        for t_index, spec in enumerate(threads):
            func = self.program.functions[spec.func_name]
            func_of_thread[t_index] = spec.func_name
            escaping = self.engine.get("escape_info", func).escaping
            for access in logical_accesses(escaping):
                nodes.append(ThreadAccess(t_index, access))

        shared_objs = [
            self._shared_objects(func_of_thread[n.thread], n.access) for n in nodes
        ]

        po_edges: set[tuple[int, int]] = set()
        conflict_edges: set[tuple[int, int]] = set()
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                if i == j:
                    continue
                if a.thread == b.thread:
                    if a.access.inst is b.access.inst:
                        # RMW read half precedes its write half.
                        if a.access.part == "r" and b.access.part == "w":
                            po_edges.add((i, j))
                        continue
                    reach = self.engine.get(
                        "reachability",
                        self.program.functions[func_of_thread[a.thread]],
                    )
                    if reach.exists_path(a.access.inst, b.access.inst):
                        po_edges.add((i, j))
                else:
                    if self._conflicts(
                        a, b, func_of_thread[a.thread], func_of_thread[b.thread]
                    ):
                        conflict_edges.add((i, j))

        cycles = self._enumerate_cycles(nodes, po_edges, conflict_edges)
        if self.exclude_coherence_cycles:
            cycles = [
                c for c in cycles if not self._coherence_enforced(c, nodes, shared_objs)
            ]

        result = DelaySetResult(self.program, cycles)
        seen_delays: dict[str, set[tuple[int, int, str, str]]] = {}
        for cycle in cycles:
            for u, v in cycle.delays:
                func_name = func_of_thread[u.thread]
                key = (
                    u.access.inst.uid,
                    v.access.inst.uid,
                    u.access.part,
                    v.access.part,
                )
                bucket = seen_delays.setdefault(func_name, set())
                if key in bucket:
                    continue
                bucket.add(key)
                result.delays.setdefault(func_name, []).append(
                    Ordering(u.access, v.access)
                )
        return result

    def _enumerate_cycles(
        self,
        nodes: list[ThreadAccess],
        po_edges: set[tuple[int, int]],
        conflict_edges: set[tuple[int, int]],
    ) -> list[CriticalCycle]:
        """DFS enumeration of simple cycles alternating through threads.

        Constraints making a cycle critical: at most 2 nodes per thread,
        at least 2 threads, and program-order edges never consecutive
        (enforced by the per-thread node cap).
        """
        adjacency: dict[int, list[tuple[int, str]]] = {i: [] for i in range(len(nodes))}
        for u, v in po_edges:
            adjacency[u].append((v, "po"))
        for u, v in conflict_edges:
            adjacency[u].append((v, "con"))

        cycles: list[CriticalCycle] = []
        seen_cycles: set[frozenset[int]] = set()

        def dfs(
            start: int,
            current: int,
            path: list[tuple[int, str]],
            thread_counts: dict[int, int],
            last_kind: str,
        ) -> None:
            if len(path) > self.max_cycle_nodes:
                return
            for nxt, kind in adjacency[current]:
                if kind == "po" and last_kind == "po":
                    continue  # would not be a minimal cycle
                if nxt == start and len(path) >= 2:
                    if kind == "po" and path[0][1] == "po":
                        continue
                    if len({nodes[i].thread for i, _ in path}) < 2:
                        continue
                    key = frozenset(i for i, _ in path)
                    if key in seen_cycles:
                        continue
                    seen_cycles.add(key)
                    cycles.append(self._make_cycle(nodes, path, kind))
                    continue
                if any(i == nxt for i, _ in path):
                    continue
                if nxt < start:
                    continue  # canonical start: smallest index
                t = nodes[nxt].thread
                if thread_counts.get(t, 0) >= 2:
                    continue
                thread_counts[t] = thread_counts.get(t, 0) + 1
                path.append((nxt, kind))
                dfs(start, nxt, path, thread_counts, kind)
                path.pop()
                thread_counts[t] -= 1

        for start in range(len(nodes)):
            dfs(
                start,
                start,
                [(start, "")],
                {nodes[start].thread: 1},
                "",
            )
        return cycles

    @staticmethod
    def _make_cycle(
        nodes: list[ThreadAccess],
        path: list[tuple[int, str]],
        closing_kind: str,
    ) -> CriticalCycle:
        cycle_nodes = tuple(nodes[i] for i, _ in path)
        delays: list[tuple[ThreadAccess, ThreadAccess]] = []
        conflicts: list[tuple[ThreadAccess, ThreadAccess]] = []
        # Edge kinds: path[k][1] is the kind of the edge *into* path[k];
        # closing_kind is the edge from the last node back to the first.
        for k in range(1, len(path)):
            edge = (nodes[path[k - 1][0]], nodes[path[k][0]])
            (delays if path[k][1] == "po" else conflicts).append(edge)
        closing_edge = (nodes[path[-1][0]], nodes[path[0][0]])
        (delays if closing_kind == "po" else conflicts).append(closing_edge)
        return CriticalCycle(cycle_nodes, tuple(delays), tuple(conflicts))

    def _coherence_enforced(
        self,
        cycle: CriticalCycle,
        nodes: list[ThreadAccess],
        shared_objs: list[frozenset],
    ) -> bool:
        """True if every conflict edge provably sits on one common
        location — such cycles are ordered by cache coherence alone."""
        objs_of = {node: objs for node, objs in zip(nodes, shared_objs)}
        witness: frozenset | None = None
        for a, b in cycle.conflicts:
            edge_objs = objs_of[a] & objs_of[b]
            if len(edge_objs) != 1 or UNKNOWN in edge_objs:
                return False
            if witness is None:
                witness = edge_objs
            elif edge_objs != witness:
                return False
        return witness is not None
