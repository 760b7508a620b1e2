"""Pure-python max-flow (Dinic) over the per-block delay network.

The optimal synthesizer (:mod:`repro.synth.optimal`) phrases one
block's fence problem as an s-t cut: gaps become chain edges priced at
the cheapest fence flavor sufficient for every delay interval through
the gap, and each interval pins an infinite-capacity bypass from the
source to its left endpoint and from just past its right endpoint to
the sink. Any s-t path then threads some interval end to end, so every
finite cut must sever at least one priced gap inside each interval —
a cut *is* a fence placement.

Two honest caveats, both load-bearing for how the synthesizer uses
this network:

* For *laminar* interval families (nested or disjoint — the common
  shape in straight-line litmus and corpus blocks) the minimum cut is
  a minimum-cost placement. For *crossing* families it can
  overcharge: the network forces a cut inside every pairwise overlap,
  which is why Alglave et al. ("Don't sit on the fence", CAV 2014)
  resort to an ILP for the general problem. The exact dynamic program
  in :mod:`repro.synth.optimal` closes that gap; the cut value is kept
  as an upper-bound certificate (``dp_cost <= cut_value`` always) and
  as the witness placement reported by the ``FENCE104`` lint. A
  synthesized plan solves its networks on the first read of that
  certificate, not while synthesizing.
* Gap prices are conservative: a cut edge is priced for the union of
  kinds crossing the gap, even if a cheaper flavor would do once the
  final assignment of intervals to fences is known. The DP prices
  flavors exactly.

No external solver: Dinic's algorithm (BFS level graph + blocking DFS
with the current-arc optimization) in plain python, O(V^2 E). The
blocking DFS keeps an explicit stack, since one interval spanning a
long straight-line block makes an augmenting path thousands of hops
long. Building the network costs more than solving it: gap pricing in
:func:`repro.synth.optimal.block_cut` is one sweep per ordering kind.
Over the 17-program corpus (``address+control``, arm) one block's
certificate takes 0.5 ms on average and 12 ms at most, on a 2-vCPU
x86-64 container under Python 3.11; pricing each gap against every
interval took 6.8 ms on average and 274 ms at most there.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

#: Effectively-infinite capacity for interval bypass edges. Summing
#: every realistic gap price stays far below this, so a finite min cut
#: never severs a bypass.
INF = 1 << 60


@dataclass
class _Edge:
    to: int
    cap: int
    #: Index of the reverse edge in ``graph[to]``.
    rev: int
    #: Caller-side tag carried through to :meth:`FlowNetwork.min_cut`
    #: (the synthesizer tags chain edges with their gap index).
    tag: object = None


@dataclass
class FlowNetwork:
    """A directed flow network with integer capacities."""

    n: int = 0
    graph: list[list[_Edge]] = field(default_factory=list)

    def add_node(self) -> int:
        self.graph.append([])
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int, cap: int, tag: object = None) -> None:
        """Add a directed edge ``u -> v``; the reverse edge starts empty."""
        self.graph[u].append(_Edge(v, cap, len(self.graph[v]), tag))
        self.graph[v].append(_Edge(u, 0, len(self.graph[u]) - 1))

    # --- Dinic ----------------------------------------------------------
    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.graph[u]:
                if e.cap > 0 and level[e.to] < 0:
                    level[e.to] = level[u] + 1
                    queue.append(e.to)
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push flow along one level-graph path from ``s`` to ``t``.

        An explicit-stack DFS with current-arc pointers ``it``: an
        interval spanning thousands of gaps makes a path thousands of
        hops long. A dead end advances its parent's arc. Returns the
        amount pushed (at most ``INF``), 0 when the level graph is
        blocked.
        """
        graph = self.graph
        path: list[_Edge] = []
        u = s
        while u != t:
            edges = graph[u]
            i = it[u]
            while i < len(edges):
                e = edges[i]
                if e.cap > 0 and level[e.to] == level[u] + 1:
                    break
                i += 1
            it[u] = i
            if i < len(edges):
                path.append(edges[i])
                u = edges[i].to
                continue
            if not path:
                return 0
            back = path.pop()
            u = graph[back.to][back.rev].to
            it[u] += 1
        pushed = min(INF, *(e.cap for e in path))
        for e in path:
            e.cap -= pushed
            graph[e.to][e.rev].cap += pushed
        return pushed

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def min_cut(self, s: int, t: int) -> tuple[int, list[object]]:
        """Run max-flow, then read off the minimum cut.

        Returns ``(cut value, tags of saturated forward edges crossing
        the cut)`` — by max-flow/min-cut duality the saturated edges
        from the source's residual side to the sink's side form a
        minimum cut, and their tags are the caller's placement witness.
        """
        value = self.max_flow(s, t)
        reachable = [False] * self.n
        reachable[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.graph[u]:
                if e.cap > 0 and not reachable[e.to]:
                    reachable[e.to] = True
                    queue.append(e.to)
        tags = [
            e.tag
            for u in range(self.n)
            if reachable[u]
            for e in self.graph[u]
            if e.cap == 0 and e.tag is not None and not reachable[e.to]
        ]
        return value, tags
