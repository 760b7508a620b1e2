"""Shared per-program analysis context — now a query-engine facade.

Before this module existed, every pipeline stage built its own
``PointsTo``/``EscapeInfo``/``ReachabilityTable``; an
:class:`AnalysisContext` became the single construction site for those
facts. Since the :mod:`repro.query` engine landed, the context no
longer memoizes by hand: each fact kind is a registered *query*
(``points_to``, ``escape_info``, ``reachability``, ``writers_cache``,
``acquires``, ``interprocedural``) evaluated through a
:class:`~repro.query.engine.QueryEngine`, which records dependency
edges as they are read and invalidates at function granularity. The
context keeps its historical surface — consumers ask it for facts
exactly as before — plus:

* :meth:`refresh` — after mutating a function's IR in place,
  re-fingerprints the inputs and evicts exactly the stale query
  subgraph, so warm re-analysis recomputes only the edited function's
  facts (and anything, like the interprocedural fixpoint, that read
  them);
* ``cache_dir`` — an optional on-disk persistent query cache keyed by
  content fingerprint (used by long-lived sessions and ``repro
  serve``).

Facts are variant-independent except acquire detection, which is keyed
per ``(function, Variant)``. The context is bound to at most one
:class:`~repro.ir.function.Program`; loose functions (unit tests,
Table-II kernels) work too, but whole-program facts require a program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.aliasing import PointsTo
from repro.analysis.escape import EscapeInfo
from repro.analysis.reachability import ReachabilityTable
from repro.ir.function import Function, Program
from repro.ir.instructions import Instruction
from repro.query.engine import QueryEngine

if TYPE_CHECKING:  # avoid import cycles; these are runtime-lazy below
    from repro.core.interprocedural import InterproceduralResult
    from repro.core.signatures import AcquireResult, Variant


@dataclass
class ContextStats:
    """Memoization counters (observable in tests and benchmarks)."""

    hits: int = 0
    misses: int = 0
    by_fact: dict[str, int] = field(default_factory=dict)

    def record(self, fact: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            self.by_fact[fact] = self.by_fact.get(fact, 0) + 1

    def snapshot(self) -> "ContextStats":
        return ContextStats(self.hits, self.misses, dict(self.by_fact))

    def since(self, before: "ContextStats") -> "ContextStats":
        """What was recorded after ``before`` (an earlier
        :meth:`snapshot`): one request's own counters."""
        return ContextStats(
            self.hits - before.hits,
            self.misses - before.misses,
            {
                fact: count - before.by_fact.get(fact, 0)
                for fact, count in self.by_fact.items()
                if count != before.by_fact.get(fact, 0)
            },
        )


class AnalysisContext:
    """Lazily computed, memoized per-function analysis facts.

    ``program`` is optional: a context can serve loose functions (unit
    tests, Table-II kernels), but whole-program facts — the
    interprocedural acquire fixpoint — require one. ``cache_dir``
    enables the engine's persistent query cache.
    """

    def __init__(
        self,
        program: Program | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        self.stats = ContextStats()
        self.engine = QueryEngine(program=program, cache_dir=cache_dir)
        self.engine.context = self

    def adopt_engine(self, engine: QueryEngine) -> "AnalysisContext":
        """Wire this (possibly bare) facade onto an existing engine."""
        self.stats = ContextStats()
        self.engine = engine
        engine.context = self
        return self

    @property
    def program(self) -> Program | None:
        return self.engine.program

    @program.setter
    def program(self, program: Program | None) -> None:
        self.engine.program = program

    def _fact(self, name: str, key) -> object:
        value, hit = self.engine.lookup(name, key)
        self.stats.record(name, hit)
        return value

    # --- per-function facts ----------------------------------------------
    def points_to(self, func: Function) -> PointsTo:
        return self._fact("points_to", func)

    def escape_info(self, func: Function) -> EscapeInfo:
        return self._fact("escape_info", func)

    def reachability(self, func: Function) -> ReachabilityTable:
        return self._fact("reachability", func)

    def writers_cache(self, func: Function) -> dict[int, list[Instruction]]:
        """The shared ``potential_writers`` memo for slicers over ``func``."""
        return self.engine.get("writers_cache", func)

    def acquires(self, func: Function, variant: "Variant") -> "AcquireResult":
        return self._fact("acquires", (func, variant))

    # --- whole-program facts ---------------------------------------------
    def interprocedural(self, variant: "Variant") -> "InterproceduralResult":
        if self.program is None:
            raise ValueError(
                "interprocedural acquire detection needs a whole program; "
                "construct the context with AnalysisContext(program)"
            )
        return self._fact("interprocedural", variant)

    # --- incremental invalidation ----------------------------------------
    def refresh(self) -> tuple[str, ...]:
        """Revalidate after in-place IR edits: evict the query subgraph
        of every changed function, keep everything else. Returns the
        changed functions' names."""
        return self.engine.refresh()

    def invalidate_function(self, func: Function) -> None:
        """Force-evict ``func``'s query subgraph."""
        self.engine.invalidate_function(func)
