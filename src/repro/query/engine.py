"""The demand-driven query engine (salsa/rustc-style, in miniature).

A *query* is a named computation over a hashable key — ``points_to``
keyed by a function, ``acquires`` keyed by ``(function, variant)``,
``interprocedural`` keyed by a variant over the whole program. Queries
are registered in :data:`QUERIES` (a
:class:`~repro.registry.core.Registry`, like every other pluggable
catalog in the tree) and evaluated through a :class:`QueryEngine`,
which gives them three properties the old hand-rolled memo dicts could
not:

* **recorded dependencies** — while a query computes, every input it
  touches and every sub-query it asks for is recorded as an edge, so
  the engine knows the exact derivation graph it actually used;
* **function-granularity invalidation** — inputs (IR functions) carry
  content fingerprints; :meth:`QueryEngine.refresh` re-fingerprints
  them and evicts precisely the query entries reachable from the
  changed inputs, leaving sibling functions' facts cached;
* **optional persistence** — a query that declares an encode/decode
  pair is written through to an on-disk cache keyed by its input
  fingerprint, so a *new* engine (even a new process) restores it
  without recomputing, as long as the input text is unchanged.

An engine belongs to one thread, like the
:class:`~repro.api.session.Session` that owns it: the in-flight
evaluation stack is a plain list, and serving concurrency comes from
worker processes, each with its own engine (they share only the
on-disk cache, whose writes are atomic).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Hashable

from repro.ir.function import Function, Program
from repro.ir.printer import format_function
from repro.obs import trace as obs_trace
from repro.registry.core import Registry
from repro.util.files import write_text_atomic

#: Bump when any query's semantics change so persisted entries miss.
QUERY_SCHEMA_VERSION = "1"

#: A node in the dependency graph: an input ``("fn", Function)`` /
#: ``("shape",)`` or a derived query key ``(query name, key)``.
Node = tuple


def fingerprint_function(func: Function) -> str:
    """Content fingerprint of one IR function (its printed form)."""
    return hashlib.sha256(format_function(func).encode("utf-8")).hexdigest()


def describe_key(key: Hashable) -> str:
    """A short human label for a query key (trace args, slow-query
    log): IR objects show their name, tuples recurse."""
    name = getattr(key, "name", None)
    if isinstance(name, str):
        return name
    if isinstance(key, tuple):
        return "(" + ", ".join(describe_key(part) for part in key) + ")"
    return repr(key)


def fingerprint_program_shape(program: Program) -> str:
    """Fingerprint of the program's cross-function structure: function
    names, globals, and static threads — everything a whole-program
    query depends on *besides* the per-function bodies."""
    parts = [
        ",".join(sorted(program.functions)),
        ";".join(
            f"{name}[{var.size}]={list(var.init)!r}"
            for name, var in sorted(program.globals.items())
        ),
        ";".join(f"{t.func_name}{t.args!r}" for t in program.threads),
    ]
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class QuerySpec:
    """One registered query kind.

    ``compute(engine, key)`` produces the value. The optional
    persistence triple (``input_of``, ``encode``, ``decode``) makes the
    query durable: ``input_of(key)`` names the function whose
    fingerprint keys the disk entry (plus ``suffix(key)`` for
    multi-part keys), ``encode(key, value)`` reduces the value to JSON
    data, and ``decode(engine, key, payload)`` rebuilds it against the
    current (fingerprint-identical) IR.
    """

    name: str
    compute: Callable[["QueryEngine", Hashable], Any]
    input_of: Callable[[Hashable], Function] | None = None
    suffix: Callable[[Hashable], str] | None = None
    encode: Callable[[Hashable, Any], Any] | None = None
    decode: Callable[["QueryEngine", Hashable, Any], Any] | None = None

    @property
    def persistable(self) -> bool:
        return (
            self.input_of is not None
            and self.encode is not None
            and self.decode is not None
        )


#: The query catalog; fact queries register at import of repro.query.
QUERIES: Registry[QuerySpec] = Registry("query")


def query(
    name: str,
    input_of: Callable[[Hashable], Function] | None = None,
    suffix: Callable[[Hashable], str] | None = None,
    encode: Callable[[Hashable, Any], Any] | None = None,
    decode: Callable[["QueryEngine", Hashable, Any], Any] | None = None,
):
    """Decorator registering a compute function as a named query."""

    def decorator(fn: Callable[["QueryEngine", Hashable], Any]):
        QUERIES.register(
            name,
            QuerySpec(
                name=name, compute=fn, input_of=input_of, suffix=suffix,
                encode=encode, decode=decode,
            ),
        )
        return fn

    return decorator


@dataclass
class QueryStats:
    """Engine counters (observable in tests, benchmarks, `serve` stats)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    #: Misses answered by actually running ``compute``.
    computes: int = 0
    #: Misses answered from the persistent (on-disk) cache.
    restored: int = 0
    #: Entries evicted by refresh()/invalidation.
    evictions: int = 0
    #: Per-query-kind counts; ``by_query`` keeps its historical meaning
    #: (computes per kind) — the observability layer reads the rest.
    by_query: dict[str, int] = field(default_factory=dict)
    by_query_hits: dict[str, int] = field(default_factory=dict)
    by_query_misses: dict[str, int] = field(default_factory=dict)
    by_query_evictions: dict[str, int] = field(default_factory=dict)

    def record_compute(self, name: str) -> None:
        self.computes += 1
        self.by_query[name] = self.by_query.get(name, 0) + 1

    def record_hit(self, name: str) -> None:
        self.hits += 1
        self.by_query_hits[name] = self.by_query_hits.get(name, 0) + 1

    def record_miss(self, name: str) -> None:
        self.misses += 1
        self.by_query_misses[name] = self.by_query_misses.get(name, 0) + 1

    def record_eviction(self, name: str) -> None:
        self.evictions += 1
        self.by_query_evictions[name] = (
            self.by_query_evictions.get(name, 0) + 1
        )

    def snapshot(self) -> "QueryStats":
        """A detached copy, to diff against later with :meth:`since`."""
        return self.since(QueryStats())

    def since(self, before: "QueryStats") -> "QueryStats":
        """What was recorded after ``before`` (an earlier
        :meth:`snapshot`): one request's own counters, with zero
        entries dropped from the per-kind maps."""
        delta: dict[str, Any] = {}
        for f in fields(self):
            now, then = getattr(self, f.name), getattr(before, f.name)
            if isinstance(now, dict):
                delta[f.name] = {
                    kind: count - then.get(kind, 0)
                    for kind, count in now.items()
                    if count != then.get(kind, 0)
                }
            else:
                delta[f.name] = now - then
        return QueryStats(**delta)

    def to_payload(self) -> dict:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "computes": self.computes,
            "restored": self.restored,
            "evictions": self.evictions,
            "by_query": dict(self.by_query),
            "by_query_hits": dict(self.by_query_hits),
            "by_query_misses": dict(self.by_query_misses),
            "by_query_evictions": dict(self.by_query_evictions),
        }


class PersistentQueryCache:
    """On-disk query results, one JSON file per (query, fingerprint).

    The disk layer is an optimization: unreadable/corrupt entries are
    misses, unwritable directories are ignored.

    Safe for concurrent use from many processes sharing one directory
    (the cluster's shared artifact store): entries are published with a
    write-to-temp + atomic rename, so a reader can never observe a
    half-written file, and same-fingerprint writers racing each other
    simply replace one complete entry with another complete entry of
    identical content.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str, fingerprint: str) -> Path:
        safe = name.replace("/", "_")
        return self.directory / f"{safe}.{fingerprint}.json"

    def load(self, name: str, fingerprint: str) -> Any | None:
        path = self._path(name, fingerprint)
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            return None

    def store(self, name: str, fingerprint: str, payload: Any) -> None:
        with contextlib.suppress(OSError):
            write_text_atomic(
                self._path(name, fingerprint),
                json.dumps(payload, sort_keys=True),
            )


class QueryEngine:
    """Evaluates registered queries with memoization, dependency
    tracking, fingerprint invalidation, and optional persistence."""

    def __init__(
        self,
        program: Program | None = None,
        cache_dir: str | Path | None = None,
        registry: Registry[QuerySpec] | None = None,
    ) -> None:
        if registry is None:
            import repro.query  # noqa: F401  (registers the fact queries)

            registry = QUERIES
        self.registry = registry
        self.program = program
        self.stats = QueryStats()
        self.persistent = (
            PersistentQueryCache(cache_dir) if cache_dir is not None else None
        )
        #: In-flight evaluations, innermost last: (node, deps read so far).
        self._frames: list[tuple[Node, set]] = []
        self._values: dict[tuple, Any] = {}
        self._deps: dict[tuple, frozenset] = {}
        self._rdeps: dict[Node, set] = {}
        self._fingerprints: dict[Function, str] = {}
        self._shape: str | None = None

    # --- dependency frames ------------------------------------------------
    def _note(self, node: Node) -> None:
        if self._frames:
            self._frames[-1][1].add(node)

    def touch_input(self, func: Function) -> None:
        """Record that the in-flight query read ``func``'s content,
        fingerprinting it on first sight."""
        if func not in self._fingerprints:
            self._fingerprints[func] = fingerprint_function(func)
        self._note(("fn", func))

    def touch_shape(self) -> None:
        """Record a read of the program's cross-function structure."""
        if self._shape is None and self.program is not None:
            self._shape = fingerprint_program_shape(self.program)
        self._note(("shape",))

    # --- evaluation -------------------------------------------------------
    def get(self, name: str, key: Hashable) -> Any:
        return self.lookup(name, key)[0]

    def lookup(self, name: str, key: Hashable) -> tuple[Any, bool]:
        """Evaluate query ``name`` at ``key``; returns ``(value, hit)``.

        A hit is an in-memory memo hit; persistent-cache restores and
        fresh computes both count as misses (they do input work).
        """
        node = (name, key)
        self.stats.lookups += 1
        self._note(node)
        if node in self._values:
            self.stats.record_hit(name)
            return self._values[node], True
        self.stats.record_miss(name)
        spec = self.registry.get(name)
        frames = self._frames
        if any(frame_node == node for frame_node, _ in frames):
            raise RuntimeError(f"query cycle at {name!r}")
        frames.append((node, set()))
        # The span opens inside this query's dependency frame, so
        # nested sub-query spans stack under it in the trace; the miss
        # path always times itself (the slow-query log works with
        # tracing off), but key description is skipped unless someone
        # will read it.
        eval_span = (
            obs_trace.span(
                "query.eval", cat="query",
                query=name, key=describe_key(key),
            )
            if obs_trace.enabled()
            else obs_trace.NOOP_SPAN
        )
        started = time.perf_counter()
        try:
            with eval_span:
                value, restored = self._evaluate(spec, key)
        finally:
            _, deps = frames.pop()
        elapsed = time.perf_counter() - started
        threshold = obs_trace.SLOW_QUERIES.threshold
        if threshold is not None and elapsed >= threshold:
            fingerprint = None
            if spec.input_of is not None:
                with contextlib.suppress(Exception):
                    fingerprint = self._fingerprints.get(spec.input_of(key))
            obs_trace.SLOW_QUERIES.note(
                query=name, key=describe_key(key),
                fingerprint=fingerprint, seconds=elapsed,
            )
        self._values[node] = value
        self._deps[node] = frozenset(deps)
        for dep in deps:
            self._rdeps.setdefault(dep, set()).add(node)
        if restored:
            self.stats.restored += 1
        else:
            self.stats.record_compute(name)
            self._persist(spec, key, value)
        return value, False

    def _evaluate(self, spec: QuerySpec, key: Hashable) -> tuple[Any, bool]:
        if self.persistent is not None and spec.persistable:
            fingerprint = self._persist_fingerprint(spec, key)
            payload = self.persistent.load(spec.name, fingerprint)
            if payload is not None:
                try:
                    return spec.decode(self, key, payload), True
                except (ValueError, KeyError, TypeError, IndexError):
                    pass  # corrupt/stale entry: fall through to compute
        return spec.compute(self, key), False

    def _persist_fingerprint(self, spec: QuerySpec, key: Hashable) -> str:
        func = spec.input_of(key)
        self.touch_input(func)
        suffix = spec.suffix(key) if spec.suffix is not None else ""
        raw = f"{QUERY_SCHEMA_VERSION}:{self._fingerprints[func]}:{suffix}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()

    def _persist(self, spec: QuerySpec, key: Hashable, value: Any) -> None:
        if self.persistent is None or not spec.persistable:
            return
        self.persistent.store(
            spec.name,
            self._persist_fingerprint(spec, key),
            spec.encode(key, value),
        )

    # --- introspection ----------------------------------------------------
    def cached(self, name: str, key: Hashable) -> bool:
        return (name, key) in self._values

    def deps_of(self, name: str, key: Hashable) -> frozenset:
        return self._deps.get((name, key), frozenset())

    def known_functions(self) -> tuple[Function, ...]:
        return tuple(self._fingerprints)

    def fingerprint_of(self, func: Function) -> str | None:
        """The stored input fingerprint, if ``func`` has been queried."""
        return self._fingerprints.get(func)

    def __len__(self) -> int:
        return len(self._values)

    # --- invalidation -----------------------------------------------------
    def refresh(self) -> tuple[str, ...]:
        """Re-fingerprint every known input; evict the query subgraph
        of each changed one. Returns the changed functions' names
        (``"<program>"`` for a structure change)."""
        dirty: list[Node] = []
        changed: list[str] = []
        for func, old in list(self._fingerprints.items()):
            new = fingerprint_function(func)
            if new != old:
                self._fingerprints[func] = new
                dirty.append(("fn", func))
                changed.append(func.name)
        if self._shape is not None and self.program is not None:
            new = fingerprint_program_shape(self.program)
            if new != self._shape:
                self._shape = new
                dirty.append(("shape",))
                changed.append("<program>")
        self._evict_from(dirty)
        return tuple(changed)

    def invalidate_function(self, func: Function) -> None:
        """Force-evict everything derived from ``func`` (and refresh
        its stored fingerprint)."""
        if func in self._fingerprints:
            self._fingerprints[func] = fingerprint_function(func)
        self._evict_from([("fn", func)])

    def discard_input(self, func: Function) -> None:
        """Drop ``func`` as an input entirely: evict its subgraph and
        forget its fingerprint (the function left the program)."""
        self._fingerprints.pop(func, None)
        self._evict_from([("fn", func)])
        self._rdeps.pop(("fn", func), None)

    def clear(self) -> None:
        for node in self._values:
            self.stats.record_eviction(node[0])
        self._values.clear()
        self._deps.clear()
        self._rdeps.clear()
        self._fingerprints.clear()
        self._shape = None

    def _evict_from(self, dirty: list[Node]) -> None:
        doomed: set[tuple] = set()
        stack = list(dirty)
        while stack:
            node = stack.pop()
            for dependent in self._rdeps.get(node, ()):
                if dependent not in doomed:
                    doomed.add(dependent)
                    stack.append(dependent)
        for node in doomed:
            self._values.pop(node, None)
            for dep in self._deps.pop(node, ()):
                dependents = self._rdeps.get(dep)
                if dependents is not None:
                    dependents.discard(node)
            self._rdeps.pop(node, None)
            # Doomed nodes are always derived (query name, key) pairs:
            # the dirty inputs themselves are roots, never dependents.
            self.stats.record_eviction(node[0])
