"""Reference splice: how a session adopted an edited wire source before
splices became incremental.

The whole new source is compiled; a cached function whose printed IR
equals the fresh one's keeps its object (an in-place edit finalized
since the engine printed the function is printed afresh, refreshed or
not), every other one is replaced,
and the facts of replaced and removed functions are discarded.
``OracleSession`` is a :class:`~repro.api.session.Session` that splices
this way, so a test can drive the same requests through both and
compare programs, engines and reports.
"""

from __future__ import annotations

from repro.api.session import Session
from repro.frontend import compile_source
from repro.ir.function import Program
from repro.query.engine import QueryEngine, fingerprint_function


def adopt_source(engine: QueryEngine, cached: Program, fresh: Program) -> Program:
    """Splice the recompiled ``fresh`` into ``cached``, in place."""
    merged = {}
    for name, func in fresh.functions.items():
        old = cached.functions.get(name)
        if old is not None:
            if fingerprint_function(old) == fingerprint_function(func):
                merged[name] = old
                continue
            engine.discard_input(old)
        merged[name] = func
    for name, old in cached.functions.items():
        if name not in merged:
            engine.discard_input(old)
    cached.functions = merged
    cached.globals = fresh.globals
    cached.threads = list(fresh.threads)
    engine.refresh()
    return cached


class OracleSession(Session):
    """A session whose wire edits compile the whole source."""

    def _adopt_source(self, entry, cached, source, manual_fences):
        fresh = compile_source(source, cached.name, include_manual_fences=manual_fences)
        adopt_source(entry.engine, cached, fresh)
        return entry._replace(source=source)
