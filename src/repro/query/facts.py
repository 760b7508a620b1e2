"""The registered analysis-fact queries.

These are the six fact kinds the pipeline stages once memoized by
hand, as :data:`~repro.query.engine.QUERIES` entries; every consumer
asks the engine for them directly (``engine.get("points_to", func)``,
``engine.get("acquires", (func, variant))``). Per-function queries are
keyed by the :class:`~repro.ir.function.Function` object (content
fingerprints, not identity, decide validity across
:meth:`~repro.query.engine.QueryEngine.refresh`); ``acquires`` is
keyed by ``(function, variant)`` and ``interprocedural`` by the
variant alone, with its dependency edges reaching every function's
facts — so a single-function edit invalidates the whole-program
fixpoint but nothing belonging to sibling functions.

``acquires`` additionally declares a persistence codec: an
:class:`~repro.core.signatures.AcquireResult` round-trips through
instruction uids, which are stable for a fingerprint-identical
function, letting a cold engine skip the slicing work entirely.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.analysis.aliasing import PointsTo
from repro.analysis.escape import EscapeInfo
from repro.analysis.reachability import ReachabilityTable
from repro.ir.function import Function
from repro.query.engine import QueryEngine, query

#: The analysis fact kinds (the race queries add two more).
FACT_QUERIES = (
    "points_to",
    "escape_info",
    "reachability",
    "writers_cache",
    "acquires",
    "interprocedural",
)


@query("points_to")
def _points_to(engine: QueryEngine, func: Function) -> PointsTo:
    engine.touch_input(func)
    return PointsTo(func)


@query("escape_info")
def _escape_info(engine: QueryEngine, func: Function) -> EscapeInfo:
    engine.touch_input(func)
    return EscapeInfo(func, engine.get("points_to", func))


@query("reachability")
def _reachability(engine: QueryEngine, func: Function) -> ReachabilityTable:
    engine.touch_input(func)
    return ReachabilityTable(func)


@query("writers_cache")
def _writers_cache(engine: QueryEngine, func: Function) -> dict:
    # The shared potential-writers memo for every slicer over ``func``.
    # The query's value is the (lazily filled) container itself.
    engine.touch_input(func)
    return {}


def _acquires_encode(key: Hashable, value: Any) -> dict:
    return {
        "sync_reads": [inst.uid for inst in value.sync_reads],
        "seen": sorted(inst.uid for inst in value.seen),
    }


def _acquires_decode(engine: QueryEngine, key: Hashable, payload: Any) -> Any:
    from repro.core.signatures import AcquireResult
    from repro.util.orderedset import OrderedSet

    func, variant = key
    by_uid = {inst.uid: inst for inst in func.instructions()}
    return AcquireResult(
        function=func,
        variant=variant,
        sync_reads=OrderedSet(by_uid[uid] for uid in payload["sync_reads"]),
        seen={by_uid[uid] for uid in payload["seen"]},
    )


@query(
    "acquires",
    input_of=lambda key: key[0],
    suffix=lambda key: key[1].value,
    encode=_acquires_encode,
    decode=_acquires_decode,
)
def _acquires(engine: QueryEngine, key: Hashable) -> Any:
    from repro.core.signatures import detect_acquires

    func, variant = key
    engine.touch_input(func)
    return detect_acquires(func, variant, context=engine)


@query("interprocedural")
def _interprocedural(engine: QueryEngine, variant: Hashable) -> Any:
    from repro.core.interprocedural import detect_acquires_interprocedural

    if engine.program is None:
        raise ValueError(
            "interprocedural acquire detection needs a whole program; "
            "construct the engine with QueryEngine(program)"
        )
    engine.touch_shape()
    return detect_acquires_interprocedural(
        engine.program, variant, context=engine
    )
