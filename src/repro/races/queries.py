"""Race-detection facts as registered incremental queries.

Two query kinds join the catalog next to the analysis facts:

* ``race_access_summary`` — keyed by :class:`~repro.ir.function
  .Function`: the function's escaping accesses with their may-point-to
  locations and Eraser locksets. Depends only on that function's
  content (plus its ``points_to``), so sibling edits leave it cached.
* ``race_candidates`` — keyed by the detection-variant key string: the
  whole-program :class:`~repro.races.detector.StaticRaceReport`. Its
  recorded dependency edges reach the program shape, every executed
  function's summary, and the variant's acquire sets — a
  single-function edit evicts this one program-level value and the
  edited function's subgraph, nothing belonging to other functions.

Explorer confirmation deliberately stays *outside* the engine: witness
search is bounded dynamic work whose budget is per-request, not a pure
function of the IR.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.ir.function import Function
from repro.query.engine import QueryEngine, query

if TYPE_CHECKING:  # runtime-lazy, like the imports in the computes below
    from repro.races.detector import AccessSummary, StaticRaceReport

#: Query kinds the lint pipeline adds on top of the analysis facts.
RACE_QUERIES = ("race_access_summary", "race_candidates")


@query("race_access_summary")
def _race_access_summary(engine: QueryEngine, func: Function) -> AccessSummary:
    from repro.races.detector import build_access_summary

    engine.touch_input(func)
    return build_access_summary(func, engine.get("points_to", func))


@query("race_candidates")
def _race_candidates(
    engine: QueryEngine, variant: Hashable
) -> StaticRaceReport:
    from repro.races.detector import detect_races

    if engine.program is None:
        raise ValueError("race_candidates needs a whole program")
    engine.touch_shape()
    return detect_races(engine.program, engine, str(variant))
