"""`repro.query` — the demand-driven incremental query engine.

Analysis facts (points-to, escape, reachability, acquire detection,
the interprocedural fixpoint) are *queries*: named computations over
fingerprinted inputs, registered in a string-keyed catalog and
evaluated on demand by a :class:`QueryEngine`. The engine records the
dependency edges each evaluation actually followed, so editing one
function invalidates exactly the query subgraph that read it — warm
re-analysis of an edited program recomputes the changed function's
facts and everything downstream, nothing else.

Consumers ask the program's :class:`QueryEngine` for facts directly —
``engine.get("points_to", func)``, ``engine.get("acquires", (func,
variant))`` — and its :class:`QueryStats` is the one cache meter
behind every ``cache_stats`` report. New fact kinds plug in by
registering a :class:`QuerySpec` (optionally with an encode/decode
pair, which makes the query persistable in a
:class:`~repro.util.store.BlobStore` keyed by input fingerprint).
"""

from repro.query.engine import (
    QUERIES,
    QueryEngine,
    QuerySpec,
    QueryStats,
    fingerprint_function,
    fingerprint_program_shape,
    query,
)

# Importing the fact definitions registers them in QUERIES. The race
# queries live with their package but join the same catalog.
import repro.query.facts  # noqa: E402,F401  (registration side effect)
import repro.races.queries  # noqa: E402,F401  (registration side effect)

__all__ = [
    "QUERIES",
    "QueryEngine",
    "QuerySpec",
    "QueryStats",
    "fingerprint_function",
    "fingerprint_program_shape",
    "query",
]
