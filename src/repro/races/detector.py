"""The static data-race detector, refined by detected sync reads.

Pipeline (paper framing: the fence placer's soundness needs the input
to be legacy-DRF, so this is the static gate for that precondition):

1. **May-happen-in-parallel** — access pairs must come from functions
   two distinct thread spawns can execute (:mod:`repro.races.mhp`).
2. **Conflict** — both escaping accesses, overlapping abstract
   locations (named globals from the points-to sets; a conservative
   ``unknown`` pointee conflicts with anything escaping), at least one
   write.
3. **Sync classification** — the detector reuses the pipeline's
   synchronization-read detection: locations read by detected acquires
   (plus every RMW-addressed location) are *synchronization
   locations*; accesses touching them are synchronization accesses,
   whose races are synchronization races, permitted under legacy DRF.
4. **Lockset** (Eraser) — pairs whose locksets intersect are
   consistently protected (:mod:`repro.races.locksets`).
5. **Sync-read/publish edge** — a pair ``(a, b)`` is ordered when some
   sync location ``s`` has a release write po-after ``a`` and a
   detected sync read po-before ``b`` (or symmetrically): the paper's
   release/acquire chain ``a po w(s) con r(s) po b``. This is the
   static approximation of happens-before; it is deliberately
   optimistic (the acquire might read another write), which is exactly
   what the explorer backstop below exists to catch.

Every surviving pair is a *candidate*, not a verdict. For programs
small enough to model-check, :func:`confirm_candidates` searches the
bounded SC trace set for a witness interleaving in which the pair
races under the detector's own marking — candidates are then
``confirmed`` (witness attached) or ``refuted`` (exhaustively, when
enumeration completed). Dynamic races the static gate *missed* are
reported too: they are detector gaps, and callers feed them back as
fuzz seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.aliasing import GlobalObj, PointsTo
from repro.ir.function import Function, Program
from repro.ir.instructions import Gep, Instruction
from repro.ir.values import Constant, Register
from repro.memmodel.hb import Race, find_races
from repro.memmodel.litmus import sync_marking_for_globals
from repro.memmodel.sc import Trace, TraceAction, enumerate_sc_traces
from repro.races.locksets import compute_locksets
from repro.races.mhp import ThreadStructure
from repro.util.orderedset import OrderedSet

if TYPE_CHECKING:  # runtime-lazy: repro.query imports this package
    from repro.memmodel.interpreter import GlobalLayout
    from repro.query.engine import QueryEngine


@dataclass(frozen=True)
class AccessSite:
    """One escaping memory access, with everything the pairing needs."""

    function: str
    uid: int
    is_write: bool
    is_rmw: bool
    #: Named globals the address may denote (field-insensitive).
    locations: frozenset[str]
    #: Address has a conservative unknown pointee.
    unknown: bool
    #: Eraser lockset held at the access.
    lockset: frozenset[str]
    #: Constant array element the address selects (``gep base, k``), or
    #: None for scalars and computed indices.
    index: int | None
    inst: Instruction = field(hash=False, compare=False)


@dataclass(frozen=True)
class AccessSummary:
    """Per-function race-relevant facts (one ``race_access_summary``
    query value; everything downstream derives from these)."""

    function: Function
    accesses: tuple[AccessSite, ...]


@dataclass(frozen=True)
class RaceCandidate:
    """A statically unordered conflicting access pair."""

    location: str
    first: AccessSite
    second: AccessSite

    @property
    def key(self) -> frozenset[tuple[str, int]]:
        return frozenset(
            {(self.first.function, self.first.uid),
             (self.second.function, self.second.uid)}
        )


@dataclass(frozen=True)
class StaticRaceReport:
    """The whole program's static verdict for one detection variant."""

    variant: str
    sync_locations: frozenset[str]
    candidates: tuple[RaceCandidate, ...]

    @property
    def gate_passes(self) -> bool:
        """Would the static DRF gate admit this program?"""
        return not self.candidates


def build_access_summary(
    func: Function, points_to: PointsTo
) -> AccessSummary:
    """Collect ``func``'s escaping accesses with pointees and locksets."""
    locksets = compute_locksets(func, points_to)
    sites = []
    for inst in func.instructions():
        if not inst.is_memory_access():
            continue
        addr = inst.address_operand()
        if addr is None or points_to.is_local_address(addr):
            continue
        pointees = points_to.pointees(addr)
        names = frozenset(
            o.name for o in pointees if isinstance(o, GlobalObj)
        )
        unknown = any(not isinstance(o, GlobalObj) for o in pointees)
        index = None
        if isinstance(addr, Register) and isinstance(addr.defining_inst, Gep):
            offset = addr.defining_inst.offset
            if isinstance(offset, Constant):
                index = offset.value
        sites.append(
            AccessSite(
                function=func.name,
                uid=inst.uid,
                is_write=inst.writes_memory(),
                is_rmw=inst.is_atomic_rmw(),
                locations=names,
                unknown=unknown or not pointees,
                lockset=locksets.get(inst.uid, frozenset()),
                index=index,
                inst=inst,
            )
        )
    return AccessSummary(function=func, accesses=tuple(sites))


def sync_reads_for(
    context: QueryEngine, func: Function, variant_key: str
) -> OrderedSet:
    """The detection variant's acquire set for ``func`` — the same
    marking the fence-placement pipeline would use."""
    from repro.core.pipeline import PipelineVariant
    from repro.core.signatures import Variant
    from repro.registry.variants import get_variant

    entry = get_variant(variant_key)
    if entry.null_detector:
        return OrderedSet()
    if entry.pipeline_variant is PipelineVariant.PENSIEVE:
        return context.get("escape_info", func).escaping_reads
    detector = (
        Variant.CONTROL
        if entry.pipeline_variant is PipelineVariant.CONTROL
        else Variant.ADDRESS_CONTROL
    )
    return context.get("acquires", (func, detector)).sync_reads


def _sync_locations(
    context: QueryEngine,
    summaries: dict[str, AccessSummary],
    variant_key: str,
) -> tuple[frozenset[str], set[tuple[str, int]]]:
    """(sync location names, uids of detected sync reads)."""
    locations: set[str] = set()
    sync_read_ids: set[tuple[str, int]] = set()
    for name, summary in summaries.items():
        points_to = context.get("points_to", summary.function)
        for read in sync_reads_for(context, summary.function, variant_key):
            sync_read_ids.add((name, read.uid))
            addr = read.address_operand()
            if addr is not None:
                for obj in points_to.pointees(addr):
                    if isinstance(obj, GlobalObj):
                        locations.add(obj.name)
        for site in summary.accesses:
            if site.is_rmw:
                locations.update(site.locations)
    return frozenset(locations), sync_read_ids


#: Functions whose *name* marks them as the synchronization runtime —
#: the same API-level interception the lockset analysis applies to
#: call sites. Every access inside their bodies implements
#: synchronization (``lock_release``'s ``*l = 0``, the barrier's
#: sense flip) and is never a data-race candidate.
_SYNC_RUNTIME_HINTS = ("acquire", "release", "barrier")


def _in_sync_runtime(func_name: str) -> bool:
    return any(hint in func_name for hint in _SYNC_RUNTIME_HINTS)


def _is_sync_access(
    site: AccessSite,
    sync_locations: frozenset[str],
    sync_read_ids: set[tuple[str, int]],
) -> bool:
    if site.is_rmw:
        return True
    if _in_sync_runtime(site.function):
        return True
    if (site.function, site.uid) in sync_read_ids:
        return True
    return bool(site.locations & sync_locations)


def _conflict_location(a: AccessSite, b: AccessSite) -> str | None:
    """The named location a conflicting pair collides on, or ``None``
    when they cannot conflict. A conservative unknown pointee overlaps
    any *named* escaping location; two purely-unknown addresses are
    assumed disjoint (optimistic, like the sync-edge filter — the
    explorer backstop reports wrong guesses as missed races)."""
    shared = a.locations & b.locations
    if shared:
        return sorted(shared)[0]
    if a.unknown and b.locations:
        return sorted(b.locations)[0]
    if b.unknown and a.locations:
        return sorted(a.locations)[0]
    return None


def _array_elements_disjoint(
    program: Program, location: str, a: AccessSite, b: AccessSite
) -> bool:
    """Element sensitivity for array globals: two constant-indexed
    accesses conflict only on the same element (exact), and a pair with
    a *computed* index is assumed disjoint — the corpus's
    owner-computes discipline (``arr[f(tid)]`` partitions by thread).
    The assumption is deliberately optimistic, like the sync-edge
    filter: on explorer-checkable programs a wrong guess surfaces as a
    missed dynamic race (RACE002) and becomes a fuzz seed. Scalars are
    untouched."""
    if location not in program.globals:
        return False
    if program.globals[location].size <= 1:
        return False
    return a.index is None or b.index is None or a.index != b.index


def _ordered_by_sync_edge(
    context: QueryEngine,
    a: AccessSite,
    b: AccessSite,
    summaries: dict[str, AccessSummary],
    sync_locations: frozenset[str],
    sync_read_ids: set[tuple[str, int]],
) -> bool:
    """Static release/acquire chain ``a po w(s) con r(s) po b``:
    a release write to a sync location po-after ``a`` in its function,
    and a detected sync read of it po-before ``b`` in the other."""
    if not sync_locations:
        return False
    reach_a = context.get("reachability", summaries[a.function].function)
    reach_b = context.get("reachability", summaries[b.function].function)
    released: set[str] = set()
    for site in summaries[a.function].accesses:
        if not site.is_write:
            continue
        touched = site.locations & sync_locations
        if touched and reach_a.exists_path(a.inst, site.inst):
            released.update(touched)
    if not released:
        return False
    for site in summaries[b.function].accesses:
        if (site.function, site.uid) not in sync_read_ids:
            continue
        if (
            site.locations & released
            and reach_b.exists_path(site.inst, b.inst)
        ):
            return True
    return False


def detect_races(
    program: Program,
    context: QueryEngine,
    variant: str = "address+control",
) -> StaticRaceReport:
    """Run the full static pipeline; returns every candidate pair.

    ``variant`` names a detection variant from the registry: it decides
    which reads count as acquires, exactly as it would for fence
    placement. Prefer asking through the query engine
    (``context.get("race_candidates", variant)``) so warm
    re-lints reuse unchanged functions' work.
    """
    structure = ThreadStructure(program)
    summaries: dict[str, AccessSummary] = {}
    for name in structure.executed_functions():
        func = program.functions[name]
        summaries[name] = context.get("race_access_summary", func)

    sync_locations, sync_read_ids = _sync_locations(
        context, summaries, variant
    )

    # Every filter below is a pure conjunct, so rejecting sync accesses
    # once per site and running the costly MHP overlap test last keeps
    # the candidates and their order.
    data_sites = {
        name: [
            site
            for site in summary.accesses
            if not _is_sync_access(site, sync_locations, sync_read_ids)
        ]
        for name, summary in summaries.items()
    }
    candidates: list[RaceCandidate] = []
    seen: set[frozenset[tuple[str, int]]] = set()
    names = list(summaries)
    for i, f in enumerate(names):
        for g in names[i:]:
            if not structure.may_happen_in_parallel(f, g):
                continue
            for a in data_sites[f]:
                for b in data_sites[g]:
                    if f == g and b.uid < a.uid:
                        continue  # unordered pair: visit once
                    if not (a.is_write or b.is_write):
                        continue
                    location = _conflict_location(a, b)
                    if location is None:
                        continue
                    if not structure.may_overlap(f, a.uid, g, b.uid):
                        continue  # tid guards / barrier phases separate them
                    if _array_elements_disjoint(program, location, a, b):
                        continue
                    if a.lockset & b.lockset:
                        continue
                    if _ordered_by_sync_edge(
                        context, a, b, summaries, sync_locations, sync_read_ids
                    ) or _ordered_by_sync_edge(
                        context, b, a, summaries, sync_locations, sync_read_ids
                    ):
                        continue
                    candidate = RaceCandidate(
                        location=location, first=a, second=b
                    )
                    if candidate.key not in seen:
                        seen.add(candidate.key)
                        candidates.append(candidate)
    return StaticRaceReport(
        variant=variant,
        sync_locations=sync_locations,
        candidates=tuple(candidates),
    )


# =========================================================================
# explorer-backed verdicts
# =========================================================================


@dataclass(frozen=True)
class Witness:
    """A concrete interleaving exhibiting one race."""

    pair: frozenset[tuple[str, int]]
    location: str
    rendering: str


@dataclass(frozen=True)
class VerdictReport:
    """What the bounded SC exploration said about the candidates."""

    complete: bool
    traces_checked: int
    #: candidate key -> witness (confirmed candidates only).
    witnesses: dict[frozenset[tuple[str, int]], Witness]
    #: Dynamic races no static candidate covered: detector gaps.
    missed: tuple[Witness, ...]

    def verdict_of(self, candidate: RaceCandidate) -> str:
        if candidate.key in self.witnesses:
            return "confirmed"
        return "refuted" if self.complete else "unknown"


def _action_label(
    program: Program, layout: GlobalLayout, action: TraceAction
) -> str:
    name, offset = "?", action.addr
    for gname, base in layout.base.items():
        size = program.globals[gname].size
        if base <= action.addr < base + size:
            name, offset = gname, action.addr - base
            break
    slot = name if (name != "?" and program.globals[name].size == 1) else (
        f"{name}[{offset}]"
    )
    op = "store" if action.is_write else "load"
    return f"T{action.tid} {op} {slot} = {action.value}"


def _render_witness(
    program: Program, layout: GlobalLayout, trace: Trace, race: Race
) -> str:
    """The interleaving up to the racing pair, racing actions marked."""
    limit = race.second.index
    racing = {race.first.index, race.second.index}
    lines = []
    shown = [a for a in trace.actions if a.index <= limit]
    elided = 0
    if len(shown) > 24:
        elided = len(shown) - 24
        shown = shown[:12] + shown[-12:]
    for i, action in enumerate(shown):
        if elided and i == 12:
            lines.append(f"      ... {elided} actions elided ...")
        marker = "  * " if action.index in racing else "    "
        lines.append(marker + _action_label(program, layout, action))
    return "\n".join(lines)


def confirm_candidates(
    program: Program,
    report: StaticRaceReport,
    max_traces: int = 400,
    max_actions: int = 400,
) -> VerdictReport:
    """Search bounded SC traces for witnesses to the candidates.

    The marking is the detector's own: accesses to its sync locations
    synchronize, everything else is data. A candidate whose pair races
    in some trace is confirmed with that interleaving; with *complete*
    enumeration, never-racing candidates are exhaustively refuted.
    Dynamic races matching no candidate are returned as ``missed`` —
    the static gate would have passed them, so they are detector gaps
    (and fuzz-seed material for the validation harness).
    """
    from repro.memmodel.interpreter import GlobalLayout

    traces = enumerate_sc_traces(
        program, max_traces=max_traces, max_actions=max_actions
    )
    complete = len(traces) < max_traces and all(t.complete for t in traces)
    by_location = sync_marking_for_globals(
        program, report.sync_locations & set(program.globals)
    )
    # Instruction-level sync the location marking cannot see: RMWs and
    # the lock/barrier runtime reach their cells through pointers, so
    # the cell has no stable global name — but their accesses are the
    # synchronization itself (the CAS acquire reading the ``*l = 0``
    # release is the lock's hb edge), exactly as the static gate
    # classifies them in _is_sync_access.
    sync_inst_ids = {
        id(inst)
        for name, func in program.functions.items()
        for inst in func.instructions()
        if inst.is_atomic_rmw() or _in_sync_runtime(name)
    }

    def marking(action: TraceAction) -> bool:
        return id(action.inst) in sync_inst_ids or by_location(action)

    layout = GlobalLayout(program)
    site_of = {
        id(inst): (name, inst.uid)
        for name, func in program.functions.items()
        for inst in func.instructions()
    }
    candidate_keys = {c.key for c in report.candidates}
    witnesses: dict[frozenset[tuple[str, int]], Witness] = {}
    missed: dict[frozenset[tuple[str, int]], Witness] = {}
    for trace in traces:
        for race in find_races(trace, marking):
            first = site_of.get(id(race.first.inst))
            second = site_of.get(id(race.second.inst))
            if first is None or second is None:
                continue
            key = frozenset({first, second})
            target = witnesses if key in candidate_keys else missed
            if key in target:
                continue
            target[key] = Witness(
                pair=key,
                location=_action_label(program, layout, race.first).split()[2],
                rendering=_render_witness(program, layout, trace, race),
            )
    return VerdictReport(
        complete=complete,
        traces_checked=len(traces),
        witnesses=witnesses,
        missed=tuple(missed.values()),
    )
