"""The built-in lint passes, registered in a pluggable catalog.

A :class:`LintPass` is a pure function from a :class:`LintContext` to
findings, registered in :data:`LINT_PASSES` (a
:class:`~repro.registry.core.Registry`, like detectors/models/arches).
``repro lint`` runs every registered pass by default; request a subset
with ``--passes``.

The shipped passes:

* ``racy-access-pair`` — the static DRF gate itself (RACE001), with
  explorer-backed verdicts and missed-race findings (RACE002);
* ``redundant-fence`` — a fence with no memory access between it and
  the previous barrier orders nothing (FENCE101);
* ``weak-flavor-insufficient`` — a flavored fence whose kill set does
  not cover the ordering kinds crossing its cut (FENCE102; needs an
  arch backend to resolve the flavor);
* ``unfenced-publish`` — a pointer published without a barrier after
  the pointee's initialization, on a model that reorders ``w->w``
  (FENCE103);
* ``suboptimal-fence-cost`` — the greedy count-minimizing plan is
  strictly costlier than the min-cost synthesis of :mod:`repro.synth`
  on the requested arch (FENCE104; names the fences where the two
  plans differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.analysis.aliasing import GlobalObj
from repro.core.machine_models import MemoryModel, OrderKind
from repro.diagnostics.findings import Finding, SourceSpan, span_of
from repro.ir.function import BasicBlock, Function, Program
from repro.ir.instructions import Fence, FenceKind, Store
from repro.query.engine import QueryEngine
from repro.races.detector import StaticRaceReport, confirm_candidates
from repro.races.mhp import ThreadStructure
from repro.registry.core import Registry

if TYPE_CHECKING:  # runtime-lazy: repro.arch itself imports repro.core
    from repro.arch.backend import ArchBackend
    from repro.arch.lowering import LoweredPlan


@dataclass
class LintContext:
    """Everything a pass may consult, plus a scratch area for
    cross-pass facts the report surfaces (explorer verdict summary,
    fuzz-seed material)."""

    program: Program
    #: The program's query engine: every pass asks it for facts.
    context: QueryEngine
    variant: str = "address+control"
    model: MemoryModel | None = None
    arch: ArchBackend | None = None
    confirm: bool = True
    max_traces: int = 400
    max_actions: int = 400
    extras: dict = field(default_factory=dict)

    def executed_functions(self) -> tuple[Function, ...]:
        structure = ThreadStructure(self.program)
        return tuple(
            self.program.functions[name]
            for name in structure.executed_functions()
        )


@dataclass(frozen=True)
class LintPass:
    """One registered pass: key, primary code, and the runner."""

    key: str
    codes: tuple[str, ...]
    description: str
    run: Callable[[LintContext], Iterable[Finding]]


LINT_PASSES: Registry[LintPass] = Registry("lint pass")


_PassRunner = Callable[[LintContext], Iterable[Finding]]


def lint_pass(
    key: str, codes: tuple[str, ...], description: str
) -> Callable[[_PassRunner], _PassRunner]:
    """Decorator registering a pass runner under ``key``."""

    def decorator(fn: _PassRunner) -> _PassRunner:
        LINT_PASSES.register(
            key, LintPass(key=key, codes=codes, description=description, run=fn)
        )
        return fn

    return decorator


# --- RACE001 / RACE002: the DRF gate ------------------------------------


def _race_severity(verdict: str) -> str:
    if verdict == "confirmed":
        return "error"
    if verdict == "refuted":
        return "note"
    return "warning"


def _pair_spans(
    ctx: LintContext, candidate_or_pair: Iterable[tuple[str, int]]
) -> tuple[SourceSpan, ...]:
    spans = []
    for func_name, uid in sorted(candidate_or_pair):
        func = ctx.program.functions[func_name]
        for inst in func.instructions():
            if inst.uid == uid:
                spans.append(span_of(func, inst))
                break
    return tuple(spans)


@lint_pass(
    "racy-access-pair",
    ("RACE001", "RACE002"),
    "statically unordered conflicting access pairs, explorer-audited",
)
def _racy_access_pair(ctx: LintContext) -> Iterable[Finding]:
    report: StaticRaceReport = ctx.context.get("race_candidates", ctx.variant)
    verdicts = None
    if ctx.confirm:
        verdicts = confirm_candidates(
            ctx.program,
            report,
            max_traces=ctx.max_traces,
            max_actions=ctx.max_actions,
        )
        ctx.extras["explorer_complete"] = verdicts.complete
        ctx.extras["traces_checked"] = verdicts.traces_checked

    confirmed = refuted = unknown = 0
    findings = []
    for candidate in report.candidates:
        verdict = verdicts.verdict_of(candidate) if verdicts else ""
        witness = ""
        if verdict == "confirmed":
            confirmed += 1
            witness = verdicts.witnesses[candidate.key].rendering
        elif verdict == "refuted":
            refuted += 1
        elif verdict == "unknown":
            unknown += 1
        severity = _race_severity(verdict) if verdict else "warning"
        findings.append(
            Finding(
                code="RACE001",
                severity=severity,
                message=(
                    f"conflicting unsynchronized accesses to "
                    f"'{candidate.location}' may race "
                    f"({candidate.first.function} vs "
                    f"{candidate.second.function})"
                ),
                spans=_pair_spans(ctx, candidate.key),
                pass_id="racy-access-pair",
                verdict=verdict,
                witness=witness,
            )
        )

    if verdicts is not None:
        for miss in verdicts.missed:
            confirmed += 1
            findings.append(
                Finding(
                    code="RACE002",
                    severity="error",
                    message=(
                        f"dynamic race on '{miss.location}' that the "
                        f"static DRF gate missed — detector gap; "
                        f"program recorded as a fuzz seed"
                    ),
                    spans=_pair_spans(ctx, miss.pair),
                    pass_id="racy-access-pair",
                    verdict="confirmed",
                    witness=miss.rendering,
                )
            )
        if verdicts.missed:
            ctx.extras["fuzz_seed"] = True
    ctx.extras["confirmed_races"] = confirmed
    ctx.extras["refuted_candidates"] = refuted
    ctx.extras["unknown_candidates"] = unknown
    return findings


# --- FENCE101: redundant fence ------------------------------------------


@lint_pass(
    "redundant-fence",
    ("FENCE101",),
    "fences with no memory access since the previous barrier",
)
def _redundant_fence(ctx: LintContext) -> Iterable[Finding]:
    findings = []
    for func in ctx.executed_functions():
        for block in func.blocks:
            barrier_fresh = False  # a barrier with nothing to order yet
            for inst in block.instructions:
                if (isinstance(inst, Fence) and inst.kind is FenceKind.FULL) or (
                    inst.is_atomic_rmw()
                    and ctx.model is not None
                    and ctx.model.rmw_is_full_fence
                ):
                    if barrier_fresh and isinstance(inst, Fence):
                        findings.append(
                            Finding(
                                code="FENCE101",
                                severity="note",
                                message=(
                                    "redundant fence: no memory access "
                                    "since the previous barrier"
                                ),
                                spans=(span_of(func, inst),),
                                pass_id="redundant-fence",
                            )
                        )
                    barrier_fresh = True
                elif inst.is_memory_access():
                    barrier_fresh = False
    return findings


# --- FENCE102: flavored fence too weak for its cut ----------------------


def _cut_kinds(block: BasicBlock, fence_index: int) -> frozenset[OrderKind]:
    """Ordering kinds crossing the fence's cut: every (access before,
    access after) pair inside the block, bounded by adjacent fences."""
    before = []
    for inst in reversed(block.instructions[:fence_index]):
        if inst.is_fence():
            break
        if inst.is_memory_access():
            before.append(inst)
    after = []
    for inst in block.instructions[fence_index + 1 :]:
        if inst.is_fence():
            break
        if inst.is_memory_access():
            after.append(inst)
    return frozenset(
        OrderKind.of(src.writes_memory(), dst.writes_memory())
        for src in before
        for dst in after
    )


@lint_pass(
    "weak-flavor-insufficient",
    ("FENCE102",),
    "flavored fences whose kill set misses orderings crossing the cut",
)
def _weak_flavor(ctx: LintContext) -> Iterable[Finding]:
    if ctx.arch is None:
        return ()
    findings = []
    for func in ctx.executed_functions():
        for block in func.blocks:
            for i, inst in enumerate(block.instructions):
                if not (isinstance(inst, Fence) and inst.kind is FenceKind.FULL):
                    continue
                if inst.flavor is None or not ctx.arch.has_flavor(inst.flavor):
                    continue
                flavor = ctx.arch.flavor(inst.flavor)
                needed = _cut_kinds(block, i)
                if ctx.model is not None:
                    needed = frozenset(
                        k for k in needed if ctx.model.needs_full_fence(k)
                    )
                if needed and not flavor.sufficient_for(needed):
                    missing = needed - flavor.kills
                    findings.append(
                        Finding(
                            code="FENCE102",
                            severity="error",
                            message=(
                                f"fence flavor '{flavor.name}' kills "
                                f"{{{', '.join(sorted(k.value for k in flavor.kills))}}} "
                                f"but the cut needs "
                                f"{{{', '.join(sorted(k.value for k in missing))}}}"
                            ),
                            spans=(span_of(func, inst),),
                            pass_id="weak-flavor-insufficient",
                        )
                    )
    return findings


# --- FENCE103: unfenced publish of an escaping location -----------------


@lint_pass(
    "unfenced-publish",
    ("FENCE103",),
    "pointer publishes with no barrier after the pointee's init",
)
def _unfenced_publish(ctx: LintContext) -> Iterable[Finding]:
    if ctx.model is None or not ctx.model.needs_full_fence(OrderKind.WW):
        return ()  # the model keeps w->w in order; publish is safe
    findings = []
    for func in ctx.executed_functions():
        points_to = ctx.context.get("points_to", func)
        for block in func.blocks:
            for i, inst in enumerate(block.instructions):
                if not isinstance(inst, Store):
                    continue
                published = frozenset(
                    o.name
                    for o in points_to.pointees(inst.value)
                    if isinstance(o, GlobalObj)
                )
                if not published:
                    continue  # stores a plain value, not a pointer
                addr_names = frozenset(
                    o.name
                    for o in points_to.pointees(inst.addr)
                    if isinstance(o, GlobalObj)
                )
                if not addr_names or addr_names & published:
                    continue  # not publishing through a shared cell
                # Walk back: an init write to the pointee with no
                # barrier in between means the publish can overtake it.
                barrier = False
                for prev in reversed(block.instructions[:i]):
                    if (
                        prev.is_fence() and prev.kind is FenceKind.FULL
                    ) or (
                        prev.is_atomic_rmw() and ctx.model.rmw_is_full_fence
                    ):
                        barrier = True
                        continue
                    if not isinstance(prev, Store):
                        continue
                    init_names = frozenset(
                        o.name
                        for o in points_to.pointees(prev.addr)
                        if isinstance(o, GlobalObj)
                    )
                    if init_names & published and not barrier:
                        findings.append(
                            Finding(
                                code="FENCE103",
                                severity="warning",
                                message=(
                                    f"publish of "
                                    f"'{sorted(init_names & published)[0]}' "
                                    f"through "
                                    f"'{sorted(addr_names)[0]}' without a "
                                    f"fence after its initialization: "
                                    f"'{ctx.model.name}' reorders w->w"
                                ),
                                spans=(
                                    span_of(func, prev),
                                    span_of(func, inst),
                                ),
                                pass_id="unfenced-publish",
                            )
                        )
                        break
    return findings


# --- FENCE104: greedy plan strictly costlier than optimal ---------------


def _differing_fences(optimal: LoweredPlan, greedy: LoweredPlan) -> list[str]:
    """``label@gap flavor (greedy: flavor)`` for every gap whose
    flavored fences differ between the two lowered plans, in block and
    gap order; ``none`` stands for no fence, ``+`` joins fences stacked
    at one gap. The entry fence is priced alike on both sides and
    compiler directives cost nothing, so the greedy cost minus the
    right-hand flavors plus the left-hand ones is the optimal cost."""

    def flavors(plan: LoweredPlan) -> dict[tuple[str, int], str]:
        by_gap: dict[tuple[str, int], list[str]] = {}
        for fence in plan.fences:
            if fence.flavor is not None:
                by_gap.setdefault((fence.block_label, fence.gap), []).append(fence.flavor)
        return {key: "+".join(sorted(names)) for key, names in by_gap.items()}

    ours, theirs = flavors(optimal), flavors(greedy)
    order = {block.label: i for i, block in enumerate(optimal.function.blocks)}
    gaps = sorted(ours.keys() | theirs.keys(), key=lambda key: (order[key[0]], key[1]))
    return [
        f"{label}@{gap} {ours.get((label, gap), 'none')} "
        f"(greedy: {theirs.get((label, gap), 'none')})"
        for label, gap in gaps
        if ours.get((label, gap)) != theirs.get((label, gap))
    ]


@lint_pass(
    "suboptimal-fence-cost",
    ("FENCE104",),
    "greedy fence plans strictly costlier than the min-cost synthesis",
)
def _suboptimal_fence_cost(ctx: LintContext) -> Iterable[Finding]:
    if ctx.arch is None or ctx.model is None:
        return ()  # cost is only defined against a flavor catalog
    from repro.arch.lowering import lower_plan
    from repro.registry.variants import get_variant
    from repro.synth import synthesize_plan

    analysis = get_variant(ctx.variant).analyze(
        ctx.program, ctx.model, context=ctx.context
    )
    findings = []
    for name, fa in analysis.functions.items():
        plan = synthesize_plan(
            fa.function, fa.pruned, ctx.model, ctx.arch,
            entry_fence=fa.plan.entry_fence,
        )
        if plan.cost >= plan.greedy_cost:
            continue
        differing = _differing_fences(plan, lower_plan(fa.plan, ctx.arch))
        findings.append(
            Finding(
                code="FENCE104",
                severity="note",
                message=(
                    f"greedy fence plan for '{name}' costs "
                    f"{plan.greedy_cost} cycles on '{ctx.arch.key}'; "
                    f"min-cost synthesis achieves {plan.cost} "
                    f"({plan.savings} saved; differing fences: "
                    f"{', '.join(differing)})"
                ),
                pass_id="suboptimal-fence-cost",
            )
        )
    return findings
