"""The end-to-end fence-placement pipeline.

For every function: escape analysis -> acquire detection (per variant)
-> Pensieve ordering generation -> Table-I pruning -> locally-optimized
fence minimization -> (optionally) fence insertion.

Variants:

* ``PENSIEVE`` — the baseline the paper compares against: every
  escaping read is treated as a potential acquire, so nothing prunes;
  a function-entry fence goes into every function with escaping reads.
* ``CONTROL`` — acquires from the control signature only (Listing 1).
* ``ADDRESS_CONTROL`` — acquires from both signatures (Listing 3).

The detected-acquire variants place a function-entry fence only in
functions containing synchronizing reads (the paper's modification in
Section 4.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.analysis.aliasing import PointsTo
from repro.analysis.escape import EscapeInfo
from repro.analysis.reachability import ReachabilityTable
from repro.core.fence_min import FencePlan, apply_plan, plan_fences
from repro.core.machine_models import X86_TSO, MemoryModel, OrderKind
from repro.core.orderings import OrderingSet, generate_orderings
from repro.core.pruning import PruneStats, aggregate_surviving_fraction, prune_orderings
from repro.core.signatures import Variant
from repro.ir.function import Function, Program
from repro.ir.instructions import Instruction
from repro.obs import metrics as obs_metrics
from repro.query.engine import QueryEngine
from repro.util.orderedset import OrderedSet


class PipelineVariant(enum.Enum):
    """Which analysis drives pruning."""

    PENSIEVE = "pensieve"
    CONTROL = "control"
    ADDRESS_CONTROL = "address+control"


@dataclass
class FunctionAnalysis:
    """Everything the pipeline computed for one function."""

    function: Function
    points_to: PointsTo
    escape_info: EscapeInfo
    sync_reads: OrderedSet[Instruction]
    orderings: OrderingSet
    pruned: OrderingSet
    prune_stats: PruneStats
    plan: FencePlan


class _Derived(NamedTuple):
    """What :meth:`FencePlacer.analyze_function` derived for one
    function under ``model``, with the facts it was derived from. Kept
    on the function's ``EscapeInfo``; it holds no reference back to
    it."""

    model: MemoryModel
    points_to: PointsTo
    reach: ReachabilityTable
    sync_reads: OrderedSet[Instruction]
    orderings: OrderingSet
    pruned: OrderingSet
    prune_stats: PruneStats
    plan: FencePlan


@dataclass
class ProgramAnalysis:
    """Whole-program pipeline result plus aggregate statistics."""

    program: Program
    variant: PipelineVariant
    model: MemoryModel
    functions: dict[str, FunctionAnalysis] = field(default_factory=dict)
    #: Per-function :class:`~repro.arch.lowering.LoweredPlan`s, filled
    #: by :func:`insert_planned_fences` when an arch backend lowered
    #: this analysis's plans on insertion — lets reporting summarize
    #: the flavors actually inserted without lowering a second time.
    lowered_plans: "dict[str, object] | None" = None

    # --- aggregates used by the experiments -----------------------------
    @property
    def total_escaping_reads(self) -> int:
        return sum(len(fa.escape_info.escaping_reads) for fa in self.functions.values())

    @property
    def total_sync_reads(self) -> int:
        return sum(len(fa.sync_reads) for fa in self.functions.values())

    @property
    def acquire_fraction(self) -> float:
        """Fraction of escaping reads marked acquire (Fig. 7's metric)."""
        total = self.total_escaping_reads
        if total == 0:
            return 0.0
        return self.total_sync_reads / total

    def ordering_counts(self, pruned: bool = True) -> dict[OrderKind, int]:
        counts = {kind: 0 for kind in OrderKind}
        for fa in self.functions.values():
            source = fa.pruned if pruned else fa.orderings
            for kind, n in source.count_by_kind().items():
                counts[kind] += n
        return counts

    @property
    def total_orderings(self) -> int:
        return sum(len(fa.pruned) for fa in self.functions.values())

    @property
    def full_fence_count(self) -> int:
        """Static full fences, entry fences included (Fig. 9's metric)."""
        return sum(fa.plan.full_count for fa in self.functions.values())

    @property
    def compiler_fence_count(self) -> int:
        return sum(fa.plan.compiler_count for fa in self.functions.values())

    @property
    def surviving_fraction(self) -> float:
        """Ordering-count-weighted surviving fraction over the program.

        Weighting by each function's pre-prune ordering count (rather
        than averaging per-function fractions) keeps functions with
        zero orderings — whose per-function fraction is a vacuous
        1.0 — from inflating the aggregate.
        """
        return aggregate_surviving_fraction(
            fa.prune_stats for fa in self.functions.values()
        )


#: Fence-synthesis strategies: ``greedy`` is the paper's per-block
#: count-minimizing stabbing, ``optimal`` the min-cost synthesis of
#: :mod:`repro.synth` (flavored-cost objective, never costlier).
SYNTHESIS_MODES = ("greedy", "optimal")


def _check_synthesis(synthesis: str) -> str:
    if synthesis not in SYNTHESIS_MODES:
        raise ValueError(
            f"unknown synthesis {synthesis!r}; "
            f"known: {', '.join(SYNTHESIS_MODES)}"
        )
    return synthesis


def insert_planned_fences(
    result: ProgramAnalysis, backend=None, synthesis: str = "greedy"
) -> None:
    """Insert every function's planned fences into its IR.

    With an arch ``backend`` (:class:`~repro.arch.backend.ArchBackend`)
    each plan is lowered to the cheapest sufficient fence flavors
    first; otherwise generic full fences go in. Shared by
    :meth:`FencePlacer.place` and the null-detector path of
    :class:`repro.registry.variants.DetectionVariant`.

    ``synthesis="optimal"`` (requires a backend) replaces the greedy
    plans with :mod:`repro.synth`'s min-cost placements — the same
    delay intervals, re-stabbed and re-flavored for minimum cycle
    cost.
    """
    _check_synthesis(synthesis)
    if backend is not None:
        from repro.arch.lowering import apply_lowered_plan, lower_plan

        if synthesis == "optimal":
            from repro.synth import synthesize_analysis

            result.lowered_plans, _ = synthesize_analysis(result, backend)
        else:
            result.lowered_plans = {
                name: lower_plan(fa.plan, backend)
                for name, fa in result.functions.items()
            }
        for name, fa in result.functions.items():
            apply_lowered_plan(fa.function, result.lowered_plans[name])
    else:
        # Without a flavor catalog every full fence costs the same, and
        # the greedy count-minimal plan is already cost-minimal.
        for fa in result.functions.values():
            apply_plan(fa.function, fa.plan)


class FencePlacer:
    """Configurable pipeline runner.

    ``interprocedural=True`` swaps the per-function detectors for the
    whole-program summary analysis
    (:mod:`repro.core.interprocedural`), catching acquires whose read
    and consuming branch live in different functions — the paper's
    future-work soundness step.
    """

    def __init__(
        self,
        variant: PipelineVariant = PipelineVariant.CONTROL,
        model: MemoryModel = X86_TSO,
        interprocedural: bool = False,
        backend=None,
        synthesis: str = "greedy",
    ) -> None:
        self.variant = variant
        self.model = model
        self.interprocedural = interprocedural
        #: Optional :class:`~repro.arch.backend.ArchBackend`: when set,
        #: :meth:`place` lowers each plan to the cheapest sufficient
        #: fence flavors instead of inserting generic full fences.
        self.backend = backend
        #: Fence synthesis strategy (:data:`SYNTHESIS_MODES`); only
        #: ``optimal`` changes behavior, and only with a backend.
        self.synthesis = _check_synthesis(synthesis)

    def _detector_variant(self) -> Variant:
        return (
            Variant.CONTROL
            if self.variant is PipelineVariant.CONTROL
            else Variant.ADDRESS_CONTROL
        )

    # --- per-function ----------------------------------------------------
    def analyze_function(
        self,
        func: Function,
        sync_reads_override: OrderedSet[Instruction] | None = None,
        context: QueryEngine | None = None,
    ) -> FunctionAnalysis:
        """Analyze one function; facts come from the query engine
        ``context`` (a private one is created when none is supplied).

        The orderings, pruned set, prune statistics and plan are kept
        on the function's ``EscapeInfo``, one slot per function for the
        last variant and model it was analyzed under. They depend on
        nothing else, so a later call under the same model reuses them
        when the engine hands back the very same ``points_to``,
        ``escape_info``, ``reachability`` and sync-read objects; each
        variant's sync reads are an object of their own (PENSIEVE's are
        ``escape_info.escaping_reads``). The engine rebuilds those facts
        after an edit (``refresh``, ``invalidate_function``,
        ``discard_input``) or when the session drops the program, so a
        slot never outlives them. The four engine lookups happen
        either way. A ``sync_reads_override`` (the null detector, the
        interprocedural acquires) is never stored in the slot, so it
        leaves the variant's own result in place.
        """
        engine = context if context is not None else QueryEngine()
        points_to = engine.get("points_to", func)
        escape_info = engine.get("escape_info", func)
        reach = engine.get("reachability", func)

        if sync_reads_override is not None:
            sync_reads = sync_reads_override
        elif self.variant is PipelineVariant.PENSIEVE:
            # No acquire knowledge: every escaping read could be one.
            sync_reads = escape_info.escaping_reads
        else:
            sync_reads = engine.get(
                "acquires", (func, self._detector_variant())
            ).sync_reads

        derived = escape_info.pipeline_memo
        if (
            derived is not None
            and derived.model == self.model
            and derived.points_to is points_to
            and derived.reach is reach
            and derived.sync_reads is sync_reads
        ):
            obs_metrics.REGISTRY.inc("repro_pipeline_functions_reused_total")
        else:
            orderings = generate_orderings(func, escape_info, reach)
            pruned, stats = prune_orderings(orderings, sync_reads)
            # Entry fence: enforces interprocedural w->r orderings ending in
            # this function; pointless if the hardware orders w->r itself.
            entry_fence = bool(sync_reads) and self.model.needs_full_fence(OrderKind.WR)
            plan = plan_fences(func, pruned, self.model, entry_fence=entry_fence)
            derived = _Derived(
                self.model, points_to, reach, sync_reads, orderings, pruned, stats, plan
            )
            if sync_reads_override is None:
                escape_info.pipeline_memo = derived
            obs_metrics.REGISTRY.inc("repro_pipeline_functions_analyzed_total")
        return FunctionAnalysis(
            function=func,
            points_to=points_to,
            escape_info=escape_info,
            sync_reads=sync_reads,
            orderings=derived.orderings,
            pruned=derived.pruned,
            prune_stats=derived.prune_stats,
            plan=derived.plan,
        )

    # --- whole program ------------------------------------------------------
    def analyze(
        self, program: Program, context: QueryEngine | None = None
    ) -> ProgramAnalysis:
        """Run the pipeline; no IR mutation.

        A supplied ``context`` (the program's query engine) shares its
        memoized facts across pipeline variants and with other
        consumers (delay-set analysis, signature studies) of the same
        IR.
        """
        engine = context if context is not None else QueryEngine(program)
        if engine.program is None:
            engine.program = program
        elif engine.program is not program:
            # An engine is per-program: its function-keyed facts would
            # simply miss, but the interprocedural memo is keyed by
            # variant only and would hand back the *other* program's
            # acquire overrides.
            raise ValueError(
                "QueryEngine is bound to a different program "
                f"({engine.program.name!r}); create one per compiled program"
            )
        overrides: dict[str, OrderedSet[Instruction]] = {}
        if self.interprocedural and self.variant is not PipelineVariant.PENSIEVE:
            overrides = engine.get(
                "interprocedural", self._detector_variant()
            ).acquires
        result = ProgramAnalysis(program, self.variant, self.model)
        for name in program.functions:
            result.functions[name] = self.analyze_function(
                program.functions[name], overrides.get(name), context=engine
            )
        return result

    def place(
        self, program: Program, context: QueryEngine | None = None
    ) -> ProgramAnalysis:
        """Run the pipeline and insert the planned fences into ``program``.

        With an arch ``backend`` configured, plans are lowered to
        flavored fences (cheapest sufficient flavor per delay cut)
        before insertion; otherwise generic full fences go in, exactly
        as before. Insertion mutates the IR; a supplied ``context`` is
        refreshed afterwards, so the engine evicts exactly the fenced
        functions' fact subgraphs and stays safe to reuse (untouched
        functions remain cache hits).
        """
        result = self.analyze(program, context=context)
        insert_planned_fences(result, self.backend, synthesis=self.synthesis)
        if context is not None:
            context.refresh()
        return result


def analyze_program(
    program: Program,
    variant: PipelineVariant = PipelineVariant.CONTROL,
    model: MemoryModel = X86_TSO,
    context: QueryEngine | None = None,
) -> ProgramAnalysis:
    """One-call analysis without mutation (the common entry point)."""
    return FencePlacer(variant, model).analyze(program, context=context)


def place_fences(
    program: Program,
    variant: PipelineVariant = PipelineVariant.CONTROL,
    model: MemoryModel = X86_TSO,
    context: QueryEngine | None = None,
) -> ProgramAnalysis:
    """One-call analysis + fence insertion (mutates ``program``)."""
    return FencePlacer(variant, model).place(program, context=context)
