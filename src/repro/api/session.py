"""The `Session` facade: one stable entry point over the whole pipeline.

A :class:`Session` owns everything the pre-facade surfaces wired by
hand — compilation of :class:`~repro.registry.sources.ProgramSpec`
inputs, one shared :class:`~repro.query.engine.QueryEngine` per
compiled program (its memoized facts), registry dispatch over
detection variants, memory
models, and explorers, the timed simulator, the batch engine, and the
differential fuzzer. Execution knobs (worker processes, serial
fallback, state bounds, result cache) live on the session; *what* to
run lives in the schema-versioned requests of
:mod:`repro.api.reports`, so a request serialized on one machine
replays on another.

Two API levels:

* **wire level** — ``analyze``/``check``/``simulate``/``batch``/
  ``fuzz`` consume a request dataclass and return a serializable
  report; this is the surface the CLI and any future service sit on.
* **mid level** — ``load``/``analysis``/``place``/``explore``/
  ``timed_simulation`` operate on IR ``Program`` objects with the
  session's shared query engine (``Session.context(program)``); the
  experiments and examples use these for in-process composition.

A session belongs to one thread: it holds no locks, and nothing in it
is safe to share across threads. Serving concurrency comes from worker
processes instead — ``repro serve --workers N`` gives each worker its
own session (see :mod:`repro.cluster`).
"""

from __future__ import annotations

import time
from typing import NamedTuple

from repro.core.machine_models import MemoryModel
from repro.core.pipeline import PipelineVariant, ProgramAnalysis
from repro.frontend import compile_source
from repro.ir.function import Program
from repro.memmodel.sc import ExplorationResult
from repro.query.engine import QueryEngine
from repro.registry.models import get_model, weak_explorer_for
from repro.registry.sources import ProgramSpec, resolve_spec
from repro.registry.variants import get_variant, pipeline_variant_keys
from repro.api.reports import (
    AnalyzeReport,
    AnalyzeRequest,
    BatchCell,
    BatchReport,
    BatchRequest,
    CacheStats,
    CheckReport,
    CheckRequest,
    FunctionFences,
    FuzzProblem,
    FuzzReport,
    FuzzRequest,
    FuzzViolation,
    LintReport,
    LintRequest,
    SimulateReport,
    SimulateRequest,
    VariantCheck,
)


class _Cached(NamedTuple):
    """One session cache entry: a program's query engine, plus the
    ``(name, manual_fences)`` key and source a wire-loaded program was
    compiled from (both ``None`` for an ad-hoc :meth:`Session.context`
    program)."""

    engine: QueryEngine
    key: tuple[str, bool] | None = None
    source: str | None = None


class Session:
    """A configured analysis session (see module docstring).

    ``variant`` and ``model`` are the registry-key defaults used when a
    mid-level call does not name one; requests always carry their own.
    A session is single-threaded: use one per thread or process.
    """

    def __init__(
        self,
        variant: str = "control",
        model: str = "x86-tso",
        max_states: int = 1_000_000,
        jobs: int | None = None,
        parallel: bool = True,
        interprocedural: bool = False,
        cache_dir: str | None = None,
        query_cache_dir: str | None = None,
    ) -> None:
        get_variant(variant)  # validate eagerly: fail at construction
        get_model(model)
        self.variant = variant
        self.model = model
        self.max_states = max_states
        self.jobs = jobs
        self.parallel = parallel
        self.interprocedural = interprocedural
        self.cache_dir = cache_dir
        #: Directory for the engine's persistent query cache (fact
        #: results keyed by content fingerprint survive the session).
        self.query_cache_dir = query_cache_dir
        # One identity-keyed, LRU-bounded cache of compiled programs
        # and their engines, so a long-lived session serving many
        # one-shot requests does not retain every program it ever saw.
        # Wire requests for the same (name, manual_fences) resolve to
        # the *same* Program object — and therefore the same warm
        # engine. An edited source is spliced function-by-function
        # (see _adopt_source), so re-analysis over the wire touches
        # only the changed functions' query subgraphs.
        self._contexts: dict[Program, _Cached] = {}
        self._context_cap = 32
        self._batch_runner = None
        self._requests: dict[str, int] = {}

    def _count(self, kind: str) -> None:
        self._requests[kind] = self._requests.get(kind, 0) + 1

    # --- program loading --------------------------------------------------
    def load(self, program: ProgramSpec | Program, reuse: bool = True) -> Program:
        """Resolve and compile a spec (a compiled ``Program`` passes
        through); the session tracks a query engine for it.

        With ``reuse`` (the default), repeated loads of the same
        program name return the same warm ``Program``: an unchanged
        source is a pure cache hit, an edited one is spliced so only
        the changed functions lose their facts. Callers about to
        mutate the IR (fence insertion) pass ``reuse=False`` to get a
        private compile that never pollutes the shared cache.
        """
        if isinstance(program, Program):
            return program
        return self._load_spec(program, reuse)[0]

    def _load_spec(
        self, spec: ProgramSpec, reuse: bool
    ) -> tuple[Program, QueryEngine, str]:
        """Resolve/compile ``spec``; returns (program, its engine,
        resolved source)."""
        resolved = resolve_spec(spec)

        def compile_fresh() -> Program:
            return compile_source(
                resolved.source, resolved.name,
                include_manual_fences=spec.manual_fences,
            )

        if not reuse:
            ir = compile_fresh()
            return ir, self.context(ir), resolved.source
        key = (resolved.name, spec.manual_fences)
        program = next(
            (ir for ir, cached in self._contexts.items() if cached.key == key),
            None,
        )
        if program is None:
            program = compile_fresh()
            engine = QueryEngine(program, cache_dir=self.query_cache_dir)
            entry = _Cached(engine, key, resolved.source)
        else:
            entry = self._contexts[program]
            if entry.source != resolved.source:
                self._adopt_source(entry.engine, program, compile_fresh())
                entry = entry._replace(source=resolved.source)
        return program, self._insert(program, entry), resolved.source

    def _adopt_source(
        self, engine: QueryEngine, cached: Program, fresh: Program
    ) -> Program:
        """Splice an edited recompile into the warm ``cached`` program.

        Functions whose printed IR is unchanged keep their *object
        identity* (so every query memoized for them stays a hit);
        changed/new functions come from ``fresh``, and the facts of
        replaced/removed ones are discarded from the engine. Returns
        ``cached``, mutated in place so its engine stays bound.
        """
        from repro.query.engine import fingerprint_function

        merged: dict[str, object] = {}
        for name, func in fresh.functions.items():
            old = cached.functions.get(name)
            if old is not None:
                # The engine already fingerprinted every queried
                # function; only never-queried ones need printing.
                old_fp = engine.fingerprint_of(old) or fingerprint_function(old)
                if old_fp == fingerprint_function(func):
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
        # Catch structure changes (interprocedural shape) and any
        # in-place drift the fingerprints can see.
        engine.refresh()
        return cached

    def context(self, program: Program) -> QueryEngine:
        """The session's shared query engine (memoized facts) for
        ``program``."""
        entry = self._contexts.get(program)
        if entry is None:
            entry = _Cached(QueryEngine(program, cache_dir=self.query_cache_dir))
        return self._insert(program, entry)

    def _insert(self, program: Program, entry: _Cached) -> QueryEngine:
        """(Re)insert ``entry`` as the most recent, evicting down to the
        cap. Ad-hoc engines are evicted first, so churn through
        :meth:`context` never cools a wire-loaded program."""
        self._contexts.pop(program, None)
        while len(self._contexts) >= self._context_cap:
            victim = next(
                (ir for ir, cached in self._contexts.items() if cached.key is None),
                next(iter(self._contexts)),
            )
            del self._contexts[victim]
        self._contexts[program] = entry
        return entry.engine

    def forget(self, program: Program) -> None:
        """Drop ``program``'s engine (stale after IR mutation), so the
        next ``context()``/``load()`` really starts fresh. (For in-place
        edits, :meth:`refresh` is the cheaper, incremental choice.)"""
        self._contexts.pop(program, None)

    def refresh(self, program: Program) -> tuple[str, ...]:
        """Revalidate ``program``'s facts after in-place IR edits: the
        query engine evicts exactly the changed functions' subgraphs
        (see :meth:`repro.query.engine.QueryEngine.refresh`)."""
        return self.context(program).refresh()

    def stats(self) -> dict:
        """Observable session state: request counters, the engine LRU,
        and the engines' aggregated query counters.

        Schema v3: the duplicate ``context_stats`` meter is gone —
        ``query_stats`` is the one meter (its ``hits``/``misses`` count
        every engine lookup). v2 made ``query_stats`` aggregate the
        engines' dict-valued per-query-kind counters (``by_query`` and
        the ``by_query_hits``/``by_query_misses``/``by_query_evictions``
        maps the observability layer samples) key-wise; v1 dropped
        every non-int entry.
        """
        engines = [entry.engine for entry in self._contexts.values()]
        query_totals: dict[str, object] = {}
        for engine in engines:
            payload = engine.stats.to_payload()
            for name, value in payload.items():
                if isinstance(value, int):
                    query_totals[name] = query_totals.get(name, 0) + value
                elif isinstance(value, dict):
                    merged = query_totals.setdefault(name, {})
                    for kind, count in value.items():
                        merged[kind] = merged.get(kind, 0) + count
        # The persistent query cache's effectiveness, as the serving
        # layer wants it: restores are disk hits, computes are the work
        # a better-warmed cache would have avoided.
        restored = query_totals.get("restored", 0)
        computes = query_totals.get("computes", 0)
        attempts = restored + computes
        return {
            "stats_version": 3,
            "requests": dict(self._requests),
            "contexts": len(engines),
            "context_cap": self._context_cap,
            "query_stats": query_totals,
            "query_cache": {
                "restored": restored,
                "computes": computes,
                "hit_rate": round(restored / attempts, 4) if attempts else 0.0,
            },
        }

    # --- mid-level operations ---------------------------------------------
    def _variant_key(self, variant: str | PipelineVariant | None) -> str:
        if variant is None:
            return self.variant
        if isinstance(variant, PipelineVariant):
            return variant.value
        return variant

    def _machine(self, model: str | None) -> MemoryModel:
        return get_model(model if model is not None else self.model).model

    def analysis(
        self,
        program: Program,
        variant: str | PipelineVariant | None = None,
        model: str | None = None,
        interprocedural: bool | None = None,
        context: QueryEngine | None = None,
    ) -> ProgramAnalysis:
        """Run a variant's pipeline on ``program`` (no IR mutation),
        sharing the session's query engine (or ``context``, when the
        caller already holds it)."""
        entry = get_variant(self._variant_key(variant))
        inter = self.interprocedural if interprocedural is None else interprocedural
        engine = context if context is not None else self.context(program)
        return entry.analyze(
            program, self._machine(model), context=engine, interprocedural=inter,
        )

    def place(
        self,
        program: Program,
        variant: str | PipelineVariant | None = None,
        model: str | None = None,
        interprocedural: bool | None = None,
        context: QueryEngine | None = None,
        backend=None,
        synthesis: str = "greedy",
    ) -> ProgramAnalysis:
        """Run the pipeline and insert the fences (mutates ``program``;
        the engine refreshes itself, so it stays valid for reuse —
        only the fenced functions' facts recompute). With an arch
        ``backend``, fences are lowered to its flavors on insertion;
        ``synthesis="optimal"`` places the min-cost plans of
        :mod:`repro.synth` instead of the greedy ones."""
        entry = get_variant(self._variant_key(variant))
        inter = self.interprocedural if interprocedural is None else interprocedural
        if context is None:
            context = self.context(program)
        # Fence insertion mutates ``program``: demote a wire-loaded
        # entry to an ad-hoc one (its engine stays valid), so a later
        # load() of the same source compiles clean IR.
        cached = self._contexts.get(program)
        if cached is not None and cached.key is not None:
            self._contexts[program] = _Cached(cached.engine)
        return entry.place(
            program, self._machine(model),
            context=context, interprocedural=inter, backend=backend,
            synthesis=synthesis,
        )

    def explore(
        self,
        program: Program,
        model: str | None = None,
        max_states: int | None = None,
    ) -> ExplorationResult:
        """Exhaustively explore ``program`` under a model's explorer.

        ``model="sc"`` gives the reference semantics; weak models give
        the differencing side. Models without explorer coverage (RMO)
        raise ``KeyError``.
        """
        entry = get_model(model if model is not None else self.model)
        explorer_cls = entry.explorer_cls()
        bound = max_states if max_states is not None else self.max_states
        return explorer_cls(program, max_states=bound).explore()

    def timed_simulation(self, program: Program, costs=None):
        """Run the deterministic timed TSO simulator on ``program``."""
        from repro.simulator.costmodel import DEFAULT_COSTS
        from repro.simulator.machine import TSOSimulator

        return TSOSimulator(
            program, costs if costs is not None else DEFAULT_COSTS
        ).run()

    # --- wire-level operations --------------------------------------------
    @staticmethod
    def _backend(arch: str | None):
        if arch is None:
            return None
        from repro.arch.backend import get_backend

        return get_backend(arch)

    @staticmethod
    def _check_synthesis(synthesis: str) -> str:
        from repro.core.pipeline import SYNTHESIS_MODES

        if synthesis not in SYNTHESIS_MODES:
            raise ValueError(
                f"unknown synthesis {synthesis!r}; "
                f"known: {', '.join(SYNTHESIS_MODES)}"
            )
        return synthesis

    def analyze(self, request: AnalyzeRequest) -> AnalyzeReport:
        self._count("analyze")
        backend = self._backend(request.arch)
        synthesis = self._check_synthesis(request.synthesis)
        interprocedural = (
            request.interprocedural
            if request.interprocedural is not None
            else self.interprocedural
        )
        # emit_ir inserts fences: a private compile (reuse=False) keeps
        # the shared warm program unmutated.
        reuse = not request.emit_ir
        program, engine, _ = self._load_spec(request.program, reuse)
        before = engine.stats.snapshot()
        if request.emit_ir:
            analysis = self.place(
                program, request.variant, request.model,
                interprocedural=interprocedural, context=engine,
                backend=backend, synthesis=synthesis,
            )
        else:
            analysis = self.analysis(
                program, request.variant, request.model,
                interprocedural=interprocedural, context=engine,
            )
        recorded = engine.stats.since(before)
        annotations = None
        if request.annotations:
            from repro.core.annotations import (
                render_annotations,
                suggest_annotations,
            )

            annotations = render_annotations(suggest_annotations(analysis))
        fenced_ir = None
        if request.emit_ir:
            from repro.ir.printer import format_program

            fenced_ir = format_program(program)
        if not reuse:
            # One-shot program: drop its engine so per-request compiles
            # cannot thrash genuinely warm entries out of the LRU.
            self.forget(program)
        # This request's own counters: a warm shared engine shows up as
        # all-hits, a cold one as the full fact-construction bill.
        cache_stats = CacheStats.of(recorded) if request.stats else None
        fence_cost = None
        flavors = None
        greedy_cost = None
        if backend is not None:
            from repro.arch.lowering import lower_analysis, summarize_lowerings

            if analysis.lowered_plans is not None:
                # emit_ir placed through the backend already: summarize
                # the plans actually inserted, don't lower twice.
                summary = summarize_lowerings(
                    backend.key, analysis.lowered_plans
                )
            elif synthesis == "optimal":
                from repro.synth import synthesize_analysis

                _, summary = synthesize_analysis(analysis, backend)
            else:
                _, summary = lower_analysis(analysis, backend)
            fence_cost = summary.cost
            flavors = dict(summary.flavors)
            if synthesis == "optimal":
                _, greedy_summary = lower_analysis(analysis, backend)
                greedy_cost = greedy_summary.cost
        functions = tuple(
            FunctionFences(
                name=name,
                escaping_reads=len(fa.escape_info.escaping_reads),
                sync_reads=len(fa.sync_reads),
                orderings=len(fa.orderings),
                pruned=len(fa.pruned),
                full_fences=fa.plan.full_count,
                compiler_fences=fa.plan.compiler_count,
            )
            for name, fa in analysis.functions.items()
        )
        return AnalyzeReport(
            program=program.name,
            variant=request.variant,
            model=request.model,
            interprocedural=interprocedural,
            functions=functions,
            escaping_reads=analysis.total_escaping_reads,
            sync_reads=analysis.total_sync_reads,
            orderings=sum(len(fa.orderings) for fa in analysis.functions.values()),
            pruned_orderings=analysis.total_orderings,
            surviving_fraction=analysis.surviving_fraction,
            full_fences=analysis.full_fence_count,
            compiler_fences=analysis.compiler_fence_count,
            annotations=annotations,
            fenced_ir=fenced_ir,
            cache_stats=cache_stats,
            arch=request.arch,
            fence_cost=fence_cost,
            flavors=flavors,
            synthesis=synthesis,
            greedy_cost=greedy_cost,
        )

    def lint(self, request: LintRequest) -> LintReport:
        from repro.diagnostics import run_lint
        from repro.diagnostics.findings import severity_rank

        self._count("lint")
        if request.fail_on != "never":
            severity_rank(request.fail_on)  # unknown threshold: fail early
        get_variant(request.variant)
        machine = get_model(request.model).model
        backend = self._backend(request.arch)
        # Lint never mutates the IR, so it always runs on the shared
        # warm program: a re-lint after an edit recomputes only the
        # spliced functions' query subgraphs.
        program, engine, source = self._load_spec(request.program, reuse=True)
        before = engine.stats.snapshot()
        result = run_lint(
            program,
            engine,
            variant=request.variant,
            model=machine,
            arch=backend,
            passes=tuple(request.passes),
            confirm=request.confirm,
            max_traces=request.max_traces,
            max_actions=request.max_actions,
        )
        recorded = engine.stats.since(before)
        fuzz_seed = None
        if result.fuzz_seed:
            from repro.validate.seeds import record_seed

            record_seed(program.name, source)
            fuzz_seed = source
        cache_stats = CacheStats.of(recorded) if request.stats else None
        return LintReport(
            program=program.name,
            variant=result.variant,
            model=request.model,
            passes=result.passes,
            findings=result.findings,
            notes=result.counts.note,
            warnings=result.counts.warning,
            errors=result.counts.error,
            confirmed_races=result.confirmed_races,
            refuted_candidates=result.refuted_candidates,
            unknown_candidates=result.unknown_candidates,
            explorer_complete=result.explorer_complete,
            traces_checked=result.traces_checked,
            fuzz_seed=fuzz_seed,
            fail_on=request.fail_on,
            arch=request.arch,
            cache_stats=cache_stats,
        )

    def check(self, request: CheckRequest) -> CheckReport:
        self._count("check")
        resolved = resolve_spec(request.program)
        explorer_cls, machine = weak_explorer_for(request.model)
        # Placements are lowered through an arch backend only when the
        # model's explorer honors flavor kill-sets (arm/power) — those
        # checks then exercise the flavored fences they would ship.
        # Flavor-blind explorers (TSO/PSO) keep generic FULL, and an
        # explicit request.arch naming any *other* catalog is refused:
        # the explorer would give foreign/unmodeled flavors full-fence
        # strength, stamping the report as validating a flavor
        # selection it cannot actually model.
        from repro.registry.models import check_backend_for_model

        backend = check_backend_for_model(request.model)
        synthesis = self._check_synthesis(request.synthesis)
        if request.arch is not None:
            self._backend(request.arch)  # unknown arch: KeyError early
            if backend is None or backend.key != request.arch:
                raise ValueError(
                    f"cannot validate {request.arch!r} fence flavors on "
                    f"model {request.model!r}: its explorer "
                    + (
                        "does not model flavor kill-sets"
                        if backend is None
                        else f"honors the {backend.key!r} flavor catalog"
                    )
                )
        bound = (
            request.max_states
            if request.max_states is not None
            else self.max_states
        )

        def fresh() -> Program:
            # The spec describes the baseline program: with
            # manual_fences=True the expert fences ARE the program
            # under check, and the SC reference includes them.
            return compile_source(
                resolved.source, resolved.name,
                include_manual_fences=request.program.manual_fences,
            )

        def skipped(reason: str) -> CheckReport:
            return CheckReport(
                program=resolved.name,
                model=request.model,
                max_states=bound,
                complete=False,
                skipped=reason,
                sc_outcomes=0,
                weak_outcomes_unfenced=0,
                weak_breaks_unfenced=False,
                variants=(),
                arch=backend.key if backend is not None else None,
                synthesis=synthesis,
            )

        from repro.registry.models import EXPLORERS

        sc = EXPLORERS.get("sc")(fresh(), max_states=bound).explore()
        weak = explorer_cls(fresh(), max_states=bound).explore()
        if not (sc.complete and weak.complete):
            return skipped("state space exceeded max_states")
        sc_obs = sc.observation_sets()
        weak_obs = weak.observation_sets()

        interprocedural = (
            request.interprocedural
            if request.interprocedural is not None
            else self.interprocedural
        )
        variant_keys = request.variants or pipeline_variant_keys()
        verdicts = []
        for key in variant_keys:
            entry = get_variant(key)
            fenced = fresh()
            analysis = entry.place(
                fenced, machine, interprocedural=interprocedural,
                backend=backend, synthesis=synthesis,
            )
            if synthesis == "optimal" and analysis.lowered_plans is not None:
                full_fences = sum(
                    p.full_count for p in analysis.lowered_plans.values()
                )
            else:
                full_fences = analysis.full_fence_count
            fenced_weak = explorer_cls(fenced, max_states=bound).explore()
            # A bounded fenced exploration proves nothing: comparing a
            # truncated outcome set against sc_obs could claim (or
            # deny) restoration on evidence that isn't there.
            verdicts.append(
                VariantCheck(
                    variant=key,
                    full_fences=full_fences,
                    weak_outcomes=len(fenced_weak.observation_sets()),
                    restored_sc=fenced_weak.complete
                    and fenced_weak.observation_sets() == sc_obs,
                    complete=fenced_weak.complete,
                )
            )
        return CheckReport(
            program=resolved.name,
            model=request.model,
            max_states=bound,
            complete=True,
            skipped=None,
            sc_outcomes=len(sc_obs),
            weak_outcomes_unfenced=len(weak_obs),
            weak_breaks_unfenced=weak_obs != sc_obs,
            variants=tuple(verdicts),
            arch=backend.key if backend is not None else None,
            synthesis=synthesis,
        )

    def simulate(self, request: SimulateRequest) -> SimulateReport:
        self._count("simulate")
        backend = self._backend(request.arch)
        synthesis = self._check_synthesis(request.synthesis)
        resolved = resolve_spec(request.program)
        manual = request.placement == "manual" or request.program.manual_fences
        program = compile_source(
            resolved.source, resolved.name, include_manual_fences=manual
        )
        if request.placement != "manual":
            self.place(
                program, request.placement, request.model,
                backend=backend, synthesis=synthesis,
            )
            self.forget(program)  # per-request compile: keep the LRU warm
        costs = None
        if backend is not None:
            from repro.simulator.costmodel import arch_cost_model

            costs = arch_cost_model(backend)
        stats = self.timed_simulation(program, costs)
        observations = tuple(
            (tid, tuple(obs))
            for tid, obs in sorted(stats.observations.items())
        )
        return SimulateReport(
            program=resolved.name,
            placement=request.placement,
            model=request.model,
            cycles=stats.cycles,
            instructions=stats.instructions,
            full_fences_executed=stats.full_fences_executed,
            compiler_fences_executed=stats.compiler_fences_executed,
            fence_stall_cycles=stats.fence_stall_cycles,
            observations=observations,
            final_globals=tuple(sorted(stats.final_globals.items())),
            observe_globals=tuple(request.observe_globals),
            arch=request.arch,
            synthesis=synthesis,
        )

    def batch(self, request: BatchRequest) -> BatchReport:
        from repro.engine.batch import BatchRunner, ResultCache
        from repro.programs.registry import all_programs, get_program

        self._count("batch")
        programs = list(request.programs) if request.programs else list(all_programs())
        for name in programs:
            get_program(name)  # KeyError("unknown program ...") early
        variants = list(request.variants) if request.variants else None
        models = list(request.models) if request.models else None
        if self._batch_runner is None:
            cache = ResultCache(self.cache_dir) if self.cache_dir else None
            self._batch_runner = BatchRunner(
                max_workers=self.jobs, parallel=self.parallel, cache=cache
            )
        runner = self._batch_runner
        if request.arch is not None:
            self._backend(request.arch)  # unknown arch: KeyError early
        synthesis = self._check_synthesis(request.synthesis)
        start = time.perf_counter()
        results = runner.run_matrix(
            programs, variants, models, arch=request.arch,
            synthesis=synthesis,
        )
        wall = time.perf_counter() - start
        used_pool = runner.used_pool
        cache_stats = None
        if request.stats:
            # Only cells analyzed *this run*: result-cache replays kept
            # their original counters, and counting them would claim
            # fact work a fully-warm run never did.
            live = [r for r in results if not r.cached]
            by_fact: dict[str, int] = {}
            for r in live:
                for fact, count in r.context_by_fact.items():
                    by_fact[fact] = by_fact.get(fact, 0) + count
            cache_stats = CacheStats(
                hits=sum(r.context_hits for r in live),
                misses=sum(r.context_misses for r in live),
                by_fact=by_fact,
            )
        cells = tuple(
            BatchCell(
                program=r.program,
                variant=r.variant,
                model=r.model,
                key=r.key,
                functions=len(r.functions),
                escaping_reads=r.escaping_reads,
                sync_reads=r.sync_reads,
                orderings=r.orderings,
                pruned_orderings=r.pruned_orderings,
                surviving_fraction=r.surviving_fraction,
                full_fences=r.full_fences,
                compiler_fences=r.compiler_fences,
                elapsed=r.elapsed,
                cached=r.cached,
                fence_cost=r.fence_cost,
                flavors=dict(r.flavors),
                greedy_cost=r.greedy_cost,
                optimal_cost=r.optimal_cost,
            )
            for r in results
        )
        return BatchReport(
            programs=tuple(programs),
            variants=tuple(variants) if variants else tuple(pipeline_variant_keys()),
            models=tuple(models) if models else ("x86-tso",),
            used_pool=used_pool,
            wall=wall,
            cells=cells,
            cache_stats=cache_stats,
            arch=request.arch,
            synthesis=synthesis,
        )

    def fuzz(self, request: FuzzRequest) -> FuzzReport:
        from dataclasses import asdict

        self._count("fuzz")

        from repro.registry.variants import trusted_variant_keys
        from repro.validate.generator import SHAPES
        from repro.validate.runner import run_fuzz

        shapes = tuple(request.shapes) if request.shapes else tuple(SHAPES)
        variants = (
            tuple(request.variants) if request.variants
            else trusted_variant_keys()
        )
        raw = run_fuzz(
            seeds=request.seeds,
            shapes=shapes,
            variants=variants,
            models=tuple(request.models),
            budget=request.budget,
            jobs=self.jobs,
            parallel=self.parallel,
            shrink=request.shrink,
            max_states=(
                request.max_states
                if request.max_states is not None
                else self.max_states
            ),
        )
        problems = tuple(
            [
                FuzzProblem("error", c.shape, c.seed, c.model, c.error or "")
                for c in raw.errors
            ]
            + [
                FuzzProblem(
                    "incomplete", c.shape, c.seed, c.model,
                    (c.report.skipped if c.report is not None else None) or "",
                )
                for c in raw.incomplete
            ]
        )
        return FuzzReport(
            seeds=raw.seeds,
            shapes=tuple(raw.shapes),
            variants=tuple(raw.variants),
            models=tuple(raw.models),
            budget=raw.budget,
            cases_run=len(raw.cases),
            cases_skipped=raw.cases_skipped,
            errors=len(raw.errors),
            incomplete=len(raw.incomplete),
            budget_exhausted=raw.budget_exhausted,
            used_pool=raw.used_pool,
            wall=raw.wall,
            variant_summary=raw.variant_summary(),
            violations=tuple(
                FuzzViolation(**asdict(v)) for v in raw.violations
            ),
            problems=problems,
            cases=tuple(c.to_payload() for c in raw.cases),
        )
