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
from repro.core.pipeline import PipelineVariant, ProgramAnalysis, _check_synthesis
from repro.frontend import LexError, LoweringError, ParseError, compile_source
from repro.frontend.lexer import Tokens, rescan
from repro.frontend.lowering import FunctionLowerer, ModuleScope
from repro.frontend.parser import ModuleItems, Parser
from repro.ir.function import Function, Program
from repro.ir.instructions import Call
from repro.ir.verifier import VerificationError, verify_program
from repro.memmodel.explore import ExplorationResult
from repro.obs import metrics as obs_metrics
from repro.query.engine import QueryEngine, fingerprint_function
from repro.registry.models import get_model
from repro.registry.sources import ProgramSpec, resolve_spec
from repro.registry.variants import get_variant, pipeline_variant_keys
from repro.util.store import BlobStore
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
    FuzzReport,
    FuzzRequest,
    LintReport,
    LintRequest,
    SimulateReport,
    SimulateRequest,
    VariantCheck,
)


class _Lowered(NamedTuple):
    """What a splice knows of one function it kept or lowered: the
    digest of the tokens it came from, the function's ``generation``
    then, and the parameter count of each function it calls."""

    digest: bytes
    generation: int
    callees: tuple[tuple[str, int], ...]


def _callees(func: Function) -> tuple[tuple[str, int], ...]:
    """Each function ``func`` calls, with its parameter count."""
    return tuple(sorted({
        (inst.callee, len(inst.args))
        for inst in func.instructions() if type(inst) is Call
    }))


class _Cached(NamedTuple):
    """One session cache entry: a program's query engine, plus the
    ``(name, manual_fences)`` key and source a wire-loaded program was
    compiled from (both ``None`` for an ad-hoc :meth:`Session.context`
    program). After a splice, ``tokens`` holds the source's tokens,
    ``items`` their cut, ``lowered`` a record per function and ``scope``
    the module scope they were lowered in."""

    engine: QueryEngine
    key: tuple[str, bool] | None = None
    source: str | None = None
    scope: ModuleScope | None = None
    lowered: dict[str, _Lowered] | None = None
    tokens: Tokens | None = None
    items: ModuleItems | None = None


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
        # One store per configured directory, shared by every engine
        # (and by the batch runner when both name the same directory).
        self._stores: dict[str, BlobStore] = {}
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

    def _store(self, directory: str | None) -> BlobStore | None:
        if not directory:
            return None
        if directory not in self._stores:
            self._stores[directory] = BlobStore(directory)
        return self._stores[directory]

    def _engine(self, program: Program) -> QueryEngine:
        return QueryEngine(program, store=self._store(self.query_cache_dir))

    def _count(self, kind: str) -> None:
        self._requests[kind] = self._requests.get(kind, 0) + 1

    # --- program loading --------------------------------------------------
    def load(self, program: ProgramSpec | Program, reuse: bool = True) -> Program:
        """Resolve and compile a spec (a compiled ``Program`` passes
        through); the session tracks a query engine for it.

        With ``reuse`` (the default), repeated loads of the same
        program name return the same warm ``Program``: an unchanged
        source is a pure cache hit, an edited one is spliced so only
        the changed functions lose their facts. A splice re-lexes only
        the edited span of the source and re-cuts only the top-level
        items it touches (the first splice of a program lexes and cuts
        all of it); a function whose tokens, globals and callees'
        parameter counts are as when a splice last lowered it keeps
        its object with no parse or lowering, and only the others are
        parsed, lowered and verified (see ``_adopt_source``). A source
        that does not compile raises exactly what a cold compile
        raises, and leaves the cached program and its facts as they
        were. A kept function also keeps the fence pipeline's last
        orderings, pruned set and plan, which ride on its
        ``escape_info`` fact (see
        :meth:`~repro.core.pipeline.FencePlacer.analyze_function`):
        replacing or removing the function, refreshing it after an
        in-place edit, or the LRU dropping the program discards them
        with the facts. An in-place edit of the cached IR counts once
        the edited function is finalized (``Function.finalize()``),
        refreshed or not: a splice re-lowers every function finalized
        since the splice that kept or lowered it. Callers about to
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
            entry = _Cached(self._engine(program), key, resolved.source)
        else:
            entry = self._contexts[program]
            if entry.source != resolved.source:
                entry = self._adopt_source(
                    entry, program, resolved.source, spec.manual_fences
                )
        return program, self._insert(program, entry), resolved.source

    def _adopt_source(
        self, entry: _Cached, cached: Program, source: str, manual_fences: bool
    ) -> _Cached:
        """Splice an edited ``source`` into the warm ``cached`` program,
        in place, so its engine stays bound; returns the updated entry.

        The source is lexed from the previous splice's tokens
        (``entry.tokens``) by :func:`~repro.frontend.lexer.rescan`: only
        from the last old token before the first changed character up
        to the first new token that starts in the unchanged suffix at
        an old token's start; the rest are the old tokens, shifted.
        That equals a full scan, since a token depends only on the text
        from its start onward. The tokens are cut into top-level items
        from the previous splice's cut (``entry.items``): only the items
        overlapping the lexed window are cut again, the others are
        reused, moved. When every global was reused, so is the previous
        module scope's global part. With no tokens kept (a program's
        first splice) the whole source is lexed and cut. A function is
        kept, with no parse or lowering, when its token digest, every
        global's name and size, and each callee's parameter count are
        as in its record, and the cached function's ``generation`` is
        still the recorded one, so IR edited in place and finalized is
        never papered over. Every other function is parsed, lowered and
        verified; if it replaces a cached function whose printed IR
        equals its own, the cached object stays all the same. The
        cached function's print is the engine's while the engine
        printed it at its current generation, else a fresh one, so an
        in-place edit counts on a program's first splice as on later
        ones. Kept functions keep every memoized query; the facts of
        replaced and removed ones are discarded. A source with any
        frontend error goes through ``compile_source``, so the error
        raised is exactly a cold compile's, before anything changes
        (the kept tokens and cut included).
        """
        engine = entry.engine
        records = entry.lowered or {}
        merged: dict[str, Function] = {}
        lowered: dict[str, _Lowered] = {}
        fresh: list[Function] = []
        replaced: list[Function] = []
        try:
            tokens, window = rescan(source, entry.tokens)
            items = Parser(tokens.kinds, tokens.texts, tokens.lines).cut(
                entry.items, window
            )
            scope = ModuleScope(
                items.globals,
                ((f.name, f.arity, f.line) for f in items.functions),
                entry.scope if items.reused_globals else None,
            )
            same_globals = (
                entry.scope is not None and scope.global_sizes == entry.scope.global_sizes
            )
            for item in items.functions:
                name = item.name
                old = cached.functions.get(name)
                record = records.get(name)
                if (
                    same_globals
                    and old is not None
                    and record is not None
                    and record.digest == item.digest
                    and old.generation == record.generation
                    and all(
                        scope.arities.get(callee) == arity
                        for callee, arity in record.callees
                    )
                ):
                    merged[name] = old
                    lowered[name] = record
                    continue
                func = FunctionLowerer(
                    items.parse_function(item), scope, manual_fences
                ).lower()
                fresh.append(func)
                if old is not None:
                    printed = engine.fingerprint_of(old) or fingerprint_function(old)
                    if printed == fingerprint_function(func):
                        merged[name] = old
                        lowered[name] = _Lowered(
                            item.digest, old.generation, _callees(old)
                        )
                        continue
                    replaced.append(old)
                merged[name] = func
                lowered[name] = _Lowered(item.digest, func.generation, _callees(func))
            program = Program(cached.name)
            # A copy: the scope's entries may be shared with the next splice.
            program.globals = dict(scope.globals)
            program.functions = merged
            scope.add_threads(program, items.threads)
            verify_program(program, fresh)
        except (LexError, ParseError, LoweringError, VerificationError):
            compile_source(source, cached.name, include_manual_fences=manual_fences)
            raise  # a cold compile accepts the source: a splice bug
        for old in replaced:
            engine.discard_input(old)
        for name, old in cached.functions.items():
            if name not in merged:
                engine.discard_input(old)
        cached.functions = merged
        cached.globals = program.globals
        cached.threads = program.threads
        # Catch structure changes (interprocedural shape) and in-place
        # edits of kept functions: only functions finalized since the
        # engine fingerprinted them are printed again.
        engine.refresh()
        registry = obs_metrics.REGISTRY
        registry.inc("repro_session_functions_reused_total", len(merged) - len(fresh))
        registry.inc("repro_session_functions_relowered_total", len(fresh))
        registry.inc("repro_session_tokens_relexed_total", window.relexed)
        registry.inc(
            "repro_session_tokens_reused_total", len(tokens.kinds) - window.relexed
        )
        registry.inc("repro_session_items_recut_total", items.recut)
        registry.inc("repro_session_items_reused_total", len(items.items) - items.recut)
        return entry._replace(
            source=source, scope=scope, lowered=lowered, tokens=tokens, items=items
        )

    def context(self, program: Program) -> QueryEngine:
        """The session's shared query engine (memoized facts) for
        ``program``."""
        entry = self._contexts.get(program)
        if entry is None:
            entry = _Cached(self._engine(program))
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
        """Revalidate ``program``'s facts after in-place IR edits, each
        ended by the edited function's ``finalize()``: the query engine
        re-prints only re-finalized functions and evicts exactly the
        changed ones' subgraphs (see
        :meth:`repro.query.engine.QueryEngine.refresh`)."""
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
        every non-int entry. ``query_cache.rejected`` (additive in v3)
        counts entries of the session's query store that failed its
        check and were recomputed.
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
        # The query store's effectiveness, as the serving layer wants
        # it: restores are disk hits, computes are the work a
        # better-warmed store would have avoided, and rejections are
        # entries that failed the store's check.
        restored = query_totals.get("restored", 0)
        computes = query_totals.get("computes", 0)
        attempts = restored + computes
        store = self._stores.get(self.query_cache_dir or "")
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
                "rejected": store.rejected if store is not None else 0,
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

    def analyze(self, request: AnalyzeRequest) -> AnalyzeReport:
        self._count("analyze")
        backend = self._backend(request.arch)
        synthesis = _check_synthesis(request.synthesis)
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
        from repro.validate.oracle import DifferentialCheck

        self._count("check")
        resolved = resolve_spec(request.program)
        bound = (
            request.max_states
            if request.max_states is not None
            else self.max_states
        )
        check = DifferentialCheck(request.model, bound)
        backend = check.backend
        synthesis = _check_synthesis(request.synthesis)
        if request.arch is not None:
            # An explicit arch naming any catalog but the one the
            # model's explorer honors is refused: the explorer would
            # give foreign/unmodeled flavors full-fence strength,
            # stamping the report as validating a flavor selection it
            # cannot actually model.
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

        def fresh() -> Program:
            # The spec describes the baseline program: with
            # manual_fences=True the expert fences ARE the program
            # under check, and the SC reference includes them.
            return compile_source(
                resolved.source, resolved.name,
                include_manual_fences=request.program.manual_fences,
            )

        arch = backend.key if backend is not None else None
        _, sc, weak = check.explore_unfenced(fresh)
        if weak is None or not weak.complete:
            return CheckReport(
                program=resolved.name,
                model=request.model,
                max_states=bound,
                complete=False,
                skipped="state space exceeded max_states",
                sc_outcomes=0,
                weak_outcomes_unfenced=0,
                weak_breaks_unfenced=False,
                variants=(),
                arch=arch,
                synthesis=synthesis,
            )
        sc_obs = sc.observation_sets()
        weak_obs = weak.observation_sets()

        interprocedural = (
            request.interprocedural
            if request.interprocedural is not None
            else self.interprocedural
        )
        verdicts = []
        for key in request.variants or pipeline_variant_keys():
            full_fences, _, fenced_weak = check.explore_variant(
                fresh, key, synthesis=synthesis,
                interprocedural=interprocedural,
            )
            fenced_obs = fenced_weak.observation_sets()
            # A bounded fenced exploration proves nothing: comparing a
            # truncated outcome set against sc_obs could claim (or
            # deny) restoration on evidence that isn't there.
            verdicts.append(
                VariantCheck(
                    variant=key,
                    full_fences=full_fences,
                    weak_outcomes=len(fenced_obs),
                    restored_sc=fenced_weak.complete and fenced_obs == sc_obs,
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
            arch=arch,
            synthesis=synthesis,
        )

    def simulate(self, request: SimulateRequest) -> SimulateReport:
        self._count("simulate")
        backend = self._backend(request.arch)
        synthesis = _check_synthesis(request.synthesis)
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
        from repro.engine.batch import BatchRunner
        from repro.programs.registry import all_programs, get_program

        self._count("batch")
        programs = list(request.programs) if request.programs else list(all_programs())
        for name in programs:
            get_program(name)  # KeyError("unknown program ...") early
        variants = list(request.variants) if request.variants else None
        models = list(request.models) if request.models else None
        if self._batch_runner is None:
            self._batch_runner = BatchRunner(
                max_workers=self.jobs, parallel=self.parallel,
                store=self._store(self.cache_dir),
            )
        runner = self._batch_runner
        if request.arch is not None:
            self._backend(request.arch)  # unknown arch: KeyError early
        synthesis = _check_synthesis(request.synthesis)
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
        self._count("fuzz")

        from repro.registry.variants import trusted_variant_keys
        from repro.validate.generator import SHAPES
        from repro.validate.runner import run_fuzz

        shapes = tuple(request.shapes) if request.shapes else tuple(SHAPES)
        variants = (
            tuple(request.variants) if request.variants
            else trusted_variant_keys()
        )
        return run_fuzz(
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
