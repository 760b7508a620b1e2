"""Parallel batch analysis over a {program × variant × model} matrix.

The paper pitches synchronization-read detection as a *practical*
compiler pass; practicality at corpus scale means not re-analyzing 17
workloads serially from scratch on every experiment run. This module
provides:

* :func:`execute_job` — one picklable unit of work: compile a program
  from source, run the fence-placement pipeline over the program's
  :class:`~repro.query.engine.QueryEngine`, and reduce the result to a
  plain-data :class:`BatchResult`;
* :class:`BatchRunner` — fans a job matrix out over a
  ``concurrent.futures`` process pool with a deterministic serial
  fallback; results always come back in job-submission order. It
  keeps every result in memory by content key and, given a
  :class:`~repro.util.store.BlobStore`, on disk too, so repeated runs
  over unchanged sources reuse prior analyses.

Workers return compact summaries rather than IR-bearing analyses so
results cross the process boundary (and the store) cheaply.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.pipeline import PipelineVariant
from repro.frontend import compile_source
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.query.engine import QueryEngine
from repro.registry.models import backend_for_model, get_model, model_keys
from repro.registry.variants import get_variant, pipeline_variant_keys
from repro.util.store import BlobStore

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Bump when analysis semantics change so stale cache entries miss.
ENGINE_VERSION = "4"

#: The store kind of batch results.
RESULT_KIND = "batch"


@dataclass(frozen=True)
class BatchJob:
    """One cell of the analysis matrix.

    ``program`` names a registry workload unless ``source`` carries
    explicit mini-C text (then ``program`` is just a display name).
    """

    program: str
    variant: str = PipelineVariant.CONTROL.value
    model: str = "x86-tso"
    source: str | None = None
    #: Arch backend override for lowering costs; None = the model's
    #: registered default arch.
    arch: str | None = None
    #: Which synthesis strategy's cost lands in ``fence_cost``/
    #: ``flavors`` ("greedy" or "optimal"); both costs are always
    #: reported side by side when an arch backend applies.
    synthesis: str = "greedy"

    def resolve_source(self) -> str:
        if self.source is not None:
            return self.source
        from repro.programs.registry import get_program

        return get_program(self.program).source

    def content_key(self) -> str:
        """Digest of everything that determines the analysis result."""
        payload = "\x00".join(
            (ENGINE_VERSION, self.program, self.variant, self.model,
             self.arch or "", self.synthesis, self.resolve_source())
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FunctionResult:
    """Per-function analysis summary (plain data, JSON/pickle friendly)."""

    name: str
    escaping_reads: int
    sync_reads: int
    orderings: int
    pruned: int
    full_fences: int
    compiler_fences: int


@dataclass(frozen=True)
class BatchResult:
    """One analyzed matrix cell, reduced to aggregate counts."""

    program: str
    variant: str
    model: str
    key: str
    functions: tuple[FunctionResult, ...]
    ordering_kinds: dict[str, int]  # pruned counts by OrderKind value
    elapsed: float
    cached: bool = False
    #: Lowered fence cost + flavor histogram under the model's arch
    #: backend; None/{} when the model has no registered arch (rmo).
    #: ``fence_cost`` reflects the job's selected synthesis strategy;
    #: ``greedy_cost``/``optimal_cost`` always carry both for
    #: comparison (``optimal_cost <= greedy_cost`` by construction).
    fence_cost: int | None = None
    flavors: dict[str, int] = field(default_factory=dict)
    greedy_cost: int | None = None
    optimal_cost: int | None = None
    #: The cell's own query-engine counters — memo hits, misses and
    #: per-kind misses, as in :class:`~repro.api.reports.CacheStats`
    #: (they cross the process boundary as plain ints so reports can
    #: aggregate them).
    context_hits: int = 0
    context_misses: int = 0
    context_by_fact: dict[str, int] = field(default_factory=dict)

    # --- aggregates -------------------------------------------------------
    @property
    def escaping_reads(self) -> int:
        return sum(f.escaping_reads for f in self.functions)

    @property
    def sync_reads(self) -> int:
        return sum(f.sync_reads for f in self.functions)

    @property
    def orderings(self) -> int:
        return sum(f.orderings for f in self.functions)

    @property
    def pruned_orderings(self) -> int:
        return sum(f.pruned for f in self.functions)

    @property
    def surviving_fraction(self) -> float:
        """Ordering-count-weighted (vacuous functions carry no weight)."""
        if self.orderings == 0:
            return 1.0
        return self.pruned_orderings / self.orderings

    @property
    def full_fences(self) -> int:
        return sum(f.full_fences for f in self.functions)

    @property
    def compiler_fences(self) -> int:
        return sum(f.compiler_fences for f in self.functions)

    # --- (de)serialization for the on-disk cache --------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "BatchResult":
        data = json.loads(text)
        data["functions"] = tuple(
            FunctionResult(**f) for f in data["functions"]
        )
        return BatchResult(**data)


def execute_job(job: BatchJob) -> BatchResult:
    """Run one matrix cell; top-level so process pools can pickle it."""
    ir = compile_source(job.resolve_source(), job.program)
    return _execute_cell(job, ir, QueryEngine(ir))


def execute_job_group(jobs: "tuple[BatchJob, ...]") -> list[BatchResult]:
    """Run several cells of the *same program source* in one worker.

    Compiles once and shares one :class:`QueryEngine`, so the
    variant/model cells of a program reuse the variant-independent
    facts instead of rebuilding them per cell.
    """
    ir = compile_source(jobs[0].resolve_source(), jobs[0].program)
    engine = QueryEngine(ir)
    return [_execute_cell(job, ir, engine) for job in jobs]


def _execute_cell(job: BatchJob, ir, engine: QueryEngine) -> BatchResult:
    start = time.perf_counter()
    cell_span = obs_trace.span(
        "batch.cell",
        cat="batch",
        program=job.program,
        variant=job.variant,
        model=job.model,
    )
    with cell_span:
        return _run_cell(job, ir, engine, start)


def _run_cell(
    job: BatchJob, ir, engine: QueryEngine, start: float
) -> BatchResult:
    before = engine.stats.snapshot()
    analysis = get_variant(job.variant).analyze(
        ir, get_model(job.model).model, context=engine
    )
    recorded = engine.stats.since(before)
    functions = tuple(
        FunctionResult(
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
    kinds = {
        kind.value: count
        for kind, count in analysis.ordering_counts(pruned=True).items()
    }
    fence_cost: int | None = None
    flavors: dict[str, int] = {}
    greedy_cost: int | None = None
    optimal_cost: int | None = None
    if job.arch is not None:
        from repro.arch.backend import get_backend

        backend = get_backend(job.arch)
    else:
        backend = backend_for_model(job.model)
    if backend is not None:
        from repro.arch.lowering import lower_analysis
        from repro.synth import synthesize_analysis

        _, greedy_summary = lower_analysis(analysis, backend)
        _, optimal_summary = synthesize_analysis(analysis, backend)
        greedy_cost = greedy_summary.cost
        optimal_cost = optimal_summary.cost
        summary = (
            optimal_summary if job.synthesis == "optimal" else greedy_summary
        )
        fence_cost = summary.cost
        flavors = dict(summary.flavors)
    elapsed = time.perf_counter() - start
    obs_metrics.REGISTRY.observe(
        "repro_batch_cell_seconds", elapsed, variant=job.variant, model=job.model
    )
    return BatchResult(
        program=job.program,
        variant=job.variant,
        model=job.model,
        key=job.content_key(),
        functions=functions,
        ordering_kinds=kinds,
        elapsed=elapsed,
        context_hits=recorded.hits,
        context_misses=recorded.misses,
        context_by_fact=recorded.by_query_misses,
        fence_cost=fence_cost,
        flavors=flavors,
        greedy_cost=greedy_cost,
        optimal_cost=optimal_cost,
    )


def _map_with_report(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    max_workers: int | None = None,
    parallel: bool = True,
) -> tuple[list[_R], bool]:
    """Order-preserving map; second element reports pool usage.

    Uses a process pool when ``parallel`` and there is more than one
    item; falls back to a deterministic serial loop when parallelism is
    disabled, pointless (0-1 items, one worker), or unavailable in the
    host environment (sandboxes without fork/semaphore support).
    """
    items = list(items)
    workers = max_workers if max_workers is not None else os.cpu_count() or 1
    workers = min(workers, len(items)) if items else 0
    if not parallel or workers < 1 or len(items) <= 1:
        return [fn(item) for item in items], False
    # Fallback covers both environments where pools can't start (no
    # fork/semaphores: OSError) and pools whose workers die mid-run
    # (BrokenProcessPool). Completed futures are discarded on
    # fallback — jobs must be idempotent, which analysis jobs are.
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [f.result() for f in futures], True
    except (OSError, BrokenProcessPool):
        return [fn(item) for item in items], False


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    max_workers: int | None = None,
    parallel: bool = True,
) -> list[_R]:
    """Map ``fn`` over ``items`` on the process pool, preserving order."""
    return _map_with_report(fn, items, max_workers, parallel)[0]


def budgeted_parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    budget: float | None = None,
    max_workers: int | None = None,
    parallel: bool = True,
    chunk_size: int | None = None,
) -> tuple[list[_R], bool, bool]:
    """Order-preserving parallel map under a wall-clock budget.

    Items are dispatched in chunks (default: two pool-fulls) so a
    budget check can run between chunks; chunks already dispatched run
    to completion, which keeps results deterministic for a given
    (items, budget-crossing chunk) pair. Returns ``(results,
    budget_exhausted, used_pool)`` — ``results`` covers the completed
    prefix of ``items`` only. ``budget=None`` processes everything.

    The validator's fuzz runner uses this for its {seed x shape x
    model} matrix; any idempotent job list works.
    """
    items = list(items)
    workers = max_workers if max_workers is not None else os.cpu_count() or 1
    chunk = chunk_size if chunk_size is not None else max(4, 2 * workers)
    results: list[_R] = []
    used_pool = False
    start = time.perf_counter()
    for offset in range(0, len(items), chunk):
        chunk_results, chunk_pool = _map_with_report(
            fn, items[offset : offset + chunk], max_workers, parallel
        )
        results.extend(chunk_results)
        used_pool = used_pool or chunk_pool
        if (
            budget is not None
            and time.perf_counter() - start >= budget
            and offset + chunk < len(items)
        ):
            return results, True, used_pool
    return results, False, used_pool


class BatchRunner:
    """Analyze a job matrix in parallel with result caching.

    ``max_workers=None`` uses the host CPU count. ``parallel=False``
    forces the deterministic serial path. Either way the returned list
    matches job-submission order. ``used_pool`` reports whether the
    most recent :meth:`run` actually dispatched to a process pool.
    Results are kept in memory by content key and written through to
    ``store`` when one is given.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        parallel: bool = True,
        store: BlobStore | None = None,
    ) -> None:
        self.max_workers = max_workers
        self.parallel = parallel
        self.store = store
        self._results: dict[str, BatchResult] = {}
        self.used_pool = False

    def _cached(self, key: str) -> BatchResult | None:
        result = self._results.get(key)
        if result is None and self.store is not None:
            result = self.store.load(RESULT_KIND, key, BatchResult.from_json)
            if result is not None:
                self._results[key] = result
        return result

    def run(self, jobs: Sequence[BatchJob]) -> list[BatchResult]:
        jobs = list(jobs)
        results: list[BatchResult | None] = [None] * len(jobs)
        pending: list[tuple[int, BatchJob]] = []
        for i, job in enumerate(jobs):
            hit = self._cached(job.content_key())
            if hit is not None:
                results[i] = replace(hit, cached=True)
            else:
                pending.append((i, job))

        # One worker invocation per program source, not per cell: the
        # variant/model cells of a program share one compile and one
        # QueryEngine inside the worker.
        groups: dict[tuple[str, str | None], list[tuple[int, BatchJob]]] = {}
        for i, job in pending:
            groups.setdefault((job.program, job.source), []).append((i, job))
        group_list = list(groups.values())
        computed, self.used_pool = _map_with_report(
            execute_job_group,
            [tuple(job for _, job in group) for group in group_list],
            max_workers=self.max_workers,
            parallel=self.parallel,
        )
        for group, group_results in zip(group_list, computed):
            for (i, _), result in zip(group, group_results):
                self._results[result.key] = result
                if self.store is not None:
                    self.store.put(RESULT_KIND, result.key, result.to_json())
                results[i] = result
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def run_matrix(
        self,
        programs: Iterable[str] | None = None,
        variants: Iterable[str | PipelineVariant] | None = None,
        models: Iterable[str] | None = None,
        arch: str | None = None,
        synthesis: str = "greedy",
    ) -> list[BatchResult]:
        """Cross product in stable (program, variant, model) order.

        Defaults: all 17 registry programs × all three variants ×
        x86-TSO. ``arch`` overrides the per-model default backend used
        for flavored lowering costs; ``synthesis`` selects which
        strategy's cost lands in each cell's ``fence_cost`` (both are
        reported regardless).
        """
        from repro.programs.registry import all_programs

        program_names = (
            list(programs) if programs is not None else list(all_programs())
        )
        known_variants = pipeline_variant_keys()
        variant_values = [
            v.value if isinstance(v, PipelineVariant) else v
            for v in (variants if variants is not None else list(known_variants))
        ]
        model_names = list(models) if models is not None else ["x86-tso"]
        for value in variant_values:
            if value not in known_variants:
                raise KeyError(
                    f"unknown variant {value!r}; "
                    f"known: {', '.join(known_variants)}"
                )
        for name in model_names:
            if name not in model_keys():
                raise KeyError(
                    f"unknown model {name!r}; known: {', '.join(model_keys())}"
                )
        from repro.core.pipeline import SYNTHESIS_MODES

        if synthesis not in SYNTHESIS_MODES:
            raise KeyError(
                f"unknown synthesis {synthesis!r}; "
                f"known: {', '.join(SYNTHESIS_MODES)}"
            )
        jobs = [
            BatchJob(program=p, variant=v, model=m, arch=arch, synthesis=synthesis)
            for p in program_names
            for v in variant_values
            for m in model_names
        ]
        return self.run(jobs)
