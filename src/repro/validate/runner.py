"""Budgeted fuzzing runs: the {seed x shape x variant x model} matrix.

One :class:`FuzzCase` bundles everything a worker needs — the seed and
shape select a generated program deterministically, so only plain data
crosses the process boundary in either direction. Cases fan out over
:func:`repro.engine.batch.budgeted_parallel_map`; the wall-clock budget
is checked between chunks, so ``--budget`` bounds a run without
tearing down mid-case work.

:func:`run_fuzz` aggregates the cases straight into the wire
:class:`repro.api.FuzzReport`, the one fuzz report type; surfaced as
``python -m repro fuzz`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.api.reports import FuzzProblem, FuzzReport, FuzzViolation
from repro.engine.batch import budgeted_parallel_map
from repro.validate.generator import SHAPES, generate_program
from repro.registry.models import weak_model_keys
from repro.registry.variants import detection_variant_keys, trusted_variant_keys
from repro.validate.oracle import (
    OracleReport,
    run_oracle,
    tso_breaks_unfenced,
)
from repro.validate.shrink import shrink_counterexample, to_litmus_snippet


@dataclass(frozen=True)
class FuzzCase:
    """One unit of fuzzing work: a generated program on one model."""

    seed: int
    shape: str
    model: str = "x86-tso"
    #: () = the live trusted set at execution time.
    variants: tuple[str, ...] = ()
    max_states: int = 1_000_000
    shrink: bool = True


@dataclass(frozen=True)
class FuzzCaseResult:
    """Everything one case produced, reduced to plain data."""

    seed: int
    shape: str
    model: str
    name: str
    threads: int
    source_lines: int
    elapsed: float
    report: OracleReport | None = None
    violations: tuple[FuzzViolation, ...] = ()
    error: str | None = None

    def to_payload(self) -> dict:
        payload = {
            "seed": self.seed,
            "shape": self.shape,
            "model": self.model,
            "name": self.name,
            "threads": self.threads,
            "source_lines": self.source_lines,
            "elapsed": self.elapsed,
            "error": self.error,
            "report": asdict(self.report) if self.report is not None else None,
            "violations": [asdict(v) for v in self.violations],
        }
        return payload


def execute_fuzz_case(case: FuzzCase) -> FuzzCaseResult:
    """Generate, check, and (on violation) shrink one case.

    Top-level and exception-tight so a bad generated program turns
    into a recorded error instead of poisoning the whole pool run.
    """
    start = time.perf_counter()
    program = None
    try:
        program = generate_program(case.seed, case.shape)
        report = run_oracle(
            program.source,
            program.name,
            variants=case.variants or None,
            model=case.model,
            sync_globals=program.sync_globals,
            max_states=case.max_states,
        )
        violations = []
        for verdict in report.violations:
            if case.shrink:
                shrunk = shrink_counterexample(
                    program.source,
                    program.name,
                    verdict.variant,
                    case.model,
                    program.sync_globals,
                    max_states=case.max_states,
                )
                source, checks = shrunk.source, shrunk.checks
            else:
                source, checks = program.source, 0
            # Stamp the snippet with the *emitted* source's own TSO
            # verdict: shrinking (or finding the violation on PSO) can
            # leave the original report's flag wrong for this source.
            breaks_tso = tso_breaks_unfenced(
                source, program.name, case.max_states
            )
            violations.append(
                FuzzViolation(
                    seed=case.seed,
                    shape=case.shape,
                    model=case.model,
                    variant=verdict.variant,
                    source=source,
                    source_lines=sum(
                        1 for line in source.splitlines() if line.strip()
                    ),
                    snippet=to_litmus_snippet(
                        f"{program.name}-{verdict.variant}",
                        source,
                        program.sync_globals,
                        description=f"shrunk fuzzer counterexample: "
                        f"{verdict.variant} placement misses a needed "
                        f"fence on {case.model}",
                        tso_breaks_unfenced=(
                            breaks_tso
                            if breaks_tso is not None
                            else report.weak_breaks_unfenced
                        ),
                        notes=f"shape {case.shape}, seed {case.seed}",
                    ),
                    shrink_checks=checks,
                )
            )
        return FuzzCaseResult(
            seed=case.seed,
            shape=case.shape,
            model=case.model,
            name=program.name,
            threads=program.threads,
            source_lines=program.source_lines,
            elapsed=time.perf_counter() - start,
            report=report,
            violations=tuple(violations),
        )
    except Exception as exc:  # noqa: BLE001 - worker robustness boundary
        return FuzzCaseResult(
            seed=case.seed,
            shape=case.shape,
            model=case.model,
            name=program.name if program is not None else "",
            threads=program.threads if program is not None else 0,
            source_lines=program.source_lines if program is not None else 0,
            elapsed=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )


def _variant_summary(
    variants: tuple[str, ...], results: list[FuzzCaseResult]
) -> dict[str, dict]:
    """Per-variant soundness and precision aggregates."""
    summary: dict[str, dict] = {
        v: {
            "checked": 0,
            "violations": 0,
            "restored_sc": 0,
            "full_fences": 0,
            "fences_saved": 0,
        }
        for v in variants
    }
    for case in results:
        if case.report is None:
            continue
        for verdict in case.report.verdicts:
            row = summary[verdict.variant]
            row["checked"] += 1
            row["violations"] += 1 if verdict.violation else 0
            row["restored_sc"] += 1 if verdict.restores_sc else 0
            row["full_fences"] += verdict.full_fences
            row["fences_saved"] += verdict.fences_saved
    for row in summary.values():
        row["mean_fences_saved"] = (
            row["fences_saved"] / row["checked"] if row["checked"] else 0.0
        )
    return summary


def run_fuzz(
    seeds: int,
    shapes: tuple[str, ...] = SHAPES,
    variants: tuple[str, ...] | None = None,
    models: tuple[str, ...] = ("x86-tso",),
    budget: float | None = None,
    jobs: int | None = None,
    parallel: bool = True,
    shrink: bool = True,
    max_states: int = 1_000_000,
) -> FuzzReport:
    """Run the {seed x shape x variant x model} matrix, budget-bounded.

    Case order is deterministic (seed-major), so two runs with the same
    arguments check the same programs — the budget only decides how far
    down the list a run gets.
    """
    if variants is None:  # default: the live trusted set
        variants = trusted_variant_keys()
    for shape in shapes:
        if shape not in SHAPES:
            raise KeyError(
                f"unknown shape {shape!r}; known: {', '.join(SHAPES)}"
            )
    # Validated against the live registry (not an import-time snapshot)
    # so detectors registered after import are fuzzable immediately.
    known_variants = detection_variant_keys()
    for variant in variants:
        if variant not in known_variants:
            raise KeyError(
                f"unknown variant {variant!r}; "
                f"known: {', '.join(known_variants)}"
            )
    for model in models:
        if model not in weak_model_keys():
            raise KeyError(
                f"unknown model {model!r}; known: {', '.join(weak_model_keys())}"
            )
    cases = [
        FuzzCase(
            seed=seed,
            shape=shape,
            model=model,
            variants=tuple(variants),
            max_states=max_states,
            shrink=shrink,
        )
        for seed in range(seeds)
        for shape in shapes
        for model in models
    ]
    start = time.perf_counter()
    results, exhausted, used_pool = budgeted_parallel_map(
        execute_fuzz_case,
        cases,
        budget=budget,
        max_workers=jobs,
        parallel=parallel,
    )
    wall = time.perf_counter() - start
    errors = [case for case in results if case.error is not None]
    incomplete = [
        case
        for case in results
        if case.report is not None and not case.report.complete
    ]
    return FuzzReport(
        seeds=seeds,
        shapes=tuple(shapes),
        variants=tuple(variants),
        models=tuple(models),
        budget=budget,
        cases_run=len(results),
        cases_skipped=len(cases) - len(results),
        errors=len(errors),
        incomplete=len(incomplete),
        budget_exhausted=exhausted,
        used_pool=used_pool,
        wall=wall,
        variant_summary=_variant_summary(tuple(variants), results),
        violations=tuple(v for case in results for v in case.violations),
        problems=tuple(
            [
                FuzzProblem("error", c.shape, c.seed, c.model, c.error or "")
                for c in errors
            ]
            + [
                FuzzProblem(
                    "incomplete", c.shape, c.seed, c.model, c.report.skipped or ""
                )
                for c in incomplete
            ]
        ),
        cases=tuple(case.to_payload() for case in results),
    )
