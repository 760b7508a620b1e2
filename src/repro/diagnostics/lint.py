"""Lint orchestration: run registered passes, assemble the result.

:func:`run_lint` is the engine-level entry point — the API session and
CLI front it with the schema-versioned ``LintRequest``/``LintReport``
wire pair. It takes a compiled program plus its (possibly warm)
:class:`~repro.query.engine.QueryEngine`, so a long-lived session
re-lints incrementally: the race queries live in the same engine as
the analysis facts and invalidate at function granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.machine_models import MemoryModel, X86_TSO
from repro.diagnostics.findings import (
    Finding,
    FindingCounts,
    severity_rank,
    sort_findings,
)
from repro.diagnostics.passes import LINT_PASSES, LintContext
from repro.ir.function import Program
from repro.query.engine import QueryEngine

if TYPE_CHECKING:  # runtime-lazy: repro.arch itself imports repro.core
    from repro.arch.backend import ArchBackend


@dataclass(frozen=True)
class LintResult:
    """Everything one lint run established (pre-wire form)."""

    variant: str
    model: str
    passes: tuple[str, ...]
    findings: tuple[Finding, ...]
    counts: FindingCounts
    confirmed_races: int
    refuted_candidates: int
    unknown_candidates: int
    #: True when the witness search exhausted the interleavings, False
    #: when it hit its bounds, None when confirmation was off.
    explorer_complete: bool | None
    #: SC traces the witness search enumerated; None when confirmation
    #: was off.
    traces_checked: int | None
    #: The linted source becomes fuzz-seed material when the explorer
    #: found a race the static gate missed.
    fuzz_seed: bool = False

    def worst_severity(self) -> str | None:
        worst = None
        for finding in self.findings:
            if worst is None or severity_rank(finding.severity) > severity_rank(
                worst
            ):
                worst = finding.severity
        return worst

    def exit_code(self, fail_on: str) -> int:
        """0/1 gate for ``--fail-on``; ``"never"`` always passes."""
        if fail_on == "never":
            return 0
        return 1 if self.counts.at_least(fail_on) else 0


def run_lint(
    program: Program,
    context: QueryEngine,
    variant: str = "address+control",
    model: MemoryModel = X86_TSO,
    arch: "ArchBackend | None" = None,
    passes: tuple[str, ...] = (),
    confirm: bool = True,
    max_traces: int = 400,
    max_actions: int = 400,
) -> LintResult:
    """Run ``passes`` (default: all registered) over ``program``."""
    import repro.races  # noqa: F401  (registers the race queries)

    selected = passes or LINT_PASSES.keys()
    ctx = LintContext(
        program=program,
        context=context,
        variant=variant,
        model=model,
        arch=arch,
        confirm=confirm,
        max_traces=max_traces,
        max_actions=max_actions,
    )
    findings: list[Finding] = []
    for key in selected:
        findings.extend(LINT_PASSES.get(key).run(ctx))
    ordered = sort_findings(findings)
    return LintResult(
        variant=variant,
        model=model.name,
        passes=tuple(selected),
        findings=ordered,
        counts=FindingCounts.of(ordered),
        confirmed_races=ctx.extras.get("confirmed_races", 0),
        refuted_candidates=ctx.extras.get("refuted_candidates", 0),
        unknown_candidates=ctx.extras.get("unknown_candidates", 0),
        explorer_complete=ctx.extras.get("explorer_complete"),
        traces_checked=ctx.extras.get("traces_checked"),
        fuzz_seed=bool(ctx.extras.get("fuzz_seed")),
    )
