"""Structured diagnostics: findings with stable codes and IR spans.

A :class:`Finding` is one diagnostic a lint pass produced: a stable
machine-readable code (``RACE001``, ``FENCE101``, ...), a severity, a
human message, and the IR :class:`SourceSpan`\\ s it anchors to. Both
types are flat frozen dataclasses so they cross the wire unchanged
inside the schema-versioned lint report.

Stable codes shipped by the built-in passes:

========== ======== ====================================================
code       severity meaning
========== ======== ====================================================
RACE001    varies   statically unordered conflicting access pair
                    (``error`` once explorer-confirmed, ``warning``
                    unchecked, ``note`` when exhaustively refuted)
RACE002    error    dynamic race the static DRF gate missed — a
                    detector gap; the program becomes a fuzz seed
FENCE101   note     redundant fence: no memory access separates it
                    from the previous barrier
FENCE102   error    flavored fence too weak for the orderings crossing
                    its cut (e.g. ``eieio`` guarding a ``w->r`` cut)
FENCE103   warning  pointer publish without a fence between the
                    pointee's initialization and the publishing store,
                    on a model that reorders ``w->w``
FENCE104   note     the greedy count-minimizing fence plan is strictly
                    costlier than the min-cost synthesis on the
                    requested arch (the finding names each fence
                    where the two plans differ, ``label@gap flavor
                    (greedy: flavor)``)
========== ======== ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.printer import format_instruction

#: Severities, weakest first; ``--fail-on`` thresholds index into this.
SEVERITIES: tuple[str, ...] = ("note", "warning", "error")


def severity_rank(severity: str) -> int:
    """Position in :data:`SEVERITIES`; raises on unknown severities."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        raise ValueError(
            f"unknown severity {severity!r}; known: {', '.join(SEVERITIES)}"
        ) from None


@dataclass(frozen=True)
class SourceSpan:
    """One IR location: an instruction inside a function's block."""

    function: str
    block: str
    index: int
    uid: int
    #: The instruction's printed form, so a report is readable without
    #: the IR in hand.
    text: str

    def render(self) -> str:
        return f"{self.function}/{self.block}[{self.index}]: {self.text}"


def span_of(func: Function, inst: Instruction) -> SourceSpan:
    """The span of a finalized instruction of ``func``."""
    block_index, index = func.position(inst)
    return SourceSpan(
        function=func.name,
        block=func.blocks[block_index].label,
        index=index,
        uid=inst.uid,
        text=format_instruction(inst),
    )


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a lint pass."""

    code: str
    severity: str
    message: str
    spans: tuple[SourceSpan, ...] = ()
    #: Registry key of the pass that produced it.
    pass_id: str = ""
    #: Explorer verdict for race findings: ``confirmed`` / ``refuted``
    #: / ``unknown``; empty for purely static findings.
    verdict: str = ""
    #: Rendered witness interleaving (confirmed races only).
    witness: str = ""

    def __post_init__(self) -> None:
        severity_rank(self.severity)  # validate eagerly

    def render(self) -> str:
        lines = [f"{self.severity} {self.code}: {self.message}"]
        for span in self.spans:
            lines.append(f"    at {span.render()}")
        if self.verdict:
            lines.append(f"    verdict: {self.verdict}")
        if self.witness:
            lines.append("    witness:")
            lines.extend(
                "    " + line for line in self.witness.splitlines()
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class FindingCounts:
    """Findings tallied by severity (report summary line)."""

    note: int = 0
    warning: int = 0
    error: int = 0

    @staticmethod
    def of(findings: tuple[Finding, ...]) -> "FindingCounts":
        tally = {s: 0 for s in SEVERITIES}
        for finding in findings:
            tally[finding.severity] += 1
        return FindingCounts(**tally)

    @property
    def total(self) -> int:
        return self.note + self.warning + self.error

    def at_least(self, severity: str) -> int:
        """How many findings sit at or above ``severity``."""
        floor = severity_rank(severity)
        return sum(
            count
            for s, count in (
                ("note", self.note),
                ("warning", self.warning),
                ("error", self.error),
            )
            if severity_rank(s) >= floor
        )


def sort_findings(findings: list[Finding]) -> tuple[Finding, ...]:
    """Most severe first; program order within a severity."""
    return tuple(
        sorted(
            findings,
            key=lambda f: (
                -severity_rank(f.severity),
                f.code,
                f.spans[0].function if f.spans else "",
                f.spans[0].uid if f.spans else -1,
            ),
        )
    )

