"""Schema-versioned request/report dataclasses — the wire format.

Every :class:`~repro.api.session.Session` operation is described by a
request and answered by a report; both are frozen dataclasses that
round-trip through JSON byte-identically (``to_json -> from_json ->
to_json`` is stable) and carry a ``kind`` plus ``schema_version``
envelope. Decoding rejects unknown kinds, unknown schema versions, and
unknown or missing fields with a :class:`SchemaError`, so serialized
reports are durable artifacts: a report written by one build either
reads back exactly or fails loudly, never silently reinterpreted.

``REPORT_KINDS`` is a registry of every wire type by its ``kind``
string; :func:`load_report` dispatches any serialized payload through
it (the ``repro report`` command is a thin wrapper). Reports also know
how to :meth:`render` themselves as the human-readable tables the CLI
prints, so the CLI, saved artifacts, and diffs share one rendering
path.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping

from repro.registry.core import Registry
from repro.registry.sources import ProgramSpec
from repro.util.text import format_table

if TYPE_CHECKING:  # runtime-lazy: repro.diagnostics reaches repro.core
    from repro.diagnostics.findings import Finding
    from repro.query.engine import QueryStats


class SchemaError(ValueError):
    """A serialized payload this build cannot (or must not) read."""


#: kind string -> wire dataclass; ``load_report`` dispatches through it.
REPORT_KINDS: Registry[type] = Registry("report kind")


def register_report(cls: type) -> type:
    """Class decorator: register a wire type under its ``KIND``."""
    REPORT_KINDS.register(cls.KIND, cls)
    return cls


class _FieldNames(dict):
    """Each class's dataclass field names, looked up once per class
    (``None`` for a class that is not a dataclass)."""

    def __missing__(self, cls: type) -> tuple[str, ...] | None:
        names = None
        if dataclasses.is_dataclass(cls):
            names = tuple(f.name for f in dataclasses.fields(cls))
        self[cls] = names
        return names


_FIELD_NAMES = _FieldNames()


def _encode(value: Any) -> Any:
    if isinstance(value, ProgramSpec):
        return value.to_payload()
    names = _FIELD_NAMES[type(value)]
    if names is not None:
        return {name: _encode(getattr(value, name)) for name in names}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decode_plain(value: Any) -> Any:
    """Default decode: JSON arrays become tuples (dataclass equality)."""
    if isinstance(value, list):
        return tuple(_decode_plain(v) for v in value)
    if isinstance(value, dict):
        return {k: _decode_plain(v) for k, v in value.items()}
    return value


def _construct(cls: type, item: Any) -> Any:
    """Build a nested dataclass from payload data, failing with
    :class:`SchemaError` (not a raw TypeError) on malformed shapes."""
    if not isinstance(item, dict):
        raise SchemaError(
            f"expected an object for {cls.__name__}, "
            f"got {type(item).__name__}"
        )
    try:
        return cls(**item)
    except TypeError as exc:
        raise SchemaError(
            f"malformed {cls.__name__} payload: {exc}"
        ) from None


def _tuple_of(cls: type) -> Callable[[Any], tuple]:
    def decode(value: Any) -> tuple:
        if not isinstance(value, list):
            raise SchemaError(
                f"expected an array of {cls.__name__} objects, "
                f"got {type(value).__name__}"
            )
        return tuple(_construct(cls, item) for item in value)

    return decode


def _decode_spec(value: Any) -> ProgramSpec:
    return _construct(ProgramSpec, value)


def _optional(decode: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Wrap a field decoder so JSON ``null`` stays ``None``."""

    def wrapped(value: Any) -> Any:
        return None if value is None else decode(value)

    return wrapped


@dataclass(frozen=True)
class CacheStats:
    """Analysis-cache counters for one request (opt-in via ``stats``).

    There is one meter: the program's query engine. ``hits`` counts
    the lookups served from its memory while answering the request,
    ``misses`` the lookups that were not (restored from disk or
    computed), and ``by_fact`` breaks the misses down per query kind.
    Every lookup counts, nested ones included. ``analyze``, ``lint``
    and each batch cell build these from a
    :meth:`~repro.query.engine.QueryStats.since` delta. A warm query
    cache shows up as a high hit count and an empty ``by_fact``.
    """

    hits: int
    misses: int
    by_fact: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, delta: "QueryStats") -> "CacheStats":
        """The counters of a :meth:`QueryStats.since` delta."""
        return cls(delta.hits, delta.misses, dict(delta.by_query_misses))

    def render(self) -> str:
        detail = ", ".join(
            f"{name}: {count}" for name, count in sorted(self.by_fact.items())
        )
        return (
            f"cache: {self.hits} hits, {self.misses} misses"
            + (f" ({detail})" if detail else "")
        )


class WirePayload:
    """Mixin giving a frozen dataclass the versioned JSON envelope."""

    KIND: ClassVar[str]
    SCHEMA_VERSION: ClassVar[int]
    #: field name -> decoder for nested dataclass fields.
    _DECODERS: ClassVar[dict[str, Callable[[Any], Any]]] = {}

    def to_payload(self) -> dict:
        payload: dict[str, Any] = {
            "kind": self.KIND,
            "schema_version": self.SCHEMA_VERSION,
        }
        for name in _FIELD_NAMES[type(self)]:
            payload[name] = _encode(getattr(self, name))
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    @classmethod
    def check_envelope(cls, payload: Mapping) -> None:
        kind = payload.get("kind")
        if kind != cls.KIND:
            raise SchemaError(
                f"payload kind {kind!r} cannot be read as {cls.KIND!r}"
            )
        version = payload.get("schema_version")
        if version != cls.SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported {cls.KIND} schema_version {version!r}: this "
                f"build reads version {cls.SCHEMA_VERSION}; regenerate the "
                "report or upgrade the reader"
            )

    @classmethod
    def from_payload(cls, payload: Mapping):
        cls.check_envelope(payload)
        names = set(_FIELD_NAMES[cls])
        data = {k: v for k, v in payload.items() if k not in ("kind", "schema_version")}
        unknown = sorted(set(data) - names)
        if unknown:
            raise SchemaError(
                f"{cls.KIND} payload carries unknown fields: {', '.join(unknown)}"
            )
        missing = sorted(names - set(data))
        if missing:
            raise SchemaError(
                f"{cls.KIND} payload is missing fields: {', '.join(missing)}"
            )
        decoded = {
            name: cls._DECODERS.get(name, _decode_plain)(value)
            for name, value in data.items()
        }
        return cls(**decoded)

    @classmethod
    def from_json(cls, text: str):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"payload is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise SchemaError("payload must be a JSON object")
        return cls.from_payload(payload)

    def render(self) -> str:
        """Human-readable form; requests default to pretty JSON."""
        return self.to_json()


def load_report(text: str) -> WirePayload:
    """Deserialize any wire payload, dispatching on its ``kind``."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"payload is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise SchemaError("payload must be a JSON object with a 'kind' field")
    try:
        cls = REPORT_KINDS.get(payload["kind"])
    except KeyError as exc:
        # The documented contract: every unreadable payload raises
        # SchemaError — unknown kinds included.
        raise SchemaError(exc.args[0]) from None
    return cls.from_payload(payload)


def _diff_values(a: Any, b: Any, path: str) -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        return diff_payloads(a, b, prefix=f"{path}.")
    if isinstance(a, list) and isinstance(b, list):
        lines: list[str] = []
        for i in range(max(len(a), len(b))):
            item = f"{path}[{i}]"
            if i >= len(a):
                lines.append(f"+ {item}: {json.dumps(b[i], sort_keys=True)}")
            elif i >= len(b):
                lines.append(f"- {item}: {json.dumps(a[i], sort_keys=True)}")
            else:
                lines.extend(_diff_values(a[i], b[i], item))
        return lines
    if a != b:
        return [
            f"~ {path}: {json.dumps(a, sort_keys=True)} -> "
            f"{json.dumps(b, sort_keys=True)}"
        ]
    return []


def diff_payloads(a: Mapping, b: Mapping, prefix: str = "") -> list[str]:
    """Recursive field-level diff of two payloads, as readable lines."""
    lines: list[str] = []
    for key in sorted(set(a) | set(b)):
        path = f"{prefix}{key}"
        if key not in a:
            lines.append(f"+ {path}: {json.dumps(b[key], sort_keys=True)}")
        elif key not in b:
            lines.append(f"- {path}: {json.dumps(a[key], sort_keys=True)}")
        else:
            lines.extend(_diff_values(a[key], b[key], path))
    return lines


def _model_display(key: str) -> str:
    from repro.registry.models import MODELS

    return MODELS.get(key).display if key in MODELS else key


# =========================================================================
# analyze
# =========================================================================


@register_report
@dataclass(frozen=True)
class AnalyzeRequest(WirePayload):
    """Run the fence-placement pipeline on one program."""

    KIND: ClassVar[str] = "analyze-request"
    SCHEMA_VERSION: ClassVar[int] = 4
    _DECODERS: ClassVar[dict] = {"program": _decode_spec}

    program: ProgramSpec
    variant: str = "control"
    model: str = "x86-tso"
    #: None = use the session's setting.
    interprocedural: bool | None = None
    annotations: bool = False
    emit_ir: bool = False
    #: Attach this request's analysis-cache counters to the report.
    stats: bool = False
    #: Arch backend key for flavored fence lowering; None = generic
    #: full fences (the pre-arch behaviour, byte-identical output).
    arch: str | None = None
    #: "greedy" (count-minimizing, the paper's planner) or "optimal"
    #: (min-cost synthesis via repro.synth; needs an arch).
    synthesis: str = "greedy"


@dataclass(frozen=True)
class FunctionFences:
    """Per-function pipeline summary inside an :class:`AnalyzeReport`."""

    name: str
    escaping_reads: int
    sync_reads: int
    orderings: int
    pruned: int
    full_fences: int
    compiler_fences: int


@register_report
@dataclass(frozen=True)
class AnalyzeReport(WirePayload):
    """The pipeline's whole-program result as a wire artifact."""

    KIND: ClassVar[str] = "analyze-report"
    SCHEMA_VERSION: ClassVar[int] = 4
    _DECODERS: ClassVar[dict] = {
        "functions": _tuple_of(FunctionFences),
        "cache_stats": _optional(lambda value: _construct(CacheStats, value)),
    }

    program: str
    variant: str
    model: str
    interprocedural: bool
    functions: tuple[FunctionFences, ...]
    escaping_reads: int
    sync_reads: int
    orderings: int
    pruned_orderings: int
    surviving_fraction: float
    full_fences: int
    compiler_fences: int
    annotations: str | None = None
    fenced_ir: str | None = None
    #: Filled only when the request asked for ``stats``.
    cache_stats: CacheStats | None = None
    #: Flavored-lowering summary, filled when the request named an arch.
    arch: str | None = None
    fence_cost: int | None = None
    #: flavor name -> count across the program (entry fences included).
    flavors: dict[str, int] | None = None
    #: Synthesis strategy behind ``fence_cost``/``flavors``.
    synthesis: str = "greedy"
    #: The greedy plan's lowered cost, filled alongside an "optimal"
    #: ``fence_cost`` so reports show the saving.
    greedy_cost: int | None = None

    def render(self) -> str:
        rows = [
            [
                f.name,
                f.escaping_reads,
                f.sync_reads,
                f.orderings,
                f.pruned,
                f.full_fences,
                f.compiler_fences,
            ]
            for f in self.functions
        ]
        parts = [
            format_table(
                ["function", "esc reads", "acquires", "orderings", "pruned",
                 "mfences", "directives"],
                rows,
                title=f"{self.program}: {self.variant} on {self.model}",
            ),
            f"\ntotal: {self.sync_reads}/{self.escaping_reads} "
            f"reads marked acquire, {self.full_fences} full fences, "
            f"{self.compiler_fences} compiler directives",
        ]
        if self.arch is not None:
            detail = ", ".join(
                f"{name}: {count}"
                for name, count in sorted((self.flavors or {}).items())
            )
            line = (
                f"arch {self.arch}: lowered cost {self.fence_cost} cycles"
                + (f" ({detail})" if detail else "")
            )
            if self.synthesis == "optimal" and self.greedy_cost is not None:
                line += (
                    f" [optimal; greedy would cost {self.greedy_cost}]"
                )
            parts.append(line)
        if self.cache_stats is not None:
            parts.append(self.cache_stats.render())
        if self.annotations is not None:
            parts.append("\n" + self.annotations)
        if self.fenced_ir is not None:
            parts.append("\n--- fenced IR ---\n" + self.fenced_ir)
        return "\n".join(parts)


# =========================================================================
# check
# =========================================================================


@register_report
@dataclass(frozen=True)
class CheckRequest(WirePayload):
    """Model-check SC vs a weak model, unfenced and per variant."""

    KIND: ClassVar[str] = "check-request"
    SCHEMA_VERSION: ClassVar[int] = 3
    _DECODERS: ClassVar[dict] = {"program": _decode_spec}

    program: ProgramSpec
    model: str = "x86-tso"
    #: () = every non-null registry variant, in registration order.
    variants: tuple[str, ...] = ()
    #: None = use the session's state bound.
    max_states: int | None = None
    #: None = use the session's setting.
    interprocedural: bool | None = None
    #: Arch backend lowering the variant placements before exploration.
    #: None = the model's default (its own catalog on flavor-honoring
    #: explorers like arm/power, generic FULL elsewhere). Naming a
    #: catalog the model's explorer cannot give kill-set semantics to
    #: is refused with a ValueError.
    arch: str | None = None
    #: Fence synthesis strategy the checked placements use ("greedy"
    #: or "optimal"); "optimal" only changes flavored placements.
    synthesis: str = "greedy"


@dataclass(frozen=True)
class VariantCheck:
    """One variant's fenced exploration inside a :class:`CheckReport`."""

    variant: str
    full_fences: int
    weak_outcomes: int
    restored_sc: bool
    #: Whether this variant's fenced exploration exhausted the state
    #: space. A bounded run proves nothing: ``restored_sc`` is then
    #: False by construction, never a truncated-set comparison.
    complete: bool = True


@register_report
@dataclass(frozen=True)
class CheckReport(WirePayload):
    """Differential model-checking verdicts as a wire artifact."""

    KIND: ClassVar[str] = "check-report"
    SCHEMA_VERSION: ClassVar[int] = 4
    _DECODERS: ClassVar[dict] = {"variants": _tuple_of(VariantCheck)}

    program: str
    model: str
    max_states: int
    complete: bool
    skipped: str | None
    sc_outcomes: int
    weak_outcomes_unfenced: int
    weak_breaks_unfenced: bool
    variants: tuple[VariantCheck, ...]
    #: Arch backend the placements were lowered with (None = generic).
    arch: str | None = None
    #: Synthesis strategy behind the checked placements.
    synthesis: str = "greedy"

    @property
    def failures(self) -> int:
        return sum(
            1 for v in self.variants if not (v.complete and v.restored_sc)
        )

    @property
    def all_restored(self) -> bool:
        return (
            self.complete
            and all(v.complete for v in self.variants)
            and self.failures == 0
        )

    @property
    def exit_code(self) -> int:
        if not self.complete or any(not v.complete for v in self.variants):
            return 2
        return 0 if self.failures == 0 else 1

    def render(self) -> str:
        if not self.complete:
            return "state space exceeded --max-states; results incomplete"
        display = _model_display(self.model)
        lines = [
            f"SC outcomes: {self.sc_outcomes}",
            f"{display} unfenced: {self.weak_outcomes_unfenced} outcomes "
            f"({'NON-SC BEHAVIOUR' if self.weak_breaks_unfenced else 'SC-equal'})",
        ]
        for v in self.variants:
            line = (
                f"{display} + {v.variant:16s}: {v.full_fences} mfences, "
                f"SC restored: {v.restored_sc}"
            )
            if not v.complete:
                line += " (BOUNDED: state space exceeded --max-states)"
            lines.append(line)
        return "\n".join(lines)


# =========================================================================
# simulate
# =========================================================================


@register_report
@dataclass(frozen=True)
class SimulateRequest(WirePayload):
    """Run the timed TSO simulator under one fence placement."""

    KIND: ClassVar[str] = "simulate-request"
    SCHEMA_VERSION: ClassVar[int] = 3
    _DECODERS: ClassVar[dict] = {"program": _decode_spec}

    program: ProgramSpec
    #: A registry variant key, or "manual" for the expert placement.
    placement: str = "control"
    #: Memory model driving fence *placement* (the timed machine is TSO).
    model: str = "x86-tso"
    #: Global names (array prefixes included) to report after the run.
    observe_globals: tuple[str, ...] = ()
    #: Arch backend: placements are lowered to its flavors and the
    #: timed machine prices fences with its cost model.
    arch: str | None = None
    #: Fence synthesis strategy for the simulated placement.
    synthesis: str = "greedy"


@register_report
@dataclass(frozen=True)
class SimulateReport(WirePayload):
    """One timed simulation's counters as a wire artifact."""

    KIND: ClassVar[str] = "simulate-report"
    SCHEMA_VERSION: ClassVar[int] = 3

    program: str
    placement: str
    model: str
    cycles: int
    instructions: int
    full_fences_executed: int
    compiler_fences_executed: int
    fence_stall_cycles: int
    #: (tid, ((label, value), ...)) per thread, tid-sorted.
    observations: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]
    #: Every scalar/array slot's final value, name-sorted.
    final_globals: tuple[tuple[str, int], ...]
    observe_globals: tuple[str, ...] = ()
    #: Arch backend whose flavors/costs drove the run (None = x86 TSO
    #: defaults).
    arch: str | None = None
    #: Synthesis strategy behind the simulated placement.
    synthesis: str = "greedy"

    def render(self) -> str:
        arch_note = ""
        if self.arch is not None:
            arch_note = f" (arch {self.arch}, {self.synthesis})"
        lines = [
            f"placement      : {self.placement}" + arch_note,
            f"cycles         : {self.cycles}",
            f"instructions   : {self.instructions}",
            f"mfences run    : {self.full_fences_executed}",
            f"fence stalls   : {self.fence_stall_cycles} cycles",
        ]
        for tid, obs in self.observations:
            if obs:
                rendered = ", ".join(f"{k}={v}" for k, v in obs)
                lines.append(f"observations T{tid}: {rendered}")
        for name in self.observe_globals:
            for k, v in self.final_globals:
                if k == name or k.startswith(name + "["):
                    lines.append(f"{k} = {v}")
        return "\n".join(lines)


# =========================================================================
# batch
# =========================================================================


@register_report
@dataclass(frozen=True)
class BatchRequest(WirePayload):
    """Analyze a {program x variant x model} matrix."""

    KIND: ClassVar[str] = "batch-request"
    SCHEMA_VERSION: ClassVar[int] = 4

    #: () = every corpus program / every non-null variant.
    programs: tuple[str, ...] = ()
    variants: tuple[str, ...] = ()
    models: tuple[str, ...] = ("x86-tso",)
    #: Attach aggregated analysis-cache counters to the report.
    stats: bool = False
    #: Arch backend overriding the per-model default for flavored
    #: lowering costs; None = each model's own registered arch.
    arch: str | None = None
    #: Which strategy's cost lands in each cell's ``fence_cost``
    #: ("greedy" or "optimal"); both costs are reported per cell.
    synthesis: str = "greedy"


@dataclass(frozen=True)
class BatchCell:
    """One analyzed matrix cell inside a :class:`BatchReport`."""

    program: str
    variant: str
    model: str
    key: str
    functions: int
    escaping_reads: int
    sync_reads: int
    orderings: int
    pruned_orderings: int
    surviving_fraction: float
    full_fences: int
    compiler_fences: int
    elapsed: float
    cached: bool
    #: Flavored-lowering cost under the cell's arch backend (None when
    #: the model has no registered arch) and its flavor histogram.
    #: ``fence_cost`` follows the request's synthesis strategy;
    #: ``greedy_cost``/``optimal_cost`` carry both for comparison.
    fence_cost: int | None = None
    flavors: dict[str, int] = field(default_factory=dict)
    greedy_cost: int | None = None
    optimal_cost: int | None = None


@register_report
@dataclass(frozen=True)
class BatchReport(WirePayload):
    """A whole batch run's cells as one wire artifact."""

    KIND: ClassVar[str] = "batch-report"
    SCHEMA_VERSION: ClassVar[int] = 4
    _DECODERS: ClassVar[dict] = {
        "cells": _tuple_of(BatchCell),
        "cache_stats": _optional(lambda value: _construct(CacheStats, value)),
    }

    programs: tuple[str, ...]
    variants: tuple[str, ...]
    models: tuple[str, ...]
    used_pool: bool
    wall: float
    cells: tuple[BatchCell, ...]
    #: Filled only when the request asked for ``stats``.
    cache_stats: CacheStats | None = None
    #: Arch override the request named (None = per-model defaults).
    arch: str | None = None
    #: Synthesis strategy behind each cell's ``fence_cost``.
    synthesis: str = "greedy"

    @property
    def total_full_fences(self) -> int:
        return sum(c.full_fences for c in self.cells)

    @property
    def total_fence_cost(self) -> int:
        return sum(c.fence_cost or 0 for c in self.cells)

    @property
    def total_greedy_cost(self) -> int:
        return sum(c.greedy_cost or 0 for c in self.cells)

    @property
    def total_optimal_cost(self) -> int:
        return sum(c.optimal_cost or 0 for c in self.cells)

    @property
    def cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    def render(self) -> str:
        rows = [
            [
                c.program,
                c.variant,
                c.model,
                c.functions,
                c.escaping_reads,
                c.sync_reads,
                f"{c.orderings}->{c.pruned_orderings}",
                f"{c.surviving_fraction:.1%}",
                c.full_fences,
                c.compiler_fences,
                "-" if c.greedy_cost is None else str(c.greedy_cost),
                "-" if c.optimal_cost is None else str(c.optimal_cost),
                f"{c.elapsed * 1000:.0f}ms",
                "hit" if c.cached else "",
            ]
            for c in self.cells
        ]
        table = format_table(
            ["program", "variant", "model", "fns", "esc reads", "acquires",
             "orderings", "surv", "fences", "directives", "greedy",
             "optimal", "time", "cache"],
            rows,
            title=f"batch: {len(self.cells)} analyses "
            f"({'pool' if self.used_pool else 'serial'}, {self.wall:.2f}s wall)",
        )
        saved = self.total_greedy_cost - self.total_optimal_cost
        text = (
            f"{table}\n\ntotal: {self.total_full_fences} full fences "
            f"({self.total_fence_cost} cycles lowered via {self.synthesis}; "
            f"greedy {self.total_greedy_cost} vs optimal "
            f"{self.total_optimal_cost}, {saved} cycles saved) across "
            f"{len(self.cells)} cells, {self.cache_hits} cache hits"
        )
        if self.cache_stats is not None:
            text += f"\nanalysis {self.cache_stats.render()}"
        return text


# =========================================================================
# lint
# =========================================================================


def _decode_finding(value: Any) -> "Finding":
    # Runtime-lazy import: repro.diagnostics reaches repro.core, which
    # must finish initializing before this module's import chain runs.
    from repro.diagnostics.findings import Finding, SourceSpan

    if not isinstance(value, dict):
        raise SchemaError(
            f"expected an object for Finding, got {type(value).__name__}"
        )
    data = dict(value)
    if "spans" in data:
        data["spans"] = _tuple_of(SourceSpan)(data["spans"])
    return _construct(Finding, data)


def _decode_findings(value: Any) -> tuple:
    if not isinstance(value, list):
        raise SchemaError(
            f"expected an array of Finding objects, got {type(value).__name__}"
        )
    return tuple(_decode_finding(item) for item in value)


@register_report
@dataclass(frozen=True)
class LintRequest(WirePayload):
    """Run the static DRF gate and lint passes on one program."""

    KIND: ClassVar[str] = "lint-request"
    SCHEMA_VERSION: ClassVar[int] = 1
    _DECODERS: ClassVar[dict] = {"program": _decode_spec}

    program: ProgramSpec
    #: Detection variant whose sync reads refine the race candidates.
    variant: str = "address+control"
    model: str = "x86-tso"
    #: Arch backend resolving fence flavors (enables FENCE102).
    arch: str | None = None
    #: () = every registered lint pass, in registration order.
    passes: tuple[str, ...] = ()
    #: Audit race candidates against the bounded SC explorer.
    confirm: bool = True
    max_traces: int = 400
    max_actions: int = 400
    #: Severity threshold for the report's exit code; "never" = always 0.
    fail_on: str = "error"
    #: Attach this request's analysis-cache counters to the report.
    stats: bool = False


@register_report
@dataclass(frozen=True)
class LintReport(WirePayload):
    """One program's findings — the DRF verdict — as a wire artifact."""

    KIND: ClassVar[str] = "lint-report"
    SCHEMA_VERSION: ClassVar[int] = 2
    _DECODERS: ClassVar[dict] = {
        "findings": _decode_findings,
        "cache_stats": _optional(lambda value: _construct(CacheStats, value)),
    }

    program: str
    variant: str
    model: str
    passes: tuple[str, ...]
    findings: tuple[Finding, ...]
    notes: int
    warnings: int
    errors: int
    #: Explorer verdict tally over the race candidates (confirmed
    #: includes RACE002 missed races).
    confirmed_races: int
    refuted_candidates: int
    unknown_candidates: int
    #: Whether the witness search exhausted the interleavings; None
    #: when confirmation was off.
    explorer_complete: bool | None
    #: How many SC traces the witness search actually enumerated; None
    #: when confirmation was off. Distinguishes "bounded after 400
    #: traces" from "bounded after 2" when reading saved reports.
    traces_checked: int | None
    #: The linted source, attached when the explorer found a race the
    #: static gate missed — ready to feed the fuzz harness.
    fuzz_seed: str | None
    fail_on: str = "error"
    arch: str | None = None
    #: Filled only when the request asked for ``stats``.
    cache_stats: CacheStats | None = None

    @property
    def exit_code(self) -> int:
        from repro.diagnostics.findings import severity_rank

        if self.fail_on == "never":
            return 0
        floor = severity_rank(self.fail_on)
        tally = (("note", self.notes), ("warning", self.warnings),
                 ("error", self.errors))
        over = sum(n for s, n in tally if severity_rank(s) >= floor)
        return 1 if over else 0

    def render(self) -> str:
        total = self.notes + self.warnings + self.errors
        header = (
            f"{self.program}: {total} finding{'s' if total != 1 else ''} "
            f"({self.errors} errors, {self.warnings} warnings, "
            f"{self.notes} notes) [{self.variant} on {self.model}]"
        )
        lines = [header]
        if self.explorer_complete is not None:
            verdict = "exhaustive" if self.explorer_complete else "bounded"
            traces = (
                f", {self.traces_checked} traces"
                if self.traces_checked is not None
                else ""
            )
            lines.append(
                f"explorer ({verdict}{traces}): "
                f"{self.confirmed_races} confirmed, "
                f"{self.refuted_candidates} refuted, "
                f"{self.unknown_candidates} unknown"
            )
        if total == 0:
            lines.append("clean: no lint findings; static DRF gate passed")
        for finding in self.findings:
            lines.append(finding.render())
        if self.fuzz_seed is not None:
            lines.append(
                "detector gap: program recorded as a fuzz seed "
                "(see repro.validate.seeds)"
            )
        if self.cache_stats is not None:
            lines.append(self.cache_stats.render())
        return "\n".join(lines)


# =========================================================================
# fuzz
# =========================================================================


@register_report
@dataclass(frozen=True)
class FuzzRequest(WirePayload):
    """Differential fence-validation fuzzing over a seed matrix."""

    KIND: ClassVar[str] = "fuzz-request"
    SCHEMA_VERSION: ClassVar[int] = 1

    seeds: int = 16
    #: () = every generator shape.
    shapes: tuple[str, ...] = ()
    #: () = the trusted variants.
    variants: tuple[str, ...] = ()
    models: tuple[str, ...] = ("x86-tso",)
    budget: float | None = None
    shrink: bool = True
    #: None = use the session's state bound.
    max_states: int | None = None


@dataclass(frozen=True)
class FuzzViolation:
    """One shrunk soundness violation inside a :class:`FuzzReport`."""

    seed: int
    shape: str
    model: str
    variant: str
    source: str  # shrunk (or original, when shrinking is disabled)
    source_lines: int
    snippet: str
    shrink_checks: int


@dataclass(frozen=True)
class FuzzProblem:
    """A case that errored or blew the state bound (soundness unknown)."""

    status: str  # "error" | "incomplete"
    shape: str
    seed: int
    model: str
    detail: str


@register_report
@dataclass(frozen=True)
class FuzzReport(WirePayload):
    """A fuzzing run's aggregate verdicts as a wire artifact, built
    directly by :func:`repro.validate.runner.run_fuzz`.

    The payload keeps the historical ``config`` / ``summary`` /
    ``violations`` / ``cases`` layout of ``repro fuzz --json`` (now
    wrapped in the kind/schema_version envelope), so existing consumers
    of that output keep parsing it.
    """

    KIND: ClassVar[str] = "fuzz-report"
    SCHEMA_VERSION: ClassVar[int] = 1

    seeds: int
    shapes: tuple[str, ...]
    variants: tuple[str, ...]
    models: tuple[str, ...]
    budget: float | None
    cases_run: int
    cases_skipped: int
    errors: int
    incomplete: int
    budget_exhausted: bool
    used_pool: bool
    wall: float
    variant_summary: dict[str, dict]
    violations: tuple[FuzzViolation, ...]
    problems: tuple[FuzzProblem, ...]
    #: Full per-case oracle payloads, already in wire form.
    cases: tuple[dict, ...]

    @property
    def problem_count(self) -> int:
        return self.errors + self.incomplete

    def to_payload(self) -> dict:
        return {
            "kind": self.KIND,
            "schema_version": self.SCHEMA_VERSION,
            "config": {
                "seeds": self.seeds,
                "shapes": _encode(self.shapes),
                "variants": _encode(self.variants),
                "models": _encode(self.models),
                "budget": self.budget,
            },
            "summary": {
                "cases_run": self.cases_run,
                "cases_skipped_for_budget": self.cases_skipped,
                "errors": self.errors,
                "incomplete": self.incomplete,
                "budget_exhausted": self.budget_exhausted,
                "used_pool": self.used_pool,
                "wall_seconds": self.wall,
                "violations": len(self.violations),
                "variants": _encode(self.variant_summary),
            },
            "problems": _encode(self.problems),
            "violations": _encode(self.violations),
            "cases": _encode(self.cases),
        }

    _TOP_KEYS = frozenset(
        ("kind", "schema_version", "config", "summary", "problems",
         "violations", "cases")
    )
    _CONFIG_KEYS = frozenset(("seeds", "shapes", "variants", "models", "budget"))
    _SUMMARY_KEYS = frozenset(
        ("cases_run", "cases_skipped_for_budget", "errors", "incomplete",
         "budget_exhausted", "used_pool", "wall_seconds", "violations",
         "variants")
    )

    @classmethod
    def _reject_unknown(cls, mapping: Mapping, allowed: frozenset, where: str) -> None:
        unknown = sorted(set(mapping) - allowed)
        if unknown:
            raise SchemaError(
                f"{cls.KIND} {where} carries unknown fields: "
                f"{', '.join(unknown)}"
            )

    @classmethod
    def from_payload(cls, payload: Mapping) -> "FuzzReport":
        cls.check_envelope(payload)
        cls._reject_unknown(payload, cls._TOP_KEYS, "payload")
        try:
            config = payload["config"]
            summary = payload["summary"]
            cls._reject_unknown(config, cls._CONFIG_KEYS, "config")
            cls._reject_unknown(summary, cls._SUMMARY_KEYS, "summary")
            return cls(
                seeds=config["seeds"],
                shapes=tuple(config["shapes"]),
                variants=tuple(config["variants"]),
                models=tuple(config["models"]),
                budget=config["budget"],
                cases_run=summary["cases_run"],
                cases_skipped=summary["cases_skipped_for_budget"],
                errors=summary["errors"],
                incomplete=summary["incomplete"],
                budget_exhausted=summary["budget_exhausted"],
                used_pool=summary["used_pool"],
                wall=summary["wall_seconds"],
                variant_summary=summary["variants"],
                violations=_tuple_of(FuzzViolation)(payload["violations"]),
                problems=_tuple_of(FuzzProblem)(payload["problems"]),
                cases=tuple(payload["cases"]),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(
                f"malformed {cls.KIND} payload: {exc}"
            ) from None

    def render(self) -> str:
        rows = [
            [
                variant,
                row["checked"],
                row["restored_sc"],
                row["violations"],
                row["full_fences"],
                f"{row['mean_fences_saved']:.1f}",
            ]
            for variant, row in (
                (v, self.variant_summary[v]) for v in self.variants
            )
        ]
        parts = [
            format_table(
                ["variant", "checked", "SC restored", "violations",
                 "mfences", "saved vs full"],
                rows,
                title=f"fuzz: {self.cases_run} cases "
                f"({self.seeds} seeds x {len(self.shapes)} shapes x "
                f"{len(self.models)} models; "
                f"{'pool' if self.used_pool else 'serial'}, "
                f"{self.wall:.1f}s wall"
                + (", budget exhausted" if self.budget_exhausted else "")
                + f", {self.cases_skipped} skipped)",
            )
        ]
        for p in self.problems:
            label = "ERROR" if p.status == "error" else "INCOMPLETE"
            parts.append(f"\n{label} {p.shape} seed {p.seed}: {p.detail}")
        for v in self.violations:
            parts.append(
                f"\nSOUNDNESS VIOLATION: variant {v.variant!r} on "
                f"{v.shape} seed {v.seed} ({v.model}), "
                f"shrunk to {v.source_lines} lines:"
            )
            parts.append(v.snippet)
        return "\n".join(parts)
