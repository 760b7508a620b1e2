"""Per-layer attribution from outside the program.

The traced run wraps each layer's public entry points with a timer and
computes self time with a per-thread call stack: a layer's self time is
its calls' wall time minus the part its wrapped callees cover. Callers
import entry points by name (``from repro.core.orderings import
generate_orderings``), so a binding is patched where each caller looks
it up, not where it is defined. :func:`installed` restores every
original on exit.

Explorer, synthesis and cluster internals are not wrapped: their
counters already live in the ``repro.obs`` metrics registry and are read
from there (:func:`sample_deltas`).
"""

from __future__ import annotations

import importlib
import threading
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

CountFn = Callable[[Any, tuple, dict], dict]


def _len_result(name: str) -> CountFn:
    return lambda result, args, kwargs: {name: len(result)}


def _lookup_counts(result, args, kwargs) -> dict:
    # QueryEngine.lookup returns (value, hit); no workload configures a
    # persistent cache in-process, so every miss is a compute there.
    return {"query.hits": 1} if result[1] else {"query.computes": 1}


def _lowered_fences(result, args, kwargs) -> dict:
    return {"arch.fences": len(result.fences) + (1 if result.entry_fence else 0)}


def _ir_instructions(result, args, kwargs) -> dict:
    return {
        "frontend.ir_instructions": sum(
            len(block.instructions)
            for func in result.functions.values()
            for block in func.blocks
        )
    }


def _full_fences(result, args, kwargs) -> dict:
    return {"core.fence_min.full_fences": result.full_count}


def _synth_cost(result, args, kwargs) -> dict:
    return {"synth.cost": result[1].cost}


def _prune_counts(result, args, kwargs) -> dict:
    return {"core.pruning.kept": len(result[0]), "core.pruning.input": len(args[0])}


def _race_candidates(result, args, kwargs) -> dict:
    return {"races.candidates": len(result.candidates)}


def _lint_findings(result, args, kwargs) -> dict:
    return {"diagnostics.findings": len(result.findings)}


@dataclass(frozen=True)
class Binding:
    """One patched name: ``attr`` on module ``module`` (``Class.method``
    for a class attribute), timed as ``layer``."""

    layer: str
    module: str
    attr: str
    count: CountFn | None = None


#: Every wrapped entry point, at the binding its callers look up.
BINDINGS: tuple[Binding, ...] = (
    # compile_source calls both through the package namespace.
    Binding("frontend.parse", "repro.frontend", "parse"),
    Binding("frontend.lower", "repro.frontend", "lower_module", _ir_instructions),
    # AnalysisContext's fact accessors and engine.get both land here.
    Binding("query.eval", "repro.query.engine", "QueryEngine.lookup", _lookup_counts),
    # The registered fact queries construct the facts by these names.
    Binding("analysis.points_to", "repro.query.facts", "PointsTo"),
    Binding("analysis.escape", "repro.query.facts", "EscapeInfo"),
    Binding("analysis.reachability", "repro.query.facts", "ReachabilityTable"),
    # The acquires query imports this lazily, at call time.
    Binding("core.signatures.acquires", "repro.core.signatures", "detect_acquires"),
    Binding(
        "core.orderings.generate", "repro.core.pipeline", "generate_orderings",
        _len_result("core.orderings.generated"),
    ),
    Binding("core.pruning.prune", "repro.core.pipeline", "prune_orderings", _prune_counts),
    Binding("core.fence_min.plan", "repro.core.pipeline", "plan_fences", _full_fences),
    # Optimal synthesis plans greedily too, for the greedy cost it reports.
    Binding("core.fence_min.plan", "repro.synth.optimal", "plan_fences", _full_fences),
    Binding("arch.lower", "repro.arch.lowering", "lower_plan", _lowered_fences),
    Binding("arch.lower", "repro.synth.optimal", "lower_plan", _lowered_fences),
    Binding("arch.lower", "repro.arch.lowering", "lower_analysis"),
    Binding("synth.plan", "repro.synth", "synthesize_analysis", _synth_cost),
    # Every explorer inherits this one DPOR loop.
    Binding("memmodel.explore.run", "repro.memmodel.explore", "CoreExplorer.explore"),
    Binding(
        "memmodel.sc.enumerate", "repro.races.detector", "enumerate_sc_traces",
        _len_result("memmodel.sc.traces"),
    ),
    Binding(
        "memmodel.hb.find_races", "repro.races.detector", "find_races",
        _len_result("memmodel.hb.races"),
    ),
    Binding("races.detect", "repro.races.detector", "detect_races", _race_candidates),
    Binding("diagnostics.lint", "repro.diagnostics", "run_lint", _lint_findings),
    Binding("api.session", "repro.api.session", "Session.analyze"),
    Binding("api.session", "repro.api.session", "Session.check"),
    Binding("api.session", "repro.api.session", "Session.lint"),
    Binding("serve.dispatch", "repro.serve.server", "ServeDispatcher.handle_line"),
)


def _owner(binding: Binding) -> tuple[Any, str]:
    owner: Any = importlib.import_module(binding.module)
    *path, name = binding.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _raw_attr(owner: Any, name: str) -> Any:
    # A class attribute is read from the class dict so a staticmethod
    # or classmethod is restored as itself, not as its bound form.
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class LayerTracer:
    """Self time, call counts and work counts per layer.

    ``self_s[layer]`` sums to ``root_s``, the wall time of the outermost
    wrapped calls. ``bookkeeping_s`` is the measured time the wrappers
    spend counting work after a call's clock stops, which the caller's
    layer pays. With ``registry`` set, every outermost call flushes
    the totals into it as counters (a worker process ships them back
    through the ``metrics`` wire op) and resets the local totals.
    """

    def __init__(self, registry=None) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self.bookkeeping_s = 0.0
        self.registry = registry
        self._local = threading.local()
        # Each analyzed function's EscapeInfo by id(function), so acquire
        # detection can report the reads it examined without querying
        # the engine. Held weakly: an entry lives as long as the session
        # that memoizes the facts, and its function's id cannot be reused
        # meanwhile, since the EscapeInfo references the function.
        self._escape_infos: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def wrap(self, layer: str, fn: Callable, count: CountFn | None) -> Callable:
        local = self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[0]
                self.calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_s += elapsed
            if count is not None:
                self.counts.update(count(result, args, kwargs))
            if layer == "analysis.escape":
                self._escape_infos[id(args[0])] = result
            elif layer == "core.signatures.acquires":
                self.counts["core.signatures.sync_reads"] += len(result.sync_reads)
                info = self._escape_infos.get(id(args[0]))
                if info is not None and info.function is args[0]:
                    self.counts["core.signatures.escaping_reads"] += len(info.escaping_reads)
            self.bookkeeping_s += clock() - end
            if not stack and self.registry is not None:
                self.flush()
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def flush(self) -> None:
        """Move the local totals into ``registry`` as counters."""
        registry = self.registry
        for layer, seconds in self.self_s.items():
            registry.inc("perfbench_layer_self_seconds_total", seconds, layer=layer)
        for layer, calls in self.calls.items():
            registry.inc("perfbench_layer_calls_total", calls, layer=layer)
        for name, value in self.counts.items():
            registry.inc("perfbench_layer_count_total", value, counter=name)
        registry.inc("perfbench_layer_root_seconds_total", self.root_s)
        registry.inc("perfbench_layer_bookkeeping_seconds_total", self.bookkeeping_s)
        self.reset()

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.root_s = 0.0
        self.bookkeeping_s = 0.0

    def snapshot(self) -> dict:
        """Current totals as plain data (for per-pass differencing)."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "bookkeeping_s": self.bookkeeping_s,
        }


@contextmanager
def installed(tracer: LayerTracer):
    """Patch every binding with ``tracer``'s wrapper; restore on exit."""
    # Import every module before patching any: a module first imported
    # mid-way would bind an already wrapped function by name, and its
    # own binding would then wrap that wrapper again.
    targets = [(binding, *_owner(binding)) for binding in BINDINGS]
    patched: list[tuple[Any, str, Any]] = []
    try:
        for binding, owner, name in targets:
            original = _raw_attr(owner, name)
            setattr(owner, name, tracer.wrap(binding.layer, original, binding.count))
            patched.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


#: Calls per calibration round of :func:`wrapper_cost_s`.
CALIBRATION_CALLS = 20000


def wrapper_cost_s() -> float:
    """Calibrated per-call cost of one wrapper around a no-op, without
    the work counting that ``bookkeeping_s`` measures."""

    def noop() -> None:
        return None

    wrapped = LayerTracer().wrap("calibration", noop, None)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        plain = time.perf_counter() - start
        best = min(best, (traced - plain) / CALIBRATION_CALLS)
    return max(best, 0.0)


def registry_payload() -> dict:
    from repro.obs import metrics as obs_metrics

    return obs_metrics.REGISTRY.to_payload()


def sample_deltas(before: dict, after: dict) -> dict[str, float]:
    """What each registry sample gained between two snapshots: counters
    by value, histograms by their ``sum`` (seconds)."""
    out: dict[str, float] = {}
    for sample, value in after.get("counters", {}).items():
        out[sample] = value - before.get("counters", {}).get(sample, 0)
    for sample, hist in after.get("histograms", {}).items():
        old = before.get("histograms", {}).get(sample, {}).get("sum", 0.0)
        out[sample] = hist["sum"] - old
    return out


def family_totals(deltas: dict[str, float]) -> Counter:
    """Sum sample deltas over their labels, keyed by metric family."""
    from repro.obs.metrics import split_sample

    out: Counter = Counter()
    for sample, value in deltas.items():
        out[split_sample(sample)[0]] += value
    return out


def tracer_totals_from(deltas: dict[str, float]) -> dict:
    """Rebuild :meth:`LayerTracer.snapshot` data from the counters that
    tracers with a ``registry`` flushed (summed over processes)."""
    from repro.obs.metrics import split_sample

    totals: dict = {
        "self_s": Counter(), "calls": Counter(), "counts": Counter(),
        "root_s": 0.0, "bookkeeping_s": 0.0,
    }
    fields = {
        "perfbench_layer_self_seconds_total": "self_s",
        "perfbench_layer_calls_total": "calls",
        "perfbench_layer_count_total": "counts",
    }
    for sample, value in deltas.items():
        family, labels = split_sample(sample)
        if family == "perfbench_layer_root_seconds_total":
            totals["root_s"] += value
        elif family == "perfbench_layer_bookkeeping_seconds_total":
            totals["bookkeeping_s"] += value
        elif family in fields:
            # One label: layer="..." or counter="...".
            totals[fields[family]][labels.split("=", 1)[1].strip('"')] += value
    return totals


def layer_metrics(
    totals: dict,
    families: Counter,
    ops: int,
    op_seconds: float,
    wrapper_cost: float,
    serve: dict | None = None,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Times are self seconds per op and counts are per op, so runs of
    different length compare. ``totals`` is a tracer snapshot,
    ``families`` the registry's per-family deltas over the same window,
    ``op_seconds`` the summed op latency the client measured. ``serve``
    carries the cluster figures of the serve-edit workload.
    """
    self_s, counts, calls = totals["self_s"], totals["counts"], totals["calls"]
    ops = max(ops, 1)
    serve = serve or {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def seconds(value: float) -> tuple[float, str]:
        return value / ops, "s/op"

    def work(value: float) -> tuple[float, str]:
        return value / ops, "count/op"

    def own(layer: str) -> tuple[float, str]:
        return seconds(self_s.get(layer, 0.0))

    def counted(name: str) -> tuple[float, str]:
        return work(counts.get(name, 0))

    dp = families.get("repro_synth_dp_seconds", 0.0)
    mincut = families.get("repro_synth_mincut_seconds", 0.0)
    hits = serve.get("query_hits", counts.get("query.hits", 0))
    computes = serve.get("query_computes", counts.get("query.computes", 0))
    # Outside the layers: client, transport and harness time for
    # serve-edit (the link round trip covers the worker's dispatch),
    # harness time between the op timer and the API call in-process.
    attributed = serve["queue_wait_s"] + serve["link_rtt_s"] if serve else totals["root_s"]
    return {
        "frontend.parse_s": own("frontend.parse"),
        "frontend.lower_s": own("frontend.lower"),
        "frontend.ir_instructions": counted("frontend.ir_instructions"),
        "query.computes": work(computes),
        "query.hits": work(hits),
        "query.hit_ratio": (ratio(hits, hits + computes), "ratio"),
        "query.eval_s": own("query.eval"),
        "analysis.points_to_s": own("analysis.points_to"),
        "analysis.escape_s": own("analysis.escape"),
        "analysis.reachability_s": own("analysis.reachability"),
        "core.signatures.acquires_s": own("core.signatures.acquires"),
        "core.signatures.sync_reads": counted("core.signatures.sync_reads"),
        "core.signatures.escaping_reads": counted("core.signatures.escaping_reads"),
        "core.orderings.generate_s": own("core.orderings.generate"),
        "core.orderings.generated": counted("core.orderings.generated"),
        "core.pruning.prune_s": own("core.pruning.prune"),
        "core.pruning.kept": counted("core.pruning.kept"),
        "core.pruning.kept_ratio": (
            ratio(counts.get("core.pruning.kept", 0), counts.get("core.pruning.input", 0)),
            "ratio",
        ),
        "core.fence_min.plan_s": own("core.fence_min.plan"),
        "core.fence_min.full_fences": counted("core.fence_min.full_fences"),
        "arch.lower_s": own("arch.lower"),
        "arch.fences": counted("arch.fences"),
        # dp and min-cut run inside synthesize_analysis and are timed by
        # synth itself: plan_s is the rest of synth's self time.
        "synth.plan_s": seconds(self_s.get("synth.plan", 0.0) - dp - mincut),
        "synth.dp_s": seconds(dp),
        "synth.mincut_s": seconds(mincut),
        "synth.cost": counted("synth.cost"),
        "memmodel.explore.run_s": own("memmodel.explore.run"),
        "memmodel.explore.states": work(families.get("repro_explore_states_total", 0)),
        "memmodel.explore.sleep_blocked": work(
            families.get("repro_explore_sleep_blocked_total", 0)
        ),
        "memmodel.sc.enumerate_s": own("memmodel.sc.enumerate"),
        "memmodel.sc.traces": counted("memmodel.sc.traces"),
        "memmodel.hb.find_races_s": own("memmodel.hb.find_races"),
        "memmodel.hb.races": counted("memmodel.hb.races"),
        "races.detect_s": own("races.detect"),
        "races.candidates": counted("races.candidates"),
        "diagnostics.lint_s": own("diagnostics.lint"),
        "diagnostics.findings": counted("diagnostics.findings"),
        "api.session_self_s": own("api.session"),
        "cluster.queue_wait_s": seconds(serve.get("queue_wait_s", 0.0)),
        # The link round trip minus the worker's dispatch: framing,
        # socket transfer and the worker loop around the dispatcher.
        "cluster.link_rtt_s": seconds(
            serve["link_rtt_s"] - totals["root_s"] if serve else 0.0
        ),
        "serve.dispatch_s": own("serve.dispatch"),
        "cluster.store_hit_ratio": (serve.get("store_hit_ratio", 0.0), "ratio"),
        "cluster.restarts": (serve.get("restarts", 0), "count"),
        "trace.unattributed_share": (ratio(op_seconds - attributed, op_seconds), "ratio"),
        # The calibrated fixed cost of every wrapped call plus the
        # measured work counting; an upper bound, since the counting
        # after an outermost call falls outside root_s.
        "trace.overhead_share": (
            ratio(sum(calls.values()) * wrapper_cost + totals["bookkeeping_s"],
                  totals["root_s"]),
            "ratio",
        ),
    }
