"""The in-process workloads: analyze-corpus, check-litmus, lint-confirm.

A workload is a list of passes. A pass is a fixed multiset of requests,
put in a seeded order, run against a fresh ``repro.api.Session``, so
every pass does the same work and its reports and work counters must
repeat exactly. Each op is one public ``Session`` call. Every report is
checked against references outside the request path under test (the
litmus catalog's recorded properties, the paper's figures in
``repro.experiments.expected``, the greedy planner's cost, the recorded
optimal costs in ``recorded.json``) and against the same request's
report in the run's first pass.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from reference import SpeedProbe

#: Values recorded at the commit that defined the benchmark.
RECORDED = json.loads((Path(__file__).parent / "recorded.json").read_text())

#: analyze-corpus: each program gets these three requests, in this
#: order, so the first is cold (builds the facts) and the others reuse
#: the session's facts.
ANALYZE_MIX = (
    ("control", "x86-tso", None, "greedy"),
    ("pensieve", "x86-tso", None, "greedy"),
    ("address+control", "arm", "arm", "optimal"),
)

#: check-litmus cells: (litmus entry, memory model).
CHECK_CELLS = (
    ("mp-chain", "pso"),
    ("mp-chain", "arm"),
    ("mp-chain", "power"),
    ("dekker-scoreboard", "x86-tso"),
    ("dekker-scoreboard", "pso"),
    ("dekker-scoreboard", "arm"),
    ("iriw", "arm"),
    ("dekker", "power"),
)

#: lint-confirm: the witness search's trace bound for corpus programs.
#: The request default (400) costs 12-28 s per corpus program; this
#: keeps a pass to a few seconds while SC enumeration and
#: happens-before checking still take most of the op.
LINT_MAX_TRACES = 4


@dataclass(frozen=True)
class Op:
    """One request: ``run(session)`` returns its report, ``check(report)``
    returns a failure message or None."""

    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]


class Workload:
    name = ""

    def pass_ops(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def check_pass(self, reports: dict[str, Any]) -> list[str]:
        """Whole-pass checks (aggregates); failure messages."""
        return []


def _ok(_report) -> None:
    return None


class AnalyzeCorpus(Workload):
    name = "analyze-corpus"

    def pass_ops(self, rng):
        from repro.api import AnalyzeRequest, ProgramSpec
        from repro.programs import all_programs

        names = sorted(all_programs())
        rng.shuffle(names)
        ops = []
        for name in names:
            for variant, model, arch, synthesis in ANALYZE_MIX:
                request = AnalyzeRequest(
                    program=ProgramSpec.corpus(name), variant=variant,
                    model=model, arch=arch, synthesis=synthesis,
                )
                check = _ok if arch is None else self._cost_check(name)
                ops.append(Op(f"{name}/{variant}", _call("analyze", request), check))
        return ops

    @staticmethod
    def _cost_check(name: str):
        recorded = RECORDED["arm_optimal_cost"][name]

        def check(report) -> str | None:
            if report.fence_cost > report.greedy_cost:
                return f"optimal cost {report.fence_cost} > greedy {report.greedy_cost}"
            if report.fence_cost > recorded:
                return f"optimal cost {report.fence_cost} > recorded optimum {recorded}"
            return None

        return check

    def check_pass(self, reports):
        """The Fig. 7/8/9 aggregates, judged as the experiment tests
        judge them (same tolerances, same named extremes)."""
        from repro.experiments import expected
        from repro.experiments.fig7 import Fig7Result, Fig7Row
        from repro.util.stats import geomean

        names = sorted({label.split("/")[0] for label in reports})
        ctl = {n: reports[f"{n}/control"] for n in names}
        pen = {n: reports[f"{n}/pensieve"] for n in names}
        ac = {n: reports[f"{n}/address+control"] for n in names}
        problems = []
        fig7 = Fig7Result([
            Fig7Row(n, ctl[n].escaping_reads, ctl[n].sync_reads, ac[n].sync_reads)
            for n in names
        ])
        if abs(fig7.geomean_control - expected.FIG7_GEOMEAN_CONTROL) > 0.06:
            problems.append(f"fig7 control geomean {fig7.geomean_control:.3f}")
        if abs(fig7.geomean_address_control - expected.FIG7_GEOMEAN_ADDRESS_CONTROL) > 0.10:
            problems.append(f"fig7 a+c geomean {fig7.geomean_address_control:.3f}")
        best = min(fig7.rows, key=lambda r: r.control_fraction).program
        worst = max(fig7.rows, key=lambda r: r.control_fraction).program
        if (best, worst) != (expected.FIG7_BEST_CONTROL[0], expected.FIG7_WORST_CONTROL[0]):
            problems.append(f"fig7 control extremes {best}/{worst}")
        spatial = next(r for r in fig7.rows if r.program == "water-spatial")
        if abs(spatial.address_control_fraction - expected.FIG7_BEST_ADDRESS_CONTROL[1]) > 0.05:
            problems.append("fig7 water-spatial a+c fraction")
        for n in names:
            if not ctl[n].sync_reads <= ac[n].sync_reads:
                problems.append(f"fig7 {n}: control acquires exceed a+c")
            # Pensieve prunes nothing; pruning is model-independent, so
            # the arm a+c report carries the x86 a+c ordering count.
            p, a, c = (pen[n].pruned_orderings, ac[n].pruned_orderings,
                       ctl[n].pruned_orderings)
            if not c <= a <= p:
                problems.append(f"fig8 {n}: pruning not monotone ({c}, {a}, {p})")
            if ctl[n].full_fences > pen[n].full_fences:
                problems.append(f"fig9 {n}: control places more fences than pensieve")
        for variant, reported, paper, tolerance in (
            ("control", ctl, expected.FIG8_GEOMEAN_CONTROL, 0.10),
            ("address+control", ac, expected.FIG8_GEOMEAN_ADDRESS_CONTROL, 0.15),
        ):
            surviving = geomean(
                max(1e-6, reported[n].pruned_orderings / max(1, pen[n].pruned_orderings))
                for n in names
            )
            if abs(surviving - paper) > tolerance:
                problems.append(f"fig8 {variant} geomean {surviving:.3f}")
        return problems


class CheckLitmus(Workload):
    name = "check-litmus"

    def pass_ops(self, rng):
        from repro.api import CheckRequest, ProgramSpec
        from repro.memmodel.litmus import LITMUS_TESTS

        cells = list(CHECK_CELLS)
        rng.shuffle(cells)
        return [
            Op(
                f"{name}/{model}",
                _call("check", CheckRequest(program=ProgramSpec.litmus(name), model=model)),
                self._check(LITMUS_TESTS[name], model),
            )
            for name, model in cells
        ]

    @staticmethod
    def _check(entry, model: str):
        def check(report) -> str | None:
            if not report.complete or not all(v.complete for v in report.variants):
                return "exploration bounded"
            if entry.well_synchronized:
                for v in report.variants:
                    if v.variant in ("control", "address+control") and not v.restored_sc:
                        return f"{v.variant} does not restore SC"
            if model == "x86-tso" and report.weak_breaks_unfenced != entry.tso_breaks_unfenced:
                return "unfenced TSO verdict differs from the litmus catalog"
            return None

        return check


class LintConfirm(Workload):
    name = "lint-confirm"

    def pass_ops(self, rng):
        from repro.api import LintRequest, ProgramSpec
        from repro.memmodel.litmus import LITMUS_TESTS
        from repro.programs import all_programs

        # Every program once per pass, in a seeded order: the seed moves
        # the order, not the amount of work in a pass.
        specs = [("litmus", name) for name in LITMUS_TESTS]
        specs += [("corpus", name) for name in sorted(all_programs())]
        rng.shuffle(specs)
        ops = []
        for kind, name in specs:
            if kind == "litmus":
                request = LintRequest(program=ProgramSpec.litmus(name))
                check = self._litmus_check(LITMUS_TESTS[name])
            else:
                request = LintRequest(
                    program=ProgramSpec.corpus(name), max_traces=LINT_MAX_TRACES
                )
                check = _ok
            ops.append(Op(f"{kind}:{name}", _call("lint", request), check))
        return ops

    @staticmethod
    def _litmus_check(entry):
        def check(report) -> str | None:
            if (report.confirmed_races > 0) == entry.well_synchronized:
                return (
                    f"{report.confirmed_races} confirmed races on a "
                    f"{'' if entry.well_synchronized else 'not '}well-synchronized test"
                )
            return None

        return check


def _call(method: str, request):
    return lambda session: getattr(session, method)(request)


IN_PROCESS = {w.name: w for w in (AnalyzeCorpus(), CheckLitmus(), LintConfirm())}


@dataclass
class RunRecord:
    """Everything a run of passes observed."""

    latencies: list[float] = field(default_factory=list)
    #: The op label of each latency.
    labels: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)
    wall: float = 0.0
    #: Wall seconds of each pass (every pass does the same work).
    pass_walls: list[float] = field(default_factory=list)
    #: Per pass, traced runs only: the deterministic work counters.
    counters: list[dict] = field(default_factory=list)
    #: The first pass's reports as JSON, by op label.
    first_reports: dict[str, str] = field(default_factory=dict)
    #: The machine's speed, sampled after every op.
    speed: SpeedProbe = field(default_factory=SpeedProbe)

    def mean_latencies(self) -> list[float]:
        """Each distinct op's mean latency over the run's passes."""
        runs: dict[str, list[float]] = {}
        for label, latency in zip(self.labels, self.latencies):
            runs.setdefault(label, []).append(latency)
        return [sum(xs) / len(xs) for xs in runs.values()]


def pass_counters(tracer_before: dict, tracer_after: dict, reg_before: dict,
                  reg_after: dict) -> dict:
    """One pass's work counters: wrapped calls and counts per layer, and
    the explorers' registry counters."""
    from layers import family_totals, sample_deltas

    out = {}
    for kind in ("calls", "counts"):
        for key, value in tracer_after[kind].items():
            delta = value - tracer_before[kind].get(key, 0)
            if delta:
                out[f"{kind}.{key}"] = delta
    families = family_totals(sample_deltas(reg_before, reg_after))
    for family in ("repro_explore_states_total", "repro_explore_sleep_blocked_total"):
        if families.get(family):
            out[family] = families[family]
    return out


def run_passes(workload: Workload, seed: int, passes: int | None = None,
               seconds: float | None = None, tracer=None) -> RunRecord:
    """Run whole passes, each on a fresh session: ``passes`` of them, or
    as many as fit in ``seconds`` (at least one; the next pass starts
    only if a pass as long as the longest so far would end in time).
    The speed reference is sampled after every op that returns. With
    ``tracer`` (already installed) also record each pass's work
    counters."""
    from layers import registry_payload

    from repro.api import Session

    rng = random.Random(seed)
    record = RunRecord()
    first: dict[str, str] | None = None
    started = time.perf_counter()
    while passes is None or len(record.pass_walls) < passes:
        if seconds is not None and record.pass_walls and (
            time.perf_counter() - started + max(record.pass_walls) > seconds
        ):
            break
        pass_started = time.perf_counter()
        ops = workload.pass_ops(rng)
        session = Session()
        if tracer is not None:
            tracer_before, reg_before = tracer.snapshot(), registry_payload()
        reports = {}
        base = len(record.latencies)
        for index, op in enumerate(ops, start=base):
            record.labels.append(op.label)
            t0 = time.perf_counter()
            try:
                report = op.run(session)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                record.latencies.append(time.perf_counter() - t0)
                record.failed_ops.add(index)
                record.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            record.latencies.append(time.perf_counter() - t0)
            record.speed.sample()
            reports[op.label] = report
            problem = op.check(report)
            if problem is not None:
                record.failed_ops.add(index)
                record.failures.append(f"{op.label}: {problem}")
        problems = workload.check_pass(reports) if len(reports) == len(ops) else []
        if problems:
            # An aggregate is a property of the whole pass's output.
            record.failed_ops.update(range(base, len(record.latencies)))
            record.failures.extend(problems)
        payloads = {label: report.to_json() for label, report in reports.items()}
        if first is None:
            first = record.first_reports = payloads
        for index, op in enumerate(ops, start=base):
            if op.label in payloads and payloads[op.label] != first.get(op.label):
                record.failed_ops.add(index)
                record.failures.append(f"{op.label}: report differs from the first pass")
        if tracer is not None:
            record.counters.append(pass_counters(
                tracer_before, tracer.snapshot(), reg_before, registry_payload()
            ))
        record.pass_walls.append(time.perf_counter() - pass_started)
    record.wall = time.perf_counter() - started
    if any(c != record.counters[0] for c in record.counters):
        record.failures.append("work counters differ between passes")
        record.failed_ops.update(range(len(record.latencies)))
    return record
