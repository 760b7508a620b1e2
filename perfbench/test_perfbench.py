"""Tests of the benchmark itself: wrappers, correctness checks, counters.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import BINDINGS, LayerTracer, _owner, _raw_attr, installed, layer_metrics  # noqa: E402
from reference import watched  # noqa: E402
from workloads import CHECK_CELLS, IN_PROCESS, Op, Workload, run_passes  # noqa: E402

from repro.api import (  # noqa: E402
    AnalyzeRequest,
    CheckRequest,
    LintRequest,
    ProgramSpec,
    Session,
)
from repro.memmodel.litmus import LITMUS_TESTS  # noqa: E402


def _bindings():
    return [_owner(b) for b in BINDINGS]


def test_installed_restores_every_binding_even_on_error():
    before = [_raw_attr(owner, name) for owner, name in _bindings()]
    with pytest.raises(RuntimeError), installed(LayerTracer()):
        for owner, name in _bindings():
            assert hasattr(getattr(owner, name), "__wrapped__"), name
        raise RuntimeError("boom")
    after = [_raw_attr(owner, name) for owner, name in _bindings()]
    assert all(a is b for a, b in zip(before, after))


def test_a_fresh_interpreter_wraps_each_binding_once_and_restores_it():
    # run.py installs the wrappers before repro is imported; a module
    # imported mid-install must not capture a wrapper as its original.
    probe = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / 'src')!r}]",
        "from layers import BINDINGS, LayerTracer, _owner, _raw_attr, installed",
        "with installed(LayerTracer()):",
        "    for b in BINDINGS:",
        "        inner = _raw_attr(*_owner(b)).__wrapped__",
        "        assert not hasattr(inner, '__wrapped__'), b",
        "for b in BINDINGS:",
        "    assert not hasattr(_raw_attr(*_owner(b)), '__wrapped__'), b",
    ])
    subprocess.run([sys.executable, "-c", probe], check=True, timeout=120)


def test_self_times_partition_the_traced_call():
    tracer = LayerTracer()
    with installed(tracer):
        Session().check(
            CheckRequest(program=ProgramSpec.litmus("dekker-scoreboard"), model="x86-tso")
        )
    snapshot = tracer.snapshot()
    assert snapshot["calls"]["api.session"] == 1
    assert snapshot["calls"]["memmodel.explore.run"] > 0
    assert snapshot["calls"]["frontend.parse"] > 0
    assert sum(snapshot["self_s"].values()) == pytest.approx(snapshot["root_s"])
    metrics = layer_metrics(snapshot, Counter(), 1, snapshot["root_s"], 0.0)
    assert metrics["trace.unattributed_share"][0] == pytest.approx(0.0, abs=1e-9)


def test_registry_flush_round_trips_through_the_metrics_payload():
    from layers import sample_deltas, tracer_totals_from

    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    tracer = LayerTracer(registry=registry)
    with installed(tracer):
        Session().analyze(AnalyzeRequest(program=ProgramSpec.litmus("mp")))
    totals = tracer_totals_from(sample_deltas({}, registry.to_payload()))
    assert totals["calls"]["api.session"] == 1
    assert totals["counts"]["core.orderings.generated"] > 0
    assert sum(totals["self_s"].values()) == pytest.approx(totals["root_s"])


def _op(workload, label):
    ops = workload.pass_ops(random.Random(0))
    return next(op for op in ops if op.label == label)


def test_corrupted_check_report_fails():
    op = _op(IN_PROCESS["check-litmus"], "dekker-scoreboard/x86-tso")
    report = op.run(Session())
    assert op.check(report) is None
    entry = LITMUS_TESTS["dekker-scoreboard"]
    flipped = dataclasses.replace(report, weak_breaks_unfenced=not entry.tso_breaks_unfenced)
    assert op.check(flipped) is not None
    broken = tuple(dataclasses.replace(v, restored_sc=False) for v in report.variants)
    assert op.check(dataclasses.replace(report, variants=broken)) is not None
    assert op.check(dataclasses.replace(report, complete=False)) is not None


def test_corrupted_analyze_report_fails():
    op = _op(IN_PROCESS["analyze-corpus"], "water-spatial/address+control")
    report = op.run(Session())
    assert op.check(report) is None
    assert op.check(dataclasses.replace(report, fence_cost=report.greedy_cost + 1)) is not None
    costlier = dataclasses.replace(
        report, fence_cost=report.fence_cost + 1, greedy_cost=report.fence_cost + 100
    )
    assert op.check(costlier) is not None


def test_corrupted_lint_report_fails():
    op = _op(IN_PROCESS["lint-confirm"], "litmus:sb")
    report = op.run(Session())
    assert op.check(report) is None
    assert op.check(dataclasses.replace(report, confirmed_races=0)) is not None


class _Drifting(Workload):
    """One op whose report changes every pass."""

    name = "drifting"

    def __init__(self):
        self.calls = 0

    def pass_ops(self, rng):
        def run(_session):
            self.calls += 1
            return LintRequest(program=ProgramSpec.litmus("mp"), max_traces=self.calls)

        return [Op("mp", run, lambda report: None)]


def test_report_that_differs_between_passes_fails():
    record = run_passes(_Drifting(), seed=0, passes=2)
    assert record.failed_ops == {1}
    assert "differs from the first pass" in record.failures[0]


def test_a_timed_run_ends_after_whole_passes_and_averages_each_op():
    record = run_passes(IN_PROCESS["check-litmus"], seed=3, seconds=0.01)
    assert len(record.pass_walls) == 1 and not record.failures
    assert record.speed.samples == len(CHECK_CELLS)
    assert record.speed.slowness() > 0
    record.latencies[0] = 9.0
    record.latencies.append(1.0)  # the first op again, in a second pass
    record.labels.append(record.labels[0])
    means = record.mean_latencies()
    assert len(means) == len(CHECK_CELLS)
    assert means[0] == 5.0 and means[1:] == record.latencies[1:-1]


def test_the_speed_watcher_samples_until_its_block_ends():
    with watched() as probe:
        time.sleep(0.3)
    assert probe.samples >= 2 and probe.slowness() > 0
    with pytest.raises(RuntimeError), watched() as probe:
        raise RuntimeError("boom")
    assert probe.samples == 0


RECORDED_COUNTERS = json.loads((HERE / "recorded.json").read_text())["work_counters_per_pass"]


@pytest.mark.parametrize(
    "name, seed",
    [("analyze-corpus", 1), ("check-litmus", 1), ("check-litmus", 2), ("lint-confirm", 2)],
)
def test_runs_repeat_the_recorded_work_counters(name, seed):
    # A run prints a drift from recorded.json without failing; this
    # test is where a drift fails. serve-edit has no recorded counters:
    # which requests meet warm facts on a worker depends on timing.
    assert set(RECORDED_COUNTERS) == set(IN_PROCESS)
    tracer = LayerTracer()
    with installed(tracer):
        record = run_passes(IN_PROCESS[name], seed=seed, passes=1, tracer=tracer)
    assert not record.failures
    assert record.counters[0] == RECORDED_COUNTERS[name]


def test_greedy_planning_inside_optimal_synthesis_counts_as_fence_min():
    from repro.programs import get_program

    request = AnalyzeRequest(
        program=ProgramSpec.corpus("fft"), variant="address+control",
        model="arm", arch="arm", synthesis="optimal",
    )
    tracer = LayerTracer()
    with installed(tracer):
        Session().analyze(request)
    functions = len(get_program("fft").compile().functions)
    # Once in the pipeline, once for the greedy cost synthesis reports.
    assert tracer.calls["core.fence_min.plan"] == 2 * functions
    assert tracer.calls["synth.plan"] == 1
    # lower_analysis, its lower_plan per function, synthesis's per function.
    assert tracer.calls["arch.lower"] == 1 + 2 * functions


def test_benchmark_json_names_every_metric_the_run_prints():
    from report import end_to_end

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    empty = {"self_s": {}, "calls": {}, "counts": {}, "root_s": 0.0, "bookkeeping_s": 0.0}
    layer = layer_metrics(empty, Counter(), 1, 1.0, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()
    ]
    e2e = end_to_end(1.0, 1.0, 0.1, [0.1] * 20, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]
    manifest = json.loads((HERE / "manifest.json").read_text())
    assert set(manifest["per_layer"]["metrics"]) == set(layer)
    assert set(manifest["workloads"]) == {w["name"] for w in spec["workloads"]}
