"""Tests for the repro.obs observability layer (trace + metrics + top)."""

import importlib.util
import json
import time
from pathlib import Path

import pytest

from repro.api import AnalyzeRequest, ProgramSpec, Session
from repro.obs import metrics, trace
from repro.obs.top import (
    render_frame,
    render_ops_table,
    render_slow_queries,
    render_workers_table,
)
from repro.serve import ServeDispatcher

MP = """
global int flag;
global int data;

fn producer(tid) { data = 1; flag = 1; }
fn consumer(tid) {
  local r = 0;
  while (flag == 0) { }
  r = data;
  observe("r", r);
}

thread producer(0);
thread consumer(1);
"""

SPEC = ProgramSpec.inline(MP, name="mp")


def _load_prom_checker():
    path = Path(__file__).resolve().parent.parent / "tools" / "check_prom_format.py"
    spec = importlib.util.spec_from_file_location("check_prom_format", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    """A clean enabled tracer; always disabled afterwards."""
    trace.disable()
    t = trace.enable()
    yield t
    trace.disable()


@pytest.fixture(autouse=True)
def _clean_state():
    """Tests never observe another test's global samples or tracer."""
    metrics.REGISTRY.reset()
    trace.SLOW_QUERIES.clear()
    saved_threshold = trace.SLOW_QUERIES.threshold
    yield
    trace.disable()
    metrics.REGISTRY.reset()
    trace.SLOW_QUERIES.clear()
    trace.SLOW_QUERIES.threshold = saved_threshold


# --- tracer ---------------------------------------------------------------
def test_span_disabled_is_shared_noop_singleton():
    assert not trace.enabled()
    first = trace.span("anything", cat="x", irrelevant=1)
    second = trace.span("else")
    assert first is second is trace.NOOP_SPAN
    with first as sp:
        sp.set(late=True)  # discarded, no error


def test_span_records_complete_events(tracer):
    with trace.span("outer", cat="test", a=1):
        time.sleep(0.001)
        with trace.span("inner", cat="test"):
            pass
    events = tracer.events()
    assert [e["name"] for e in events] == ["inner", "outer"]  # exit order
    for event in events:
        assert event["ph"] == "X"
        assert set(event) == {
            "name", "cat", "ph", "ts", "dur", "pid", "tid", "args"
        }
    inner, outer = events
    # Nesting is ts/dur containment on the same pid/tid row.
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1
    assert tracer.started == 2


def test_span_error_and_late_args(tracer):
    with pytest.raises(ValueError):
        with trace.span("boom", cat="test"):
            raise ValueError("x")
    with trace.span("late", cat="test") as sp:
        sp.set(answer=42)
    boom, late = tracer.events()
    assert boom["args"]["error"] == "ValueError"
    assert late["args"]["answer"] == 42


def test_request_scope_binds_and_propagates(tracer):
    assert trace.current_trace_id() is None
    with trace.request_scope("cafe") as tid:
        assert tid == "cafe"
        with trace.span("inside", cat="test"):
            pass
        with trace.request_scope() as inherited:
            assert inherited == "cafe"  # reuse, don't remint
    assert trace.current_trace_id() is None
    (event,) = tracer.events()
    assert event["args"]["trace"] == "cafe"


def test_request_scope_noop_when_disabled():
    with trace.request_scope("ignored") as tid:
        assert tid is None


def test_chrome_export_schema(tracer, tmp_path):
    with trace.span("b", cat="test"):
        pass
    with trace.span("a", cat="test"):
        pass
    out = tmp_path / "trace.json"
    trace.export_chrome(out, tracer.events())
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["displayTimeUnit"] == "ms"
    events = data["traceEvents"]
    assert all(e["ph"] == "X" for e in events)
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)


def test_tracer_ingest_and_drain(tracer):
    tracer.ingest([{"name": "remote", "ph": "X"}, "not-a-dict"])
    assert len(tracer) == 1
    drained = tracer.drain()
    assert [e["name"] for e in drained] == ["remote"]
    assert len(tracer) == 0


# --- slow-query log -------------------------------------------------------
def test_slow_query_log_works_without_tracer():
    assert not trace.enabled()
    trace.SLOW_QUERIES.threshold = 0.0
    session = Session()
    session.analyze(AnalyzeRequest(program=SPEC))
    entries = trace.SLOW_QUERIES.entries()
    assert entries, "a zero threshold must log every evaluation"
    assert {"query", "key", "fingerprint", "seconds"} <= set(entries[0])


def test_query_eval_spans_nest_under_engine(tracer):
    session = Session()
    session.analyze(AnalyzeRequest(program=SPEC))
    evals = [e for e in tracer.events() if e["name"] == "query.eval"]
    assert evals
    assert all(e["args"]["query"] for e in evals)


# --- metrics registry -----------------------------------------------------
def test_counters_gauges_and_histograms():
    registry = metrics.MetricsRegistry()
    registry.inc("repro_x_total", kind="a")
    registry.inc("repro_x_total", 2, kind="a")
    registry.set_gauge("repro_depth", 7)
    for value in (0.003, 0.003, 0.02):
        registry.observe("repro_lat_seconds", value, op="q")
    payload = registry.to_payload()
    assert payload["counters"]['repro_x_total{kind="a"}'] == 3
    assert payload["gauges"]["repro_depth"] == 7
    hist = payload["histograms"]['repro_lat_seconds{op="q"}']
    assert hist["count"] == 3
    assert hist["sum"] == pytest.approx(0.026)
    assert 0.0025 <= hist["p50"] <= 0.005
    assert 0.01 <= hist["p99"] <= 0.025


def test_histogram_overflow_reports_ladder_top():
    registry = metrics.MetricsRegistry()
    registry.observe("repro_lat_seconds", 1e6)
    hist = registry.to_payload()["histograms"]["repro_lat_seconds"]
    assert hist["p50"] == metrics.DEFAULT_BUCKETS[-1]


def test_merge_payloads_sums_and_rederives_percentiles():
    a, b = metrics.MetricsRegistry(), metrics.MetricsRegistry()
    a.inc("repro_x_total", 2)
    b.inc("repro_x_total", 3)
    a.observe("repro_lat_seconds", 0.003)
    b.observe("repro_lat_seconds", 0.2)
    merged = metrics.merge_payloads([a.to_payload(), b.to_payload(), None])
    assert merged["counters"]["repro_x_total"] == 5
    hist = merged["histograms"]["repro_lat_seconds"]
    assert hist["count"] == 2
    assert hist["sum"] == pytest.approx(0.203)
    assert hist["p99"] > 0.1  # the slow worker's tail survives the merge


def test_sample_name_round_trip():
    sample = metrics.sample_name("repro_x_total", {"b": "2", "a": "1"})
    assert sample == 'repro_x_total{a="1",b="2"}'
    assert metrics.split_sample(sample) == ("repro_x_total", 'a="1",b="2"')
    assert metrics.split_sample("bare") == ("bare", "")


# --- Prometheus text format -----------------------------------------------
def test_render_prometheus_passes_the_checker():
    checker = _load_prom_checker()
    registry = metrics.MetricsRegistry()
    registry.inc("repro_x_total", 3, kind="a")
    registry.set_gauge("repro_depth", 2)
    registry.observe("repro_lat_seconds", 0.004, op="q")
    registry.observe("repro_lat_seconds", 50.0, op="q")  # overflow bucket
    text = metrics.render_prometheus(registry.to_payload())
    assert checker.check_text(text) == []
    assert "# TYPE repro_x_total counter" in text
    assert "# TYPE repro_lat_seconds histogram" in text
    assert 'repro_lat_seconds_bucket{op="q",le="+Inf"} 2' in text


def test_checker_rejects_broken_expositions():
    checker = _load_prom_checker()
    assert checker.check_text("orphan_sample 1\n")  # no TYPE line
    non_cumulative = (
        "# TYPE repro_lat_seconds histogram\n"
        'repro_lat_seconds_bucket{le="0.1"} 5\n'
        'repro_lat_seconds_bucket{le="+Inf"} 3\n'
        "repro_lat_seconds_sum 1\n"
        "repro_lat_seconds_count 3\n"
    )
    assert any(
        "cumulative" in p for p in checker.check_text(non_cumulative)
    )
    missing_inf = (
        "# TYPE repro_lat_seconds histogram\n"
        'repro_lat_seconds_bucket{le="0.1"} 5\n'
        "repro_lat_seconds_sum 1\n"
        "repro_lat_seconds_count 5\n"
    )
    assert any("+Inf" in p for p in checker.check_text(missing_inf))


# --- query-engine counters vs Session.stats -------------------------------
def test_metrics_op_matches_session_stats_exactly():
    dispatcher = ServeDispatcher(Session())
    request = AnalyzeRequest(program=SPEC).to_payload()
    dispatcher.handle_line(json.dumps(request))
    dispatcher.handle_line(json.dumps(request))  # warm pass: hits

    response, stop = dispatcher.handle_op({"op": "metrics"})
    assert response["ok"] and not stop
    counters = response["metrics"]["counters"]
    query_stats = dispatcher.session.stats()["query_stats"]

    for total in ("lookups", "hits", "misses", "computes"):
        assert counters[f"repro_query_{total}_total"] == query_stats[total]
    assert query_stats["by_query_hits"], "warm pass must produce hits"
    for kind, count in query_stats["by_query_hits"].items():
        assert counters[f'repro_query_hits_total{{query="{kind}"}}'] == count
    for kind, count in query_stats["by_query_misses"].items():
        assert counters[f'repro_query_misses_total{{query="{kind}"}}'] == count
    query_cache = dispatcher.session.stats()["query_cache"]
    assert counters["repro_store_rejected_total"] == query_cache["rejected"]

    checker = _load_prom_checker()
    assert checker.check_text(response["text"]) == []


def test_serve_request_metrics_and_explorer_counters():
    dispatcher = ServeDispatcher(Session())
    dispatcher.handle_line(json.dumps(AnalyzeRequest(program=SPEC).to_payload()))
    dispatcher.handle_line('{"kind": "analyze-request"}')  # schema error
    payload = metrics.REGISTRY.to_payload()
    assert payload["counters"]['repro_serve_requests_total{kind="analyze-request",ok="true"}'] == 1
    assert payload["counters"]['repro_serve_requests_total{kind="analyze-request",ok="false"}'] == 1
    hist = payload["histograms"]['repro_serve_request_seconds{kind="analyze-request"}']
    assert hist["count"] == 2


def test_explorer_counters_flush_per_model():
    from repro.frontend import compile_source
    from repro.memmodel.sc import SCExplorer

    program = compile_source(MP, "mp")
    explorer = SCExplorer(program)
    result = explorer.explore()
    payload = metrics.REGISTRY.to_payload()
    states = payload["counters"]['repro_explore_states_total{model="sc"}']
    # The registry was reset before this one exploration.
    assert states == result.states_explored > 0
    assert 'repro_explore_sleep_blocked_total{model="sc"}' in payload["counters"]
    assert 'repro_explore_pruned_total{model="sc"}' in payload["counters"]
    assert 'repro_explore_successors_total{model="sc"}' in payload["counters"]
    assert 'repro_explore_expansions_total{model="sc"}' in payload["counters"]
    assert 'repro_explore_probes_total{model="sc"}' in payload["counters"]


def test_explorer_work_counters_pinned_for_one_cell():
    """Successor states built, control configurations expanded and
    thread probes run, for the litmus MP cell on ARM: all are
    deterministic work counts of the DFS. The 42 states share 24
    control configurations (threads plus buffers), whose transitions
    are computed once each. Probes count distinct thread states
    probed: equal thread states share one step transition, and a step
    taken from the same ready state with the same load result reuses
    one memoized successor (``ThreadExecutor.step``)."""
    from repro.memmodel.litmus import LITMUS_TESTS
    from repro.memmodel.relaxed import ARMExplorer

    result = ARMExplorer(LITMUS_TESTS["mp"].compile()).explore()
    counters = metrics.REGISTRY.to_payload()["counters"]
    assert result.states_explored == 42
    assert counters['repro_explore_states_total{model="arm"}'] == 42
    assert counters['repro_explore_successors_total{model="arm"}'] == 55
    assert counters['repro_explore_expansions_total{model="arm"}'] == 24
    assert counters['repro_explore_probes_total{model="arm"}'] == 10


# --- top renderings -------------------------------------------------------
def test_top_renderings():
    registry = metrics.MetricsRegistry()
    registry.observe("repro_serve_request_seconds", 0.004, kind="analyze-request")
    registry.inc("repro_serve_requests_total", kind="analyze-request", ok="false")
    payload = registry.to_payload()
    table = render_ops_table(payload)
    assert "analyze-request" in table
    assert render_ops_table({"histograms": {}}) is None

    stats = {"cluster": {"workers": [
        {"worker": 0, "pid": 123, "queue_depth": 1, "inflight": 0,
         "answered": 4, "restarts": 0, "session": None},
        {"worker": 1, "restarting": True, "restarts": 2},
    ]}}
    workers = render_workers_table(stats)
    assert "(restarting)" in workers
    assert "123" in workers

    slow = render_slow_queries([
        {"query": "escape_info", "key": "f", "fingerprint": None, "seconds": 1.5},
    ])
    assert "escape_info" in slow

    frame = render_frame(
        {"metrics": payload, "slow_queries": []}, stats_response=stats
    )
    assert "analyze-request" in frame and "(restarting)" in frame
    empty = render_frame({"metrics": {}, "slow_queries": []}, None)
    assert "no samples" in empty
