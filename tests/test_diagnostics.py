"""Tests for the structured-diagnostics framework (repro.diagnostics).

Finding construction/ordering, the lint-pass registry, each shipped
fence pass (FENCE101/102/103) on minimal shapes, and run_lint's
severity gate.
"""

import pytest

from repro.core.machine_models import PSO, X86_TSO
from repro.diagnostics import (
    LINT_PASSES,
    Finding,
    FindingCounts,
    SourceSpan,
    run_lint,
    severity_rank,
    sort_findings,
)
from repro.frontend import compile_source
from repro.arch import get_backend
from repro.query.engine import QueryEngine

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

SB = """
global int x;
global int y;

fn p1(tid) { local r1 = 0; x = 1; r1 = y; observe("r1", r1); }
fn p2(tid) { local r2 = 0; y = 1; r2 = x; observe("r2", r2); }

thread p1(0);
thread p2(1);
"""


def _lint(source, name="test", manual_fences=False, **kwargs):
    program = compile_source(
        source, name=name, include_manual_fences=manual_fences
    )
    return run_lint(program, QueryEngine(program), **kwargs)


# --- findings ----------------------------------------------------------------


def test_severity_rank_orders_and_rejects():
    assert severity_rank("note") < severity_rank("warning") < severity_rank(
        "error"
    )
    with pytest.raises(ValueError, match="unknown severity"):
        severity_rank("fatal")


def test_finding_rejects_bad_severity():
    with pytest.raises(ValueError):
        Finding(code="RACE001", severity="catastrophic", message="m")


def test_sort_findings_most_severe_first():
    note = Finding(code="FENCE101", severity="note", message="n")
    warn = Finding(code="RACE001", severity="warning", message="w")
    err = Finding(code="RACE002", severity="error", message="e")
    ordered = sort_findings([note, warn, err])
    assert [f.severity for f in ordered] == ["error", "warning", "note"]


def test_finding_counts_at_least():
    counts = FindingCounts.of(
        [
            Finding(code="A1", severity="note", message="n"),
            Finding(code="A2", severity="warning", message="w"),
        ]
    )
    assert counts.total == 2
    assert counts.at_least("note") == 2
    assert counts.at_least("warning") == 1
    assert counts.at_least("error") == 0


def test_finding_render_includes_span_and_verdict():
    finding = Finding(
        code="RACE001",
        severity="error",
        message="races",
        spans=(SourceSpan("f", "entry", 0, 7, "store @x, 1"),),
        verdict="confirmed",
        witness="  * T0 store x = 1",
    )
    text = finding.render()
    assert "error RACE001" in text
    assert "f/entry[0]" in text
    assert "verdict: confirmed" in text
    assert "T0 store x = 1" in text


# --- the pass registry -------------------------------------------------------


def test_shipped_passes_registered():
    keys = set(LINT_PASSES.keys())
    assert {
        "racy-access-pair",
        "redundant-fence",
        "weak-flavor-insufficient",
        "unfenced-publish",
    } <= keys


def test_pass_subset_selection():
    result = _lint(SB, "sb", passes=("redundant-fence",), confirm=False)
    assert result.passes == ("redundant-fence",)
    assert not any(f.code.startswith("RACE") for f in result.findings)


# --- FENCE101: redundant fence -----------------------------------------------

DUP_FENCE = """
global int x;

fn f(tid) {
  x = 1;
  fence;
  fence;
  x = 2;
}

thread f(0);
"""


def test_redundant_fence_flagged():
    result = _lint(DUP_FENCE, "dup", manual_fences=True, confirm=False)
    dups = [f for f in result.findings if f.code == "FENCE101"]
    assert len(dups) == 1
    assert dups[0].severity == "note"


def test_single_fence_not_flagged():
    source = DUP_FENCE.replace("  fence;\n  fence;\n", "  fence;\n")
    result = _lint(source, "single", manual_fences=True, confirm=False)
    assert not any(f.code == "FENCE101" for f in result.findings)


# --- FENCE102: weak flavor ---------------------------------------------------

EIEIO = """
global int x;
global int y;

fn left(tid) {
  local r = 0;
  x = 1;
  fence eieio;
  r = y;
  observe("r", r);
}

thread left(0);
thread left(1);
"""


def test_weak_flavor_insufficient_for_store_load_cut():
    result = _lint(
        EIEIO, "eieio", manual_fences=True,
        arch=get_backend("power"), confirm=False,
    )
    weak = [f for f in result.findings if f.code == "FENCE102"]
    assert len(weak) == 1
    assert "eieio" in weak[0].message
    assert "w->r" in weak[0].message


def test_full_sync_flavor_passes():
    source = EIEIO.replace("fence eieio;", "fence sync;")
    result = _lint(
        source, "sync", manual_fences=True,
        arch=get_backend("power"), confirm=False,
    )
    assert not any(f.code == "FENCE102" for f in result.findings)


def test_flavor_pass_needs_an_arch():
    result = _lint(EIEIO, "eieio", manual_fences=True, confirm=False)
    assert not any(f.code == "FENCE102" for f in result.findings)


# --- FENCE103: unfenced publish ----------------------------------------------

PUBLISH = """
global int x;
global int y;

fn producer(tid) {
  x = 41;
  y = &x;
}
fn consumer(tid) {
  local p = 0;
  local r = 0;
  p = y;
  if (p != 0) {
    r = *p;
    observe("r", r);
  }
}

thread producer(0);
thread consumer(1);
"""


def test_unfenced_publish_flagged_on_pso():
    result = _lint(PUBLISH, "publish", model=PSO, confirm=False)
    pubs = [f for f in result.findings if f.code == "FENCE103"]
    assert len(pubs) == 1
    assert "'x'" in pubs[0].message and "'y'" in pubs[0].message
    assert len(pubs[0].spans) == 2  # the init and the publish


def test_publish_with_fence_passes_on_pso():
    source = PUBLISH.replace("x = 41;\n  y = &x;", "x = 41;\n  fence;\n  y = &x;")
    program = compile_source(source, name="fenced", include_manual_fences=True)
    result = run_lint(
        program, QueryEngine(program), model=PSO, confirm=False
    )
    assert not any(f.code == "FENCE103" for f in result.findings)


def test_publish_pass_silent_when_model_keeps_ww():
    result = _lint(PUBLISH, "publish", model=X86_TSO, confirm=False)
    assert not any(f.code == "FENCE103" for f in result.findings)


# --- run_lint result ---------------------------------------------------------


def test_exit_code_thresholds():
    result = _lint(SB, "sb")  # 2 confirmed races -> errors
    assert result.counts.error == 2
    assert result.exit_code("error") == 1
    assert result.exit_code("never") == 0

    clean = _lint(MP, "mp")
    assert clean.counts.total == 0
    assert clean.exit_code("note") == 0
    assert clean.worst_severity() is None


def test_refuted_candidates_are_notes_not_gate_failures():
    from repro.memmodel.litmus import LITMUS_TESTS

    program = compile_source(LITMUS_TESTS["dekker"].source, name="dekker")
    result = run_lint(program, QueryEngine(program))
    assert result.counts.note == 3
    assert result.counts.warning == result.counts.error == 0
    assert result.refuted_candidates == 3
    assert result.explorer_complete is True
    assert result.exit_code("warning") == 0
