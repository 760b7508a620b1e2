"""Tests for the Session facade (repro.api.session)."""

import pytest

from repro.api import (
    AnalyzeRequest,
    BatchRequest,
    CheckRequest,
    FuzzRequest,
    ProgramSpec,
    Session,
    SimulateRequest,
)
from repro.core.pipeline import PipelineVariant, analyze_program
from repro.frontend import compile_source

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


@pytest.fixture
def spec():
    return ProgramSpec.inline(MP, name="mp")


# --- construction and mid-level ---------------------------------------------


def test_session_validates_defaults_eagerly():
    with pytest.raises(KeyError, match="unknown variant"):
        Session(variant="bogus")
    with pytest.raises(KeyError, match="unknown model"):
        Session(model="bogus")


def test_session_context_is_shared_and_memoized(spec):
    session = Session()
    program = session.load(spec)
    ctx = session.context(program)
    assert session.context(program) is ctx
    session.analysis(program, "control")
    session.analysis(program, "address+control")
    # The second variant reuses the variant-independent facts.
    assert session.context(program).stats.hits > 0


def test_session_analysis_matches_core_pipeline(spec):
    session = Session()
    program = session.load(spec)
    via_session = session.analysis(program, "control")
    direct = analyze_program(compile_source(MP, "mp"), PipelineVariant.CONTROL)
    assert via_session.full_fence_count == direct.full_fence_count
    assert via_session.total_sync_reads == direct.total_sync_reads


def test_session_accepts_pipeline_variant_enum(spec):
    session = Session()
    program = session.load(spec)
    a = session.analysis(program, PipelineVariant.CONTROL)
    b = session.analysis(program, "control")
    assert a.full_fence_count == b.full_fence_count


def test_session_place_keeps_context_valid(spec):
    session = Session()
    program = session.load(spec)
    ctx = session.context(program)
    session.place(program, "control")
    assert len(program.fences()) > 0
    # The context survives place(): the engine refreshed it, so the
    # fenced functions' facts recompute and re-analysis is correct.
    assert session.context(program) is ctx
    # No stale inputs remain — place() really did refresh (a further
    # refresh sees nothing changed).
    assert session.refresh(program) == ()
    reused = session.analysis(program, "control")
    fresh = Session().analysis(program, "control")
    assert reused.full_fence_count == fresh.full_fence_count
    assert reused.total_sync_reads == fresh.total_sync_reads


def test_session_explore_dispatches_models(spec):
    session = Session()
    sc = session.explore(session.load(spec), "sc")
    tso = session.explore(session.load(spec), "x86-tso")
    assert sc.complete and tso.complete
    assert tso.observation_sets() == sc.observation_sets()  # MP safe on TSO
    with pytest.raises(KeyError, match="no weak-memory explorer"):
        session.explore(session.load(spec), "rmo")


# --- wire level -------------------------------------------------------------


def test_analyze_report_totals_consistent(spec):
    report = Session().analyze(AnalyzeRequest(program=spec))
    assert report.program == "mp"
    assert report.escaping_reads == sum(
        f.escaping_reads for f in report.functions
    )
    assert report.full_fences == sum(f.full_fences for f in report.functions)
    assert report.sync_reads == 1  # the flag spin read


def test_analyze_emit_ir_and_annotations(spec):
    report = Session().analyze(
        AnalyzeRequest(program=spec, annotations=True, emit_ir=True)
    )
    assert report.fenced_ir is not None and "func @consumer" in report.fenced_ir
    assert report.annotations is not None and "acquire" in report.annotations
    rendered = report.render()
    assert "fenced IR" in rendered and "memory_order" in rendered


def test_check_mp_restored_on_tso(spec):
    report = Session().check(CheckRequest(program=spec, model="x86-tso"))
    assert report.complete and report.all_restored
    assert report.exit_code == 0
    assert [v.variant for v in report.variants] == [
        "pensieve", "control", "address+control",
    ]


def test_check_sb_fails_for_control():
    report = Session().check(
        CheckRequest(program=ProgramSpec.inline(SB, name="sb"))
    )
    assert report.weak_breaks_unfenced
    by_variant = {v.variant: v for v in report.variants}
    assert by_variant["pensieve"].restored_sc
    assert not by_variant["control"].restored_sc
    assert report.exit_code == 1


def test_check_state_bound_reports_incomplete(spec):
    report = Session().check(
        CheckRequest(program=spec, max_states=3)
    )
    assert not report.complete
    assert report.exit_code == 2
    assert "incomplete" in report.render()


def test_check_on_pso_breaks_mp_unfenced_and_variants_repair(spec):
    # The satellite fix: check is no longer hardcoded to x86-TSO. MP is
    # TSO-safe but PSO-broken (the data store can drain after the flag
    # store), and every variant's placement must repair it.
    report = Session().check(CheckRequest(program=spec, model="pso"))
    assert report.weak_breaks_unfenced
    assert report.all_restored


def test_simulate_manual_vs_pipeline(spec):
    session = Session()
    manual = session.simulate(
        SimulateRequest(program=spec, placement="manual")
    )
    control = session.simulate(
        SimulateRequest(program=spec, placement="control",
                        observe_globals=("flag", "data"))
    )
    assert manual.cycles > 0 and control.cycles > 0
    assert control.full_fences_executed >= 1
    assert ("flag", 1) in control.final_globals
    rendered = control.render()
    assert "observations T1: r=1" in rendered
    assert "flag = 1" in rendered and "data = 1" in rendered


def test_simulate_model_changes_placement(spec):
    session = Session()
    # On SC nothing needs a hardware fence, so the placement executes
    # zero mfences; on x86-TSO the w->r delay needs one.
    sc = session.simulate(
        SimulateRequest(program=spec, placement="control", model="sc")
    )
    tso = session.simulate(
        SimulateRequest(program=spec, placement="control", model="x86-tso")
    )
    assert sc.full_fences_executed == 0
    assert tso.full_fences_executed >= 1


def test_batch_report_matches_direct_engine():
    session = Session(parallel=False)
    report = session.batch(
        BatchRequest(programs=("fft",), variants=("control",))
    )
    assert [c.program for c in report.cells] == ["fft"]
    direct = analyze_program(
        compile_source_corpus("fft"), PipelineVariant.CONTROL
    )
    assert report.cells[0].full_fences == direct.full_fence_count
    assert report.total_full_fences == direct.full_fence_count


def compile_source_corpus(name):
    from repro.programs.registry import get_program

    return get_program(name).compile()


def test_batch_unknown_program_raises():
    with pytest.raises(KeyError, match="unknown program"):
        Session(parallel=False).batch(BatchRequest(programs=("nope",)))


def test_batch_cache_hits_across_calls(tmp_path):
    session = Session(parallel=False, cache_dir=str(tmp_path))
    first = session.batch(BatchRequest(programs=("fft",), variants=("control",)))
    second = session.batch(BatchRequest(programs=("fft",), variants=("control",)))
    assert first.cache_hits == 0
    assert second.cache_hits == 1


def test_fuzz_resolves_trusted_defaults():
    report = Session(parallel=False).fuzz(
        FuzzRequest(seeds=1, shapes=("publish",))
    )
    assert report.variants == ("address+control", "pensieve")
    assert report.cases_run == 1
    assert len(report.violations) == 0
    assert report.problem_count == 0


def test_fuzz_vanilla_violation_round_trips():
    from repro.api import FuzzReport

    report = Session(parallel=False).fuzz(
        FuzzRequest(seeds=1, shapes=("dekker",), variants=("vanilla",),
                    shrink=False)
    )
    assert len(report.violations) >= 1
    wire = report.to_json()
    assert FuzzReport.from_json(wire).to_json() == wire


# --- code-review regression fixes -------------------------------------------


def test_session_max_states_flows_to_check_and_fuzz(spec):
    # Requests default max_states=None = "use the session's bound".
    report = Session(max_states=3).check(CheckRequest(program=spec))
    assert not report.complete
    assert report.max_states == 3
    fuzz = Session(max_states=10, parallel=False).fuzz(
        FuzzRequest(seeds=1, shapes=("publish",))
    )
    assert fuzz.incomplete == 1


def test_request_max_states_overrides_session(spec):
    report = Session(max_states=3).check(
        CheckRequest(program=spec, max_states=1_000_000)
    )
    assert report.complete


MANUAL = """
global int flag;
global int data;

fn producer(tid) { data = 1; fence; flag = 1; }
fn consumer(tid) {
  local r = 0;
  while (flag == 0) { }
  r = data;
  observe("r", r);
}

thread producer(0);
thread consumer(1);
"""


def test_simulate_honors_spec_manual_fences():
    session = Session()
    plain = ProgramSpec.inline(MANUAL, name="m")
    kept = ProgramSpec.inline(MANUAL, name="m", manual_fences=True)
    without = session.simulate(
        SimulateRequest(program=plain, placement="pensieve")
    )
    with_manual = session.simulate(
        SimulateRequest(program=kept, placement="pensieve")
    )
    # The expert fence is retained on top of the pipeline placement.
    assert with_manual.full_fences_executed > without.full_fences_executed


def test_check_honors_spec_manual_fences():
    session = Session()
    report = session.check(
        CheckRequest(program=ProgramSpec.inline(MANUAL, name="m",
                                                manual_fences=True))
    )
    # The expert-fenced program is the baseline under check.
    assert report.complete and not report.weak_breaks_unfenced


def test_session_context_cache_is_bounded(spec):
    session = Session()
    session._context_cap = 2
    programs = [session.load(ProgramSpec.inline(MP, name=f"p{i}"))
                for i in range(5)]
    assert len(session._contexts) <= 2
    # Most-recently-used program keeps its context identity.
    last_ctx = session.context(programs[-1])
    assert session.context(programs[-1]) is last_ctx


def test_fuzz_wire_payload_layout_matches_runner_payload():
    """The wire FuzzReport promises the historical ``fuzz --json``
    layout; this guards the hand-mirrored config/summary/cases keys in
    repro.api.reports against drifting from the runner's payload."""
    from repro.validate.runner import run_fuzz

    raw = run_fuzz(seeds=1, shapes=("publish",), parallel=False).to_payload()
    api = Session(parallel=False).fuzz(
        FuzzRequest(seeds=1, shapes=("publish",))
    ).to_payload()
    assert set(api["config"]) == set(raw["config"])
    assert set(api["summary"]) == set(raw["summary"])
    assert api["config"]["seeds"] == raw["config"]["seeds"]
    assert api["cases"][0].keys() == raw["cases"][0].keys()
    assert api["violations"] == raw["violations"] == []


def test_wire_program_stays_warm_through_ad_hoc_context_churn(spec):
    session = Session()
    session._context_cap = 2
    session.analyze(AnalyzeRequest(program=spec))
    for i in range(3):
        session.context(compile_source(MP, f"adhoc{i}"))
    assert len(session._contexts) <= 2
    warm = session.analyze(AnalyzeRequest(program=spec, stats=True))
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.hits > 0


def test_session_stats_accessor(spec):
    session = Session()
    report = session.analyze(AnalyzeRequest(program=spec))
    assert report.cache_stats is None  # opt-in only
    stats = session.stats()
    assert stats["requests"] == {"analyze": 1}
    assert stats["contexts"] == 1
    assert stats["context_cap"] == session._context_cap
    assert stats["query_stats"]["misses"] > 0
    assert stats["query_stats"]["computes"] > 0


def test_analyze_cache_stats_show_warm_context(spec):
    session = Session()
    cold = session.analyze(AnalyzeRequest(program=spec, stats=True))
    assert cold.cache_stats is not None
    assert cold.cache_stats.misses > 0
    assert "points_to" in cold.cache_stats.by_fact
    warm = session.analyze(AnalyzeRequest(program=spec, stats=True))
    assert "cache:" in warm.render()
    # The program cache hands the second request the same warm Program,
    # so its counters are pure hits.
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.hits > 0
    # The mid-level path shares the same warm engine:
    program = session.load(spec)
    engine = session.context(program)
    analysis_before = engine.stats.misses
    session.analysis(program, "control")
    assert engine.stats.misses == analysis_before  # all hits


def test_batch_cache_stats_aggregate():
    session = Session(parallel=False)
    report = session.batch(
        BatchRequest(programs=("fft",), variants=("control", "pensieve"),
                     stats=True)
    )
    assert report.cache_stats is not None
    assert report.cache_stats.misses > 0
    # The second variant shares the first's variant-independent facts.
    assert report.cache_stats.hits > 0
    assert "analysis cache:" in report.render()
    wire = report.to_json()
    from repro.api import BatchReport

    assert BatchReport.from_json(wire).to_json() == wire


def test_wire_requests_reuse_warm_program_and_context(spec):
    session = Session()
    cold = session.analyze(AnalyzeRequest(program=spec, stats=True))
    assert cold.cache_stats.misses > 0
    warm = session.analyze(AnalyzeRequest(program=spec, stats=True))
    # Same source -> same Program object -> pure memo hits.
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.hits > 0
    cold_payload = cold.to_payload()
    warm_payload = warm.to_payload()
    cold_payload.pop("cache_stats")
    warm_payload.pop("cache_stats")
    assert warm_payload == cold_payload


def test_wire_edit_recomputes_only_changed_function():
    edited_src = MP.replace("data = 1;", "data = 2;")  # producer only
    session = Session()
    session.analyze(
        AnalyzeRequest(program=ProgramSpec.inline(MP, name="mp"))
    )
    computes_cold = session.stats()["query_stats"]["computes"]
    report = session.analyze(
        AnalyzeRequest(
            program=ProgramSpec.inline(edited_src, name="mp"), stats=True
        )
    )
    delta = session.stats()["query_stats"]["computes"] - computes_cold
    # Only the edited producer's facts recomputed; consumer stayed hit.
    assert set(report.cache_stats.by_fact) <= {
        "points_to", "escape_info", "reachability", "acquires",
        "writers_cache",
    }
    assert 0 < delta < computes_cold
    assert report.cache_stats.hits > 0
    # And the spliced warm result is byte-identical to a cold session's.
    fresh = Session().analyze(
        AnalyzeRequest(program=ProgramSpec.inline(edited_src, name="mp"))
    )
    warm_payload = report.to_payload()
    warm_payload.pop("cache_stats")
    fresh_payload = fresh.to_payload()
    fresh_payload.pop("cache_stats")
    assert warm_payload == fresh_payload


def test_place_evicts_mutated_program_from_source_cache(spec):
    """The litmus_model_check pattern: load + place per variant must
    hand each variant a clean compile, never the previous variant's
    fenced IR (regression: cached program returned fence-mutated)."""
    session = Session()
    first = session.load(spec)
    session.place(first, "pensieve")
    fenced_count = len(first.fences())
    assert fenced_count > 0
    second = session.load(spec)
    assert second is not first
    assert len(second.fences()) == 0
    session.place(second, "control")
    third = session.load(spec)
    assert len(third.fences()) == 0


def test_emit_ir_request_does_not_pollute_warm_program(spec):
    session = Session()
    session.analyze(AnalyzeRequest(program=spec))
    fenced = session.analyze(AnalyzeRequest(program=spec, emit_ir=True))
    assert fenced.fenced_ir is not None and "fence" in fenced.fenced_ir
    # The shared warm program was not mutated by the emit_ir request.
    program = session.load(spec)
    assert len(program.fences()) == 0
    again = session.analyze(AnalyzeRequest(program=spec))
    assert again.full_fences == fenced.full_fences


def test_session_refresh_delegates_to_engine(spec):
    session = Session()
    program = session.load(spec)
    session.analysis(program, "control")
    assert session.refresh(program) == ()


def test_package_versions_agree():
    import re
    from pathlib import Path

    import repro

    setup_text = Path(repro.__file__).parents[2].joinpath("setup.py").read_text()
    declared = re.search(r'version="([^"]+)"', setup_text).group(1)
    assert declared == repro.__version__


def test_validate_package_reexports_are_live():
    import repro.validate
    from repro.registry.variants import (
        detection_variant_keys,
        trusted_variant_keys,
    )

    assert repro.validate.DETECTION_VARIANTS == detection_variant_keys()
    assert repro.validate.TRUSTED_VARIANTS == trusted_variant_keys()
