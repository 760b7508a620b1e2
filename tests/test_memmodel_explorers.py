"""Unit tests for the SC and x86-TSO exhaustive explorers."""

import pytest

from repro.core.pipeline import PipelineVariant, place_fences
from repro.frontend import compile_source
from repro.memmodel.litmus import LITMUS_TESTS
from repro.memmodel.sc import SCExplorer, enumerate_sc_traces
from repro.memmodel.storebuf import TSOExplorer, tso_equals_sc_for_observations


def _obs(result):
    return {
        tuple(sorted(o.observations)) for o in result.outcomes
    }


def test_sc_mp_single_outcome():
    result = SCExplorer(LITMUS_TESTS["mp"].compile()).explore()
    assert result.complete
    assert _obs(result) == {((1, "r", 1),)}


def test_sc_sb_three_outcomes():
    result = SCExplorer(LITMUS_TESTS["sb"].compile()).explore()
    observed = {
        (o.observation_dict()["0:r1"], o.observation_dict()["1:r2"])
        for o in result.outcomes
    }
    assert observed == {(0, 1), (1, 0), (1, 1)}


def test_tso_sb_adds_zero_zero():
    result = TSOExplorer(LITMUS_TESTS["sb"].compile()).explore()
    observed = {
        (o.observation_dict()["0:r1"], o.observation_dict()["1:r2"])
        for o in result.outcomes
    }
    assert (0, 0) in observed
    assert len(observed) == 4


def test_tso_is_superset_of_sc_on_litmus():
    for name, test in LITMUS_TESTS.items():
        program_sc = test.compile()
        program_tso = test.compile()
        sc = SCExplorer(program_sc).explore()
        tso = TSOExplorer(program_tso).explore()
        assert sc.observation_sets() <= tso.observation_sets(), name


def test_litmus_tso_breaks_flags_match():
    for name, test in LITMUS_TESTS.items():
        sc = SCExplorer(test.compile()).explore()
        tso = TSOExplorer(test.compile()).explore()
        breaks = tso.observation_sets() != sc.observation_sets()
        assert breaks == test.tso_breaks_unfenced, name


def test_tso_mp_safe_without_fences():
    # TSO preserves w->w and r->r: MP cannot read stale data.
    equal, sc_only, tso_only = tso_equals_sc_for_observations(
        LITMUS_TESTS["mp"].compile(), LITMUS_TESTS["mp"].compile()
    )
    assert equal


def test_lb_identical_under_tso():
    sc = SCExplorer(LITMUS_TESTS["lb"].compile()).explore()
    tso = TSOExplorer(LITMUS_TESTS["lb"].compile()).explore()
    assert sc.observation_sets() == tso.observation_sets()


def test_dekker_fenced_restores_sc():
    test = LITMUS_TESTS["dekker"]
    fenced = test.compile()
    place_fences(fenced, PipelineVariant.CONTROL)
    equal, sc_only, tso_only = tso_equals_sc_for_observations(
        test.compile(), fenced
    )
    assert equal, (sc_only, tso_only)


def test_sb_fenced_by_pensieve_restores_sc():
    test = LITMUS_TESTS["sb"]
    fenced = test.compile()
    place_fences(fenced, PipelineVariant.PENSIEVE)
    equal, _, _ = tso_equals_sc_for_observations(test.compile(), fenced)
    assert equal


def test_sb_not_fixed_by_control_by_design():
    # SB is not legacy-DRF: its loads are not acquires, so the paper's
    # approach (correctly, per its contract) leaves the w->r unfenced.
    test = LITMUS_TESTS["sb"]
    fenced = test.compile()
    analysis = place_fences(fenced, PipelineVariant.CONTROL)
    tso = TSOExplorer(fenced).explore()
    sc = SCExplorer(test.compile()).explore()
    assert tso.observation_sets() != sc.observation_sets()


def test_explorer_respects_max_states():
    result = SCExplorer(LITMUS_TESTS["dekker"].compile(), max_states=5).explore()
    assert not result.complete


def test_final_globals_observed():
    src = """
    global counter;
    fn f(t) { local o = fadd(&counter, 1); }
    thread f(0);
    thread f(1);
    """
    result = SCExplorer(compile_source(src, "t")).explore()
    finals = {o.globals_dict()["counter"] for o in result.outcomes}
    assert finals == {2}  # fadd is atomic: no lost update under SC


def test_tso_rmw_atomicity():
    src = """
    global counter;
    fn f(t) { local o = fadd(&counter, 1); }
    thread f(0);
    thread f(1);
    """
    result = TSOExplorer(compile_source(src, "t")).explore()
    finals = {o.globals_dict()["counter"] for o in result.outcomes}
    assert finals == {2}


def test_nonatomic_increment_loses_updates_under_sc():
    src = """
    global counter;
    fn f(t) { counter = counter + 1; }
    thread f(0);
    thread f(1);
    """
    result = SCExplorer(compile_source(src, "t")).explore()
    finals = {o.globals_dict()["counter"] for o in result.outcomes}
    assert finals == {1, 2}  # the classic lost update is SC-possible


def test_trace_enumeration_counts():
    traces = enumerate_sc_traces(LITMUS_TESTS["sb"].compile())
    assert traces
    assert all(t.complete for t in traces)
    # every complete trace has exactly 4 shared accesses
    assert {len(t.actions) for t in traces} == {4}


def test_trace_actions_well_formed():
    traces = enumerate_sc_traces(LITMUS_TESTS["mp"].compile(), max_traces=50)
    for trace in traces:
        tids = {a.tid for a in trace.actions}
        assert tids <= {0, 1}
        for a in trace.actions:
            assert isinstance(a.addr, int)
            assert a.index < len(trace.actions)


def test_trace_rmw_emits_read_then_write():
    src = "global x; fn f(t) { local o = fadd(&x, 1); } thread f(0);"
    traces = enumerate_sc_traces(compile_source(src, "t"))
    assert len(traces) == 1
    actions = traces[0].actions
    assert [a.is_write for a in actions] == [False, True]
    assert actions[0].inst is actions[1].inst
