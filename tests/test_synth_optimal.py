"""Tests for the optimal min-cost fence synthesizer (repro.synth).

Pins the three claims the synthesizer makes:

* on single-cut interval families (and on functions greedy already
  fences with at most one full fence) the optimal and greedy plans
  cost the same — the greedy stab is a feasible DP point, and one
  cheapest covering flavor cannot be beaten by a split;
* on a hand-built multi-cut family the count-first greedy stab is
  strictly costlier (exact cycle costs pinned), with the min-cut
  certificate agreeing with the DP;
* optimal placements are sound: they pass the SC-vs-weak differential
  oracle on every explorer model, and never cost more than greedy on
  any (program, arch) corpus cell.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AnalyzeRequest, ProgramSpec, Session
from repro.arch import backend_keys, get_backend
from repro.arch.lowering import lower_plan
from repro.core.fence_min import DelayInterval, collect_intervals
from repro.core.machine_models import MODELS, OrderKind
from repro.memmodel.litmus import LITMUS_TESTS
from repro.programs import get_program
from repro.registry.variants import get_variant
from repro.synth import block_cut, synthesize_analysis
from repro.synth.optimal import _solve_block
from repro.validate.oracle import EXPLORERS, run_oracle

POWER = get_backend("power")
WEAK_MODELS = tuple(k for k in sorted(EXPLORERS) if k != "sc")


def iv(lo: int, hi: int, kind: OrderKind) -> DelayInterval:
    return DelayInterval(
        block_index=0, lo=lo, hi=hi, needs_full=True, kind=kind
    )


def solve(intervals, backend):
    """``_solve_block`` over the deadline records of one block's
    ``intervals`` (every kind binding, no barriers): per right endpoint
    and kind, the largest ``lo``."""
    records: dict[int, list[int]] = {}
    for interval in intervals:
        los = records.setdefault(interval.hi, [-1] * len(OrderKind))
        k = list(OrderKind).index(interval.kind)
        los[k] = max(los[k], interval.lo)
    return _solve_block(records, range(len(OrderKind)), [], backend)


# --- hand-built multi-cut fixture -------------------------------------------

#: Two w->w intervals interleaved with two w->r intervals so that the
#: earliest-deadline greedy stab merges a w->r into *both* groups
#: (two ``sync``s, 160 cycles on Power), while the optimum routes both
#: w->r intervals through the single gap they share (gap 6) and covers
#: the first w->w with an ``eieio``: 25 + 80 = 105 cycles.
MULTI_CUT = [
    iv(0, 2, OrderKind.WW),
    iv(2, 6, OrderKind.WR),
    iv(4, 6, OrderKind.WW),
    iv(6, 9, OrderKind.WR),
]


def greedy_stab_cost(intervals, backend) -> int:
    """The count-first planner's stab (earliest deadline, credit
    existing stabs) lowered at each stab's cheapest covering flavor —
    the exact policy of ``plan_fences`` + ``lower_plan``."""
    gaps: dict[int, set[OrderKind]] = {}
    for interval in sorted(intervals, key=lambda i: (i.hi, i.lo)):
        covering = [g for g in gaps if interval.lo <= g <= interval.hi]
        if covering:
            gaps[covering[0]].add(interval.kind)
        else:
            gaps[interval.hi] = {interval.kind}
    return sum(
        backend.cheapest_flavor(frozenset(kinds)).cost
        for kinds in gaps.values()
    )


def test_multi_cut_fixture_optimal_strictly_beats_greedy():
    cost, placements = solve(MULTI_CUT, POWER)
    assert cost == 105
    assert [(gap, flavor.name) for gap, flavor in placements] == [
        (2, "eieio"),
        (6, "sync"),
    ]
    assert greedy_stab_cost(MULTI_CUT, POWER) == 160


def test_multi_cut_fixture_mincut_bounds_the_dp():
    """The flow network prices each gap at the cheapest flavor covering
    *every* kind crossing it, so on this crossing (non-laminar) family
    the cut overcharges: it lands on the greedy stab's 160, a sound
    upper bound the DP beats. The certificate contract is only
    ``dp <= cut``, with equality on laminar families."""
    value, gaps = block_cut(MULTI_CUT, POWER)
    assert value == 160 == greedy_stab_cost(MULTI_CUT, POWER)
    assert gaps == [2, 6]
    dp_cost, _placements = solve(MULTI_CUT, POWER)
    assert dp_cost <= value


# --- single-cut property ----------------------------------------------------

KINDS = st.sampled_from(list(OrderKind))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(6, 12), KINDS),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(sorted(backend_keys())),
)
def test_single_cut_families_cost_one_cheapest_fence(spans, arch_key):
    """Every interval contains gap 6, so one fence of the cheapest
    flavor covering the union of kinds is feasible — and on every
    shipped catalog no split of that kill-set is cheaper, so the DP
    must land exactly there (the greedy plan for a single cut)."""
    backend = get_backend(arch_key)
    intervals = [iv(lo, hi, kind) for lo, hi, kind in spans]
    cost, _placements = solve(intervals, backend)
    union = frozenset(kind for _lo, _hi, kind in spans)
    assert cost == backend.cheapest_flavor(union).cost


@pytest.mark.parametrize("arch_key", sorted(backend_keys()))
def test_single_fence_functions_match_greedy(arch_key):
    """Functions greedy fences with <= 1 full fence cost the same under
    optimal synthesis, and optimal never costs more anywhere."""
    backend = get_backend(arch_key)
    model = MODELS[backend.model_key]
    variant = get_variant("address+control")
    single_cut_seen = 0
    for name in sorted(LITMUS_TESTS):
        program = LITMUS_TESTS[name].compile()
        analysis = variant.analyze(program, model)
        plans, _summary = synthesize_analysis(analysis, backend)
        for fname, plan in plans.items():
            greedy = lower_plan(analysis.functions[fname].plan, backend)
            assert plan.cost <= greedy.cost
            assert plan.cost <= plan.mincut_value
            if greedy.full_count <= 1:
                single_cut_seen += 1
                assert plan.cost == greedy.cost, (name, fname)
    assert single_cut_seen > 0


# --- corpus sweep: optimal <= greedy, strictly cheaper somewhere ------------

SWEEP_PROGRAMS = ("fft", "matrix", "raytrace")


def test_corpus_cells_optimal_never_costlier():
    strict: dict[str, int] = {}
    for arch_key in sorted(backend_keys()):
        backend = get_backend(arch_key)
        model = MODELS[backend.model_key]
        for name in SWEEP_PROGRAMS:
            analysis = get_variant("address+control").analyze(
                get_program(name).compile(), model
            )
            plans, summary = synthesize_analysis(analysis, backend)
            greedy_cost = sum(
                lower_plan(fa.plan, backend).cost
                for fa in analysis.functions.values()
            )
            assert summary.cost <= greedy_cost, (name, arch_key)
            for plan in plans.values():
                assert plan.cost <= plan.greedy_cost
            if summary.cost < greedy_cost:
                strict[arch_key] = strict.get(arch_key, 0) + 1
    # Flavored ISAs leave money on the table for greedy; x86's two-entry
    # catalog (mfence/sfence) never does on these programs.
    assert strict.get("arm", 0) > 0
    assert strict.get("power", 0) > 0
    assert "x86" not in strict


def test_matrix_power_exact_costs_pinned():
    """The corpus's flagship strict-improvement cell, by function."""
    backend = get_backend("power")
    analysis = get_variant("address+control").analyze(
        get_program("matrix").compile(), MODELS["power"]
    )
    plans, _summary = synthesize_analysis(analysis, backend)
    pinned = {
        "mxx_gather": (3249, 3194),
        "mx_enqueue": (659, 557),
        "mx_worker": (386, 331),
    }
    for fname, (greedy, optimal) in pinned.items():
        plan = plans[fname]
        assert (plan.greedy_cost, plan.cost) == (greedy, optimal), fname
        assert plan.witness_cut  # certificate travels with the plan


def test_certificate_is_computed_once_on_first_read(monkeypatch):
    import repro.core.fence_min as fence_min
    import repro.synth.optimal as optimal

    calls = []
    families = []
    built = []

    def counting_block_cut(intervals, backend):
        calls.append(len(intervals))
        return block_cut(intervals, backend)

    def counting_collect_intervals(func, *args):
        families.append(func.name)
        return collect_intervals(func, *args)

    def counting_interval(*args):
        built.append(args)
        return DelayInterval(*args)

    monkeypatch.setattr(optimal, "block_cut", counting_block_cut)
    monkeypatch.setattr(optimal, "collect_intervals", counting_collect_intervals)
    monkeypatch.setattr(fence_min, "DelayInterval", counting_interval)
    analysis = get_variant("address+control").analyze(
        get_program("matrix").compile(), MODELS["power"]
    )
    plans, _summary = synthesize_analysis(analysis, POWER)
    # Synthesis alone never solves a min cut, nor builds an interval.
    assert calls == [] and families == [] and built == []
    plan = plans["mxx_gather"]
    first = (plan.mincut_value, plan.witness_cut)
    solved = len(calls)
    assert solved > 0
    assert families == ["mxx_gather"]
    assert built
    assert (plan.mincut_value, plan.witness_cut) == first
    # The second read is cached.
    assert len(calls) == solved and families == ["mxx_gather"]


# --- oracle gating ----------------------------------------------------------

@pytest.mark.parametrize("model", WEAK_MODELS)
@pytest.mark.parametrize("name", ("mp", "dekker", "mp-chain"))
def test_optimal_placements_pass_differential_oracle(model, name):
    test = LITMUS_TESTS[name]
    report = run_oracle(
        test.source,
        test.name,
        model=model,
        sync_globals=test.sync_globals,
        synthesis="optimal",
    )
    assert report.complete, report.skipped
    assert report.violations == ()
    assert report.full_restores_sc


# --- a pathological block ---------------------------------------------------


def test_a_500_access_block_synthesizes_in_seconds():
    """One straight-line block after a spin: 500 escaping accesses,
    ~125k same-block delay intervals. Pinned to the cost the pairwise
    planner computed for it, well inside a time budget that pairwise
    pricing (O(gaps x intervals)) overran twice over."""
    body = "\n".join(f"  a[{i % 7}] = r; r = b[{i % 5}];" for i in range(250))
    source = (
        "global int flag; global int a[7]; global int b[5];\n"
        "fn f(tid) {\n  local r = 0;\n  while (flag == 0) { }\n"
        f"{body}\n}}\nthread f(0);\nthread f(1);\n"
    )
    started = time.perf_counter()
    report = Session().analyze(
        AnalyzeRequest(
            program=ProgramSpec.inline(source),
            variant="address+control",
            model="arm",
            arch="arm",
            synthesis="optimal",
        )
    )
    elapsed = time.perf_counter() - started
    assert report.fence_cost == report.greedy_cost == 12048
    assert elapsed < 7.0
