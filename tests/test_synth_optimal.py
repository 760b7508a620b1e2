"""Tests for the optimal min-cost fence synthesizer (repro.synth).

Pins the claims the synthesizer makes:

* the DP is exact: on small blocks its cost equals a brute-force search
  over every subset of the backend's flavors at every gap;
* on single-cut interval families (and on functions greedy already
  fences with at most one full fence) the optimal and greedy plans
  cost the same — the greedy stab is a feasible DP point, and one
  cheapest covering flavor cannot be beaten by a split;
* on a hand-built multi-cut family the count-first greedy stab is
  strictly costlier (exact cycle costs pinned);
* optimal placements are sound: they pass the SC-vs-weak differential
  oracle on every explorer model, and never cost more than greedy on
  any (program, arch) corpus cell;
* each FENCE104 note names exactly the fences where the optimal and
  greedy plans differ, and their catalog costs add up to its figures.
"""

from __future__ import annotations

import re
import time
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _delay_core_oracle as oracle
from repro.api import AnalyzeRequest, LintRequest, ProgramSpec, Session
from repro.arch import backend_keys, get_backend
from repro.arch.lowering import lower_plan
from repro.core.machine_models import MODELS, OrderKind
from repro.memmodel.litmus import LITMUS_TESTS
from repro.programs import all_programs, get_program
from repro.registry.variants import get_variant
from repro.synth import synthesize_analysis
from repro.synth.optimal import _solve_block
from repro.validate.oracle import EXPLORERS, run_oracle

POWER = get_backend("power")
WEAK_MODELS = tuple(k for k in sorted(EXPLORERS) if k != "sc")
_KINDS = list(OrderKind)


def iv(lo: int, hi: int, kind: OrderKind) -> oracle.DelayInterval:
    return oracle.DelayInterval(
        block_index=0, lo=lo, hi=hi, needs_full=True, kind=kind
    )


def solve(intervals, backend, slots=range(len(OrderKind)), barriers=()):
    """``_solve_block`` over the deadline records of one block's
    ``intervals``: per right endpoint and kind, the largest ``lo``."""
    records: dict[int, list[int]] = {}
    for interval in intervals:
        los = records.setdefault(interval.hi, [-1] * len(OrderKind))
        k = _KINDS.index(interval.kind)
        los[k] = max(los[k], interval.lo)
    return _solve_block(records, slots, list(barriers), backend)


# --- exactness against brute force ------------------------------------------


def brute_force_cost(intervals, backend, gaps: int) -> int:
    """The cheapest placement found by trying every subset of the
    backend's flavors at every gap ``0 .. gaps - 1``; a branch is cut
    once some interval ending at the current gap is left unstabbed, or
    once it costs at least the best complete placement so far."""
    subsets = [
        (sum(f.cost for f in chosen), frozenset().union(*(f.kills for f in chosen)))
        for size in range(len(backend.flavors) + 1)
        for chosen in combinations(backend.flavors, size)
    ]
    best = [float("inf")]
    kills: list[frozenset[OrderKind]] = []

    def place(gap: int, cost: int) -> None:
        if cost >= best[0]:
            return
        if gap == gaps:
            best[0] = cost
            return
        for subset_cost, subset_kills in subsets:
            kills.append(subset_kills)
            if all(
                any(interval.kind in kills[g] for g in range(interval.lo, gap + 1))
                for interval in intervals
                if interval.hi == gap
            ):
                place(gap + 1, cost + subset_cost)
            kills.pop()

    place(0, 0)
    return best[0]


@st.composite
def small_blocks(draw):
    """``(gaps, intervals, slots, barriers)``: at most 5 gaps, at most
    6 intervals of random kinds, the kinds needing a fence, and
    instruction indices already acting as barriers."""
    gaps = draw(st.integers(1, 5))
    ends = st.tuples(st.integers(0, gaps - 1), st.integers(0, gaps - 1), st.sampled_from(_KINDS))
    intervals = [
        iv(min(a, b), max(a, b), kind)
        for a, b, kind in draw(st.lists(ends, min_size=1, max_size=6))
    ]
    slots = tuple(sorted(draw(st.sets(st.integers(0, 3), min_size=1))))
    barriers = sorted(draw(st.sets(st.integers(0, gaps - 1), max_size=2)))
    return gaps, intervals, slots, barriers


@pytest.mark.parametrize("arch_key", ["x86", "arm", "power"])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(block=small_blocks())
def test_dp_cost_equals_brute_force(arch_key, block):
    gaps, intervals, slots, barriers = block
    backend = get_backend(arch_key)
    # An instruction at index b enforces [lo, hi] iff lo <= b <= hi - 1.
    needed = [
        interval
        for interval in intervals
        if _KINDS.index(interval.kind) in slots
        and not any(interval.lo <= b < interval.hi for b in barriers)
    ]
    cost, placements = solve(intervals, backend, slots, barriers)
    assert cost == brute_force_cost(needed, backend, gaps)
    assert cost == sum(flavor.cost for _gap, flavor in placements)
    for interval in needed:
        assert any(
            interval.lo <= gap <= interval.hi and interval.kind in flavor.kills
            for gap, flavor in placements
        ), interval


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


# --- FENCE104 notes ---------------------------------------------------------

_NOTE = re.compile(
    r"greedy fence plan for '(?P<function>[^']+)' costs (?P<greedy>\d+) cycles on "
    r"'(?P<arch>[^']+)'; min-cost synthesis achieves (?P<cost>\d+) "
    r"\((?P<saved>\d+) saved; differing fences: (?P<fences>.+)\)"
)
_FENCE = re.compile(r"(?P<label>\S+)@(?P<gap>\d+) (?P<ours>\S+) \(greedy: (?P<theirs>\S+)\)")


def _gap_flavors(plan) -> dict[tuple[str, int], list[str]]:
    flavors: dict[tuple[str, int], list[str]] = {}
    for fence in plan.fences:
        if fence.flavor is not None:
            flavors.setdefault((fence.block_label, fence.gap), []).append(fence.flavor)
    return {key: sorted(names) for key, names in flavors.items()}


def _names(rendered: str) -> list[str]:
    return [] if rendered == "none" else rendered.split("+")


@pytest.mark.parametrize("arch_key", ["arm", "power"])
def test_fence104_notes_name_the_plan_difference_and_add_up(arch_key):
    backend = get_backend(arch_key)
    model = MODELS[arch_key]
    price = {flavor.name: flavor.cost for flavor in backend.flavors}
    session = Session()
    notes = 0
    for name in sorted(all_programs()):
        report = session.lint(
            LintRequest(
                program=ProgramSpec.corpus(name),
                model=arch_key,
                arch=arch_key,
                passes=("suboptimal-fence-cost",),
                confirm=False,
            )
        )
        parsed = {}
        for finding in report.findings:
            assert finding.code == "FENCE104"
            match = _NOTE.fullmatch(finding.message)
            assert match, finding.message
            fences = match["fences"].split(", ")
            listed = {}
            for fence in fences:
                part = _FENCE.fullmatch(fence)
                assert part, fence
                listed[(part["label"], int(part["gap"]))] = (
                    _names(part["ours"]), _names(part["theirs"])
                )
            assert len(listed) == len(fences)
            greedy, cost = int(match["greedy"]), int(match["cost"])
            assert match["arch"] == arch_key
            assert int(match["saved"]) == greedy - cost > 0
            removed = sum(price[f] for _ours, theirs in listed.values() for f in theirs)
            added = sum(price[f] for ours, _theirs in listed.values() for f in ours)
            assert greedy - removed + added == cost, finding.message
            parsed[match["function"]] = (greedy, cost, listed)
        notes += len(parsed)

        # The plans' difference, computed here from the plans themselves.
        analysis = get_variant("address+control").analyze(
            get_program(name).compile(), model
        )
        plans, _summary = synthesize_analysis(analysis, backend)
        expected = {}
        for fname, plan in plans.items():
            if plan.cost >= plan.greedy_cost:
                continue
            ours = _gap_flavors(plan)
            theirs = _gap_flavors(lower_plan(analysis.functions[fname].plan, backend))
            expected[fname] = (
                plan.greedy_cost,
                plan.cost,
                {
                    key: (ours.get(key, []), theirs.get(key, []))
                    for key in ours.keys() | theirs.keys()
                    if ours.get(key) != theirs.get(key)
                },
            )
        assert parsed == expected, name
    assert notes > 0


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


def _long_block(statements: int) -> str:
    body = "\n".join("  r = r + 1;" for _ in range(statements))
    return (
        "global int flag; global int a; global int b;\n"
        "fn f(tid) {\n  local r = 0;\n  while (flag == 0) { }\n  a = 1;\n"
        f"{body}\n  b = r;\n}}\nthread f(0);\nthread f(1);\n"
    )


def _arm_optimal(source: str):
    return Session().analyze(
        AnalyzeRequest(
            program=ProgramSpec.inline(source),
            variant="address+control",
            model="arm",
            arch="arm",
            synthesis="optimal",
        )
    )


def test_a_2000_statement_block_synthesizes():
    # The a -> b delay spans every gap of the block.
    report = _arm_optimal(_long_block(2000))
    assert report.fence_cost == report.greedy_cost == _arm_optimal(_long_block(1)).fence_cost > 0
