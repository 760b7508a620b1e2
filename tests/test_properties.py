"""Property-based tests over randomly generated concurrent programs.

The heavy-weight invariants of the whole system:

* TSO is a weakening of SC: every SC outcome is TSO-reachable;
* a full fence after every store makes TSO coincide with SC;
* the pipeline's fences never *add* behaviours, and with the Pensieve
  marking they always restore SC;
* pruning returns a subset; Control acquires ⊆ Address+Control acquires
  ⊆ escaping reads;
* fence minimization leaves an enforcement point inside every interval
  that needs one;
* straight-line arithmetic executes with C semantics.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.escape import EscapeInfo
from repro.core.fence_min import apply_plan, plan_fences
from repro.core.machine_models import X86_TSO
from repro.core.orderings import generate_orderings
from repro.core.pipeline import PipelineVariant, place_fences
from repro.core.pruning import prune_orderings
from repro.core.signatures import Variant, detect_acquires
from repro.frontend import compile_source
from repro.ir import Fence, FenceKind
from repro.memmodel.sc import SCExplorer
from repro.memmodel.storebuf import TSOExplorer

VARS = ("x", "y", "z")

_op = st.one_of(
    st.tuples(st.just("store"), st.sampled_from(VARS), st.integers(1, 3)),
    st.tuples(st.just("load"), st.sampled_from(VARS), st.integers(0, 0)),
)


def _thread_source(name: str, ops, fence_after_stores: bool) -> str:
    lines = [f"fn {name}(tid) {{"]
    n_loads = sum(1 for op in ops if op[0] == "load")
    if n_loads:
        lines.append("  " + " ".join(f"local r{i} = 0;" for i in range(n_loads)))
    load_index = 0
    for op in ops:
        if op[0] == "store":
            lines.append(f"  {op[1]} = {op[2]};")
            if fence_after_stores:
                lines.append("  fence;")
        else:
            lines.append(f"  r{load_index} = {op[1]};")
            lines.append(f'  observe("{name}{load_index}", r{load_index});')
            load_index += 1
    lines.append("}")
    return "\n".join(lines)


@st.composite
def litmus_programs(draw):
    """Two short threads over three globals; at least one load."""
    t0 = draw(st.lists(_op, min_size=1, max_size=3))
    t1 = draw(st.lists(_op, min_size=1, max_size=3))
    if not any(op[0] == "load" for op in t0 + t1):
        t1 = t1 + [("load", "x", 0)]
    return t0, t1


def _build(ops_pair, fences: bool) -> str:
    t0, t1 = ops_pair
    parts = [f"global int {v};" for v in VARS]
    parts.append(_thread_source("a", t0, fences))
    parts.append(_thread_source("b", t1, fences))
    parts.append("thread a(0);")
    parts.append("thread b(1);")
    return "\n".join(parts)


_explorer_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(litmus_programs())
@_explorer_settings
def test_sc_outcomes_subset_of_tso(ops_pair):
    src = _build(ops_pair, fences=False)
    sc = SCExplorer(compile_source(src, "p")).explore()
    tso = TSOExplorer(compile_source(src, "p")).explore()
    assert sc.complete and tso.complete
    assert sc.observation_sets() <= tso.observation_sets()


@given(litmus_programs())
@_explorer_settings
def test_fence_after_every_store_restores_sc(ops_pair):
    unfenced = _build(ops_pair, fences=False)
    fenced = _build(ops_pair, fences=True)
    sc = SCExplorer(compile_source(unfenced, "p")).explore()
    tso = TSOExplorer(
        compile_source(fenced, "p", include_manual_fences=True)
    ).explore()
    assert tso.observation_sets() == sc.observation_sets()


@given(litmus_programs())
@_explorer_settings
def test_pensieve_pipeline_restores_sc(ops_pair):
    src = _build(ops_pair, fences=False)
    fenced = compile_source(src, "p")
    place_fences(fenced, PipelineVariant.PENSIEVE)
    sc = SCExplorer(compile_source(src, "p")).explore()
    tso = TSOExplorer(fenced).explore()
    assert tso.observation_sets() == sc.observation_sets()


@given(litmus_programs(), st.sampled_from(list(PipelineVariant)))
@_explorer_settings
def test_pipeline_fences_never_add_behaviours(ops_pair, variant):
    src = _build(ops_pair, fences=False)
    fenced = compile_source(src, "p")
    place_fences(fenced, variant)
    base = TSOExplorer(compile_source(src, "p")).explore()
    restricted = TSOExplorer(fenced).explore()
    sc = SCExplorer(compile_source(src, "p")).explore()
    assert restricted.observation_sets() <= base.observation_sets()
    assert sc.observation_sets() <= restricted.observation_sets()


# --- analysis-level properties over random single functions ----------------

_stmt = st.one_of(
    st.tuples(st.just("store"), st.sampled_from(VARS), st.integers(0, 5)),
    st.tuples(st.just("load"), st.sampled_from(VARS), st.integers(0, 0)),
    st.tuples(st.just("guard"), st.sampled_from(VARS), st.integers(0, 3)),
    st.tuples(st.just("rmw"), st.sampled_from(VARS), st.integers(1, 2)),
)


def _function_source(stmts) -> str:
    lines = ["global int x; global int y; global int z;", "fn f(tid) {", "  local t = 0;"]
    for i, (kind, var, val) in enumerate(stmts):
        if kind == "store":
            lines.append(f"  {var} = {val};")
        elif kind == "load":
            lines.append(f"  t = t + {var};")
        elif kind == "guard":
            lines.append(f"  if ({var} > {val}) {{ t = t + 1; }}")
        else:
            lines.append(f"  t = fadd(&{var}, {val});")
    lines.append("}")
    lines.append("thread f(0);")
    return "\n".join(lines)


@given(st.lists(_stmt, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_acquire_set_inclusions(stmts):
    func = compile_source(_function_source(stmts), "p").functions["f"]
    esc = EscapeInfo(func)
    control = detect_acquires(func, Variant.CONTROL).sync_reads
    addr_ctrl = detect_acquires(func, Variant.ADDRESS_CONTROL).sync_reads
    assert set(control) <= set(addr_ctrl) <= set(esc.escaping_reads)


@given(st.lists(_stmt, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_pruning_is_subset_and_pensieve_identity(stmts):
    func = compile_source(_function_source(stmts), "p").functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    sync = detect_acquires(func, Variant.CONTROL).sync_reads
    pruned, stats = prune_orderings(orderings, sync)
    assert stats.total_after <= stats.total_before
    key = lambda o: (id(o.src.inst), o.src.part, id(o.dst.inst), o.dst.part)  # noqa: E731
    assert {key(o) for o in pruned} <= {key(o) for o in orderings}
    # Pensieve marking (all escaping reads) prunes nothing.
    unpruned, identity_stats = prune_orderings(orderings, esc.escaping_reads)
    assert identity_stats.total_after == identity_stats.total_before


@given(st.lists(_stmt, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_fence_min_covers_every_needed_ordering(stmts):
    func = compile_source(_function_source(stmts), "p").functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    plan = plan_fences(func, orderings, X86_TSO)
    apply_plan(func, plan)
    for ordering in orderings:
        if not X86_TSO.needs_full_fence(ordering.kind):
            continue
        if ordering.src.inst.is_atomic_rmw() or ordering.dst.inst.is_atomic_rmw():
            continue
        ub, ui = func.position(ordering.src.inst)
        vb, vi = func.position(ordering.dst.inst)
        block = func.blocks[ub]
        end = vi if (ub == vb and ui < vi) else len(block.instructions) - 1
        window = block.instructions[ui + 1 : end + 1]
        assert any(
            (isinstance(i, Fence) and i.kind is FenceKind.FULL) or i.is_atomic_rmw()
            for i in window
        ), (stmts, ordering)


# --- interpreter arithmetic vs Python ----------------------------------------


def _c_trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


@given(
    st.integers(-100, 100),
    st.integers(-100, 100),
    st.integers(1, 50),
)
@settings(max_examples=60, deadline=None)
def test_arithmetic_matches_c_semantics(a, b, d):
    src = f"""
    global out[4];
    fn f(t) {{
      out[0] = {a} + {b} * 2;
      out[1] = {a} / {d};
      out[2] = {a} % {d};
      out[3] = ({a} < {b}) + ({a} == {b});
    }}
    thread f(0);
    """
    program = compile_source(src, "p")
    result = SCExplorer(program).explore()
    (outcome,) = result.outcomes
    finals = outcome.globals_dict()
    assert finals["out[0]"] == a + b * 2
    assert finals["out[1]"] == _c_trunc_div(a, d)
    assert finals["out[2]"] == a - _c_trunc_div(a, d) * d
    assert finals["out[3]"] == int(a < b) + int(a == b)


@given(litmus_programs())
@settings(max_examples=20, deadline=None)
def test_simulator_outcome_is_tso_reachable(ops_pair):
    # The deterministic simulator's result is one of the TSO outcomes.
    from repro.simulator import simulate

    src = _build(ops_pair, fences=False)
    stats = simulate(compile_source(src, "p"))
    sim_obs = tuple(
        sorted(
            (tid, label, value)
            for tid, obs in stats.observations.items()
            for label, value in obs
        )
    )
    tso = TSOExplorer(compile_source(src, "p")).explore()
    assert sim_obs in tso.observation_sets()


@given(litmus_programs())
@settings(max_examples=15, deadline=None)
def test_model_hierarchy_sc_tso_pso(ops_pair):
    # Relaxation hierarchy on random programs: SC ⊆ TSO ⊆ PSO outcomes.
    from repro.memmodel.storebuf import PSOExplorer

    src = _build(ops_pair, fences=False)
    sc = SCExplorer(compile_source(src, "p")).explore()
    tso = TSOExplorer(compile_source(src, "p")).explore()
    pso = PSOExplorer(compile_source(src, "p")).explore()
    assert sc.complete and tso.complete and pso.complete
    assert sc.observation_sets() <= tso.observation_sets() <= pso.observation_sets()


@given(litmus_programs())
@settings(max_examples=15, deadline=None)
def test_pso_pipeline_restores_sc(ops_pair):
    # Pensieve-marked placement targeted at PSO repairs PSO executions.
    from repro.core.machine_models import PSO as PSO_MODEL
    from repro.core.pipeline import FencePlacer
    from repro.memmodel.storebuf import PSOExplorer

    src = _build(ops_pair, fences=False)
    fenced = compile_source(src, "p")
    FencePlacer(PipelineVariant.PENSIEVE, PSO_MODEL).place(fenced)
    sc = SCExplorer(compile_source(src, "p")).explore()
    pso = PSOExplorer(fenced).explore()
    assert pso.observation_sets() == sc.observation_sets()
