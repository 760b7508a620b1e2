"""The bitmask delay-set core against its pairwise reference.

``_delay_core_oracle`` keeps the one-object-per-pair pipeline: nested
loops for ordering generation, a per-ordering Table I check, one
interval per ordering, list-scan stabbing and per-gap min-cut pricing.
Every stage of the mask core must agree with it exactly: ordering
sets (in iteration order), kind counts and prune statistics, per-block
interval sets under both projections, and the greedy and optimal plans
field by field.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _delay_core_oracle as oracle
from repro.arch.backend import get_backend
from repro.core.fence_min import collect_intervals, plan_fences
from repro.core.machine_models import MODELS, OrderKind
from repro.core.orderings import generate_orderings
from repro.core.pruning import prune_orderings
from repro.core.signatures import Variant
from repro.programs import all_programs
from repro.query.engine import QueryEngine
from repro.synth import synthesize_plan
from repro.validate.generator import SHAPES, generate_program

MODEL_NAMES = ("x86-tso", "pso", "arm", "power")
#: Model -> arch backend synthesized on; pso has no backend of its own.
SYNTH_ARCH = {"x86-tso": "x86", "arm": "arm", "power": "power"}
VARIANTS = ("pensieve", "control", "address+control")


def _sync_reads(engine, func, variant):
    if variant == "pensieve":
        return engine.get("escape_info", func).escaping_reads
    detector = Variant.CONTROL if variant == "control" else Variant.ADDRESS_CONTROL
    return engine.get("acquires", (func, detector)).sync_reads


def _interval_sets(by_block):
    return {
        block: {(iv.lo, iv.hi, iv.needs_full, iv.kind) for iv in ivs}
        for block, ivs in by_block.items()
    }


def check_function(
    engine,
    func,
    variants,
    models,
    include_self_pairs=False,
    projections=("source",),
    synthesize=True,
):
    """Assert every stage of the mask core matches the oracle on ``func``."""
    esc = engine.get("escape_info", func)
    reach = engine.get("reachability", func)
    expected = oracle.generate_orderings(func, esc, reach, include_self_pairs)
    orderings = generate_orderings(func, esc, reach, include_self_pairs)
    assert list(orderings) == expected
    assert len(orderings) == len(expected)
    assert orderings.count_by_kind() == oracle.count_by_kind(expected)
    for variant in variants:
        sync = _sync_reads(engine, func, variant)
        kept = [o for o in expected if oracle.keep_ordering(o, sync)]
        pruned, stats = prune_orderings(orderings, sync)
        assert list(pruned) == kept
        assert stats.before == oracle.count_by_kind(expected)
        assert stats.after == oracle.count_by_kind(kept)
        entry = bool(sync)
        for name in models:
            model = MODELS[name]
            entry_fence = entry and model.needs_full_fence(OrderKind.WR)
            for projection in projections:
                intervals = oracle.collect_intervals(func, kept, model, projection)
                by_block = collect_intervals(func, pruned, model, projection)
                assert _interval_sets(by_block) == _interval_sets(intervals)
                for ivs in by_block.values():
                    # No two orderings project onto one interval.
                    spans = [(iv.lo, iv.hi, iv.kind) for iv in ivs]
                    assert len(set(spans)) == len(spans)
                greedy = oracle.plan_fences(func, intervals, model, entry_fence)
                assert plan_fences(func, pruned, model, entry_fence, projection) == greedy
                if synthesize and name in SYNTH_ARCH:
                    backend = get_backend(SYNTH_ARCH[name])
                    plan = synthesize_plan(
                        func, pruned, model, backend, entry_fence, projection
                    )
                    optimal, certificate = oracle.synthesize_plan(
                        func, kept, intervals, model, backend, greedy
                    )
                    assert plan == optimal
                    # ``==`` leaves the certificate out; it is compared here.
                    assert (plan.mincut_value, plan.witness_cut) == certificate


@pytest.mark.parametrize("name", sorted(all_programs()))
def test_corpus_program_matches_the_pairwise_oracle(name):
    program = all_programs()[name].compile()
    engine = QueryEngine(program)
    for func in program.functions.values():
        check_function(engine, func, VARIANTS, MODEL_NAMES)


def test_corpus_self_pairs_match_the_pairwise_oracle():
    # Self-pair generation and pruning over the looping corpus programs.
    for name in ("fft", "lu-con", "radix"):
        program = all_programs()[name].compile()
        engine = QueryEngine(program)
        for func in program.functions.values():
            check_function(
                engine,
                func,
                ("control",),
                ("arm",),
                include_self_pairs=True,
                projections=("source", "target"),
                synthesize=False,
            )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(SHAPES),
    include_self_pairs=st.booleans(),
    variant=st.sampled_from(VARIANTS),
    model=st.sampled_from(MODEL_NAMES),
)
def test_generated_programs_match_the_pairwise_oracle(
    seed, shape, include_self_pairs, variant, model
):
    program = generate_program(seed, shape).compile()
    engine = QueryEngine(program)
    for func in program.functions.values():
        check_function(
            engine, func, (variant,), (model,), include_self_pairs, projections=("source", "target")
        )
