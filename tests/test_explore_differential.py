"""Reduced-vs-exhaustive differential tests for the exploration core.

The acceptance oracle for the DPOR/canonicalization retrofit: on every
litmus program and a sweep of fuzz-generated programs, the reduced
exploration (sleep sets + persistent singletons + canonical hashing +
symmetry) must produce byte-identical verdicts — the same outcome set
and the same ``complete`` flag — as a plain exhaustive DFS, on every
model. A reduction that merely *usually* agrees is a soundness bug;
these tests are why the core can be on by default.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.memmodel.litmus import LITMUS_TESTS
from repro.registry.models import EXPLORERS
from repro.validate.generator import SHAPES, generate_program

MODELS = ("sc", "x86-tso", "pso", "arm", "power")

MAX_STATES = 500_000


def _differential(program_factory, model, max_states=MAX_STATES):
    cls = EXPLORERS.get(model)
    reduced = cls(program_factory(), max_states=max_states).explore()
    exhaustive = cls(
        program_factory(), max_states=max_states,
        reduction=False, canonicalize=False,
    ).explore()
    assert reduced.complete == exhaustive.complete
    assert reduced.outcomes == exhaustive.outcomes
    assert reduced.reduced and not exhaustive.reduced
    # The whole point: the reduced run never explores more states.
    assert reduced.states_explored <= exhaustive.states_explored
    return reduced, exhaustive


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_reduced_agrees_with_exhaustive(name, model):
    _differential(LITMUS_TESTS[name].compile, model)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("shape", SHAPES)
def test_generated_reduced_agrees_with_exhaustive(shape, model):
    from repro.frontend import compile_source

    generated = generate_program(0, shape)
    _differential(
        lambda: compile_source(generated.source, generated.name), model
    )


def test_scaled_workloads_hit_headline_reduction():
    """The BENCH_explore.json acceptance floor, pinned as a test: the
    dekker-/MP-class scaled litmus entries reduce >=10x on the buffered
    models where their state spaces blow up."""
    for name, model in (
        ("dekker-scoreboard", "x86-tso"),
        ("dekker-scoreboard", "pso"),
        ("mp-chain", "pso"),
    ):
        reduced, exhaustive = _differential(
            LITMUS_TESTS[name].compile, model, max_states=3_000_000
        )
        ratio = exhaustive.states_explored / max(1, reduced.states_explored)
        assert ratio >= 10.0, (name, model, ratio)


# --- hypothesis sweep over the fuzz generator's seed space -------------------


@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from(SHAPES),
    model=st.sampled_from(MODELS),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fuzzed_programs_reduced_agrees_with_exhaustive(seed, shape, model):
    from repro.frontend import compile_source

    generated = generate_program(seed, shape)
    _differential(
        lambda: compile_source(generated.source, generated.name), model
    )


# --- opt-out and budget behaviour --------------------------------------------


def test_reduction_off_reproduces_legacy_counts():
    """With reduction and canonical hashing disabled the core walks the
    same raw state graph the pre-core explorers did (dekker on TSO was
    260 states before the retrofit)."""
    cls = EXPLORERS.get("x86-tso")
    result = cls(
        LITMUS_TESTS["dekker"].compile(),
        reduction=False, canonicalize=False,
    ).explore()
    assert result.states_explored == 260
    assert result.verdict == "complete"


def test_bounded_exploration_reports_principled_verdict():
    cls = EXPLORERS.get("x86-tso")
    result = cls(
        LITMUS_TESTS["dekker-scoreboard"].compile(), max_states=10,
        reduction=False, canonicalize=False,
    ).explore()
    assert not result.complete
    assert result.verdict == "bounded:max-states"
