"""Tests for the differential fence-validation oracle.

Includes the corpus property test: for every litmus entry the oracle's
unfenced verdict must match the corpus's recorded
``tso_breaks_unfenced`` / ``well_synchronized`` ground truth, trusted
variants must never violate where the soundness contract applies, and
the deliberately-null detector must violate exactly where the corpus
says fences are needed.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.machine_models import MODELS
from repro.frontend import compile_source
from repro.memmodel.litmus import LITMUS_TESTS
from repro.memmodel.sc import SCExplorer
from repro.memmodel.storebuf import TSOExplorer
from repro.validate.generator import SHAPES, generate_program
from repro.validate.oracle import (
    DETECTION_VARIANTS,
    TRUSTED_VARIANTS,
    place_detected_fences,
    place_every_delay,
    run_oracle,
)

ALL = tuple(DETECTION_VARIANTS)


def _oracle_for(test, variants=ALL, model="x86-tso"):
    return run_oracle(
        test.source,
        test.name,
        variants=variants,
        model=model,
        sync_globals=test.sync_globals,
    )


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_corpus_verdicts_match_recorded_ground_truth(name):
    test = LITMUS_TESTS[name]
    report = _oracle_for(test)
    assert report.complete, report.skipped
    # The unfenced differential verdict is the corpus's recorded flag.
    assert report.weak_breaks_unfenced == test.tso_breaks_unfenced
    # The DRF check agrees with the corpus's intended-marking record.
    assert report.well_synchronized == test.well_synchronized
    # The every-delay upper bound restores SC on every corpus entry.
    assert report.full_restores_sc


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_corpus_trusted_variants_never_violate(name):
    report = _oracle_for(LITMUS_TESTS[name], variants=TRUSTED_VARIANTS)
    assert report.violations == ()


def test_corpus_null_detector_violates_exactly_on_dekker():
    """vanilla drops every w->r fence; of the well-synchronized corpus
    entries only the dekker-class ones need it, so the oracle must fire
    there and only there (racy entries are outside the contract)."""
    flagged = set()
    for name, test in LITMUS_TESTS.items():
        report = _oracle_for(test, variants=("vanilla",))
        if report.violations:
            flagged.add(name)
        if not test.well_synchronized:
            assert not report.contract_applies
    assert flagged == {"dekker", "dekker-scoreboard"}


def test_racy_programs_are_outside_the_contract():
    report = _oracle_for(LITMUS_TESTS["sb"], variants=ALL)
    assert not report.contract_applies
    assert report.violations == ()
    assert report.weak_breaks_unfenced  # still reported for information


@pytest.mark.parametrize("shape", SHAPES)
def test_generated_ground_truth_matches_oracle(shape):
    generated = generate_program(0, shape)
    report = run_oracle(
        generated.source,
        generated.name,
        variants=ALL,
        sync_globals=generated.sync_globals,
    )
    assert report.complete, report.skipped
    assert report.well_synchronized
    assert report.full_restores_sc
    if generated.expect_tso_break is not None:
        assert report.weak_breaks_unfenced == generated.expect_tso_break
    assert {v.variant for v in report.violations} == set(
        generated.expected_unsound_tso
    )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(("handoff", "publish", "dekker")),
)
def test_trusted_variants_sound_on_any_generated_program(seed, shape):
    """The tentpole property: wherever the contract applies, detected
    placements from the trusted variants restore SC."""
    generated = generate_program(seed, shape)
    report = run_oracle(
        generated.source,
        generated.name,
        variants=TRUSTED_VARIANTS,
        sync_globals=generated.sync_globals,
    )
    assert report.complete, report.skipped
    assert report.well_synchronized
    assert report.contract_applies
    assert report.violations == ()
    for verdict in report.verdicts:
        assert verdict.restores_sc
        assert verdict.fences_saved >= 0


def test_every_delay_placement_collapses_tso_to_sc_even_when_racy():
    test = LITMUS_TESTS["sb"]
    fenced = compile_source(test.source, test.name)
    full, compiler = place_every_delay(fenced)
    assert full > 0 and compiler == 0
    sc = SCExplorer(compile_source(test.source, test.name)).explore()
    tso = TSOExplorer(fenced).explore()
    assert tso.observation_sets() == sc.observation_sets()


def test_vanilla_places_no_more_full_fences_than_pensieve():
    test = LITMUS_TESTS["dekker"]
    model = MODELS["x86-tso"]
    vanilla = compile_source(test.source, test.name)
    pensieve = compile_source(test.source, test.name)
    vanilla_full, _ = place_detected_fences(vanilla, "vanilla", model)
    pensieve_full, _ = place_detected_fences(pensieve, "pensieve", model)
    assert vanilla_full <= pensieve_full


def test_unknown_variant_and_model_rejected():
    test = LITMUS_TESTS["mp"]
    with pytest.raises(KeyError, match="unknown variant"):
        place_detected_fences(
            compile_source(test.source, "mp"), "bogus", MODELS["x86-tso"]
        )
    with pytest.raises(KeyError, match="no weak-memory explorer"):
        run_oracle(test.source, "mp", model="rmo")


def test_skip_on_state_explosion_is_reported():
    test = LITMUS_TESTS["iriw"]
    report = run_oracle(
        test.source, "iriw", sync_globals=test.sync_globals, max_states=10
    )
    assert not report.complete
    assert report.skipped is not None
    assert report.verdicts == ()
    assert not report.contract_applies


def test_tso_breaks_unfenced_helper_matches_corpus():
    from repro.validate.oracle import tso_breaks_unfenced

    for name in ("mp", "dekker", "sb", "lb"):
        test = LITMUS_TESTS[name]
        assert (
            tso_breaks_unfenced(test.source, name) == test.tso_breaks_unfenced
        ), name
    # Blown state bounds return None rather than a wrong verdict.
    assert tso_breaks_unfenced(LITMUS_TESTS["iriw"].source, "iriw", 10) is None
