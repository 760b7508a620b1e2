"""Tests for the pluggable registries (repro.registry)."""

import pytest

from repro.core.machine_models import PSO, X86_TSO
from repro.core.pipeline import PipelineVariant, analyze_program
from repro.frontend import compile_source
from repro.memmodel.sc import SCExplorer
from repro.memmodel.storebuf import PSOExplorer, TSOExplorer
from repro.registry import (
    EXPLORERS,
    MODELS,
    ProgramSpec,
    Registry,
    VARIANTS,
    detection_variant_keys,
    get_model,
    get_variant,
    model_keys,
    pipeline_variant_keys,
    resolve_spec,
    trusted_variant_keys,
    weak_explorer_for,
    weak_model_keys,
)

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


# --- generic Registry -------------------------------------------------------


def test_registry_register_and_lookup():
    reg = Registry("widget")
    reg.register("a", 1)

    @reg.register("b")
    def make_b():
        return 2

    assert reg.get("a") == 1
    assert reg.get("b") is make_b
    assert reg.keys() == ("a", "b")
    assert "a" in reg and "c" not in reg
    assert len(reg) == 2


def test_registry_unknown_key_message():
    reg = Registry("widget")
    reg.register("a", 1)
    with pytest.raises(KeyError, match="unknown widget 'z'; known: a"):
        reg.get("z")


def test_registry_duplicate_rejected():
    reg = Registry("widget")
    reg.register("a", 1)
    with pytest.raises(ValueError, match="duplicate widget 'a'"):
        reg.register("a", 2)


# --- variants ---------------------------------------------------------------


def test_variant_catalog_shape():
    assert pipeline_variant_keys() == ("pensieve", "control", "address+control")
    assert detection_variant_keys() == (
        "vanilla", "pensieve", "control", "address+control",
    )
    assert trusted_variant_keys() == ("address+control", "pensieve")
    assert set(VARIANTS.keys()) == set(detection_variant_keys())


def test_variant_entries_map_to_pipeline_variants():
    for key in pipeline_variant_keys():
        assert get_variant(key).pipeline_variant.value == key
        assert not get_variant(key).null_detector
    assert get_variant("vanilla").null_detector


def test_variant_analyze_matches_pipeline():
    program = compile_source(MP, "mp")
    entry = get_variant("control")
    via_registry = entry.analyze(program, X86_TSO)
    direct = analyze_program(
        compile_source(MP, "mp"), PipelineVariant.CONTROL, X86_TSO
    )
    assert via_registry.full_fence_count == direct.full_fence_count
    assert via_registry.total_sync_reads == direct.total_sync_reads


def test_null_detector_analyze_has_zero_acquires():
    program = compile_source(MP, "mp")
    analysis = get_variant("vanilla").analyze(program, X86_TSO)
    assert analysis.total_sync_reads == 0
    # No acquires -> nothing survives pruning into reads, so vanilla
    # can never place more full fences than pensieve.
    pensieve = get_variant("pensieve").analyze(
        compile_source(MP, "mp"), X86_TSO
    )
    assert analysis.full_fence_count <= pensieve.full_fence_count


def test_unknown_variant_message():
    with pytest.raises(KeyError, match="unknown variant 'bogus'"):
        get_variant("bogus")


# --- models and explorers ---------------------------------------------------


def test_model_catalog_shape():
    from repro.memmodel.relaxed import ARMExplorer, POWERExplorer

    assert model_keys() == ("sc", "x86-tso", "pso", "rmo", "arm", "power")
    assert weak_model_keys() == ("x86-tso", "pso", "arm", "power")
    assert EXPLORERS.get("sc") is SCExplorer
    assert EXPLORERS.get("x86-tso") is TSOExplorer
    assert EXPLORERS.get("pso") is PSOExplorer
    assert EXPLORERS.get("arm") is ARMExplorer
    assert EXPLORERS.get("power") is POWERExplorer


def test_model_entries_wrap_machine_models():
    assert get_model("x86-tso").model is X86_TSO
    assert get_model("pso").model is PSO
    assert get_model("x86-tso").display == "TSO"


def test_weak_explorer_dispatch():
    cls, machine = weak_explorer_for("pso")
    assert cls is PSOExplorer
    assert machine is PSO
    with pytest.raises(KeyError, match="no weak-memory explorer"):
        weak_explorer_for("rmo")
    with pytest.raises(KeyError, match="unknown model 'bogus'"):
        weak_explorer_for("bogus")


# --- program sources --------------------------------------------------------


def test_resolve_corpus_spec():
    resolved = resolve_spec(ProgramSpec.corpus("fft"))
    assert resolved.name == "fft"
    assert "fn " in resolved.source


def test_resolve_file_spec(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(MP)
    resolved = resolve_spec(ProgramSpec.file(str(path)))
    assert resolved.name == "prog"
    assert resolved.source == MP


def test_resolve_inline_spec():
    resolved = resolve_spec(ProgramSpec.inline(MP, name="mine"))
    assert resolved.name == "mine"
    assert resolved.source == MP


def test_resolve_litmus_spec():
    resolved = resolve_spec(ProgramSpec.litmus("dekker"))
    assert "fn " in resolved.source
    with pytest.raises(KeyError, match="unknown litmus test"):
        resolve_spec(ProgramSpec.litmus("bogus"))


def test_unknown_source_kind():
    with pytest.raises(KeyError, match="unknown program source kind"):
        resolve_spec(ProgramSpec(kind="url", name="x"))


def test_program_spec_payload_round_trip():
    spec = ProgramSpec.file("/tmp/x.c", name="x", manual_fences=True)
    assert ProgramSpec.from_payload(spec.to_payload()) == spec


def test_unknown_model_message():
    assert "rmo" in MODELS
    with pytest.raises(KeyError, match="unknown model 'bogus'"):
        get_model("bogus")


def test_oracle_variant_constants_track_the_live_registry():
    """DETECTION_VARIANTS/TRUSTED_VARIANTS are registry views, not
    import-time snapshots: a detector registered after import is
    visible to the fuzzer immediately."""
    from repro.core.pipeline import PipelineVariant
    from repro.registry.variants import DetectionVariant
    from repro.validate import oracle

    assert oracle.DETECTION_VARIANTS == detection_variant_keys()
    assert oracle.TRUSTED_VARIANTS == trusted_variant_keys()

    VARIANTS.register(
        "late-test",
        DetectionVariant(key="late-test",
                         pipeline_variant=PipelineVariant.CONTROL),
    )
    try:
        assert "late-test" in detection_variant_keys()
        assert "late-test" in oracle.DETECTION_VARIANTS
    finally:
        del VARIANTS._entries["late-test"]
    assert "late-test" not in oracle.DETECTION_VARIANTS
