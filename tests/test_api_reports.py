"""Tests for the schema-versioned wire format (repro.api.reports).

Covers: byte-identical JSON round-trips for every registered wire
type, golden-file schema stability, schema_version/kind gating,
unknown/missing field rejection, kind dispatch, and payload diffing.
"""

import json
from pathlib import Path

import pytest

from repro.api import (
    REPORT_KINDS,
    AnalyzeReport,
    SchemaError,
    diff_payloads,
    load_report,
)

from _report_fixtures import sample_payloads

GOLDEN_DIR = Path(__file__).parent / "data" / "reports"


@pytest.fixture(scope="module")
def samples():
    return sample_payloads()


def test_every_registered_kind_has_a_sample(samples):
    assert set(samples) == set(REPORT_KINDS.keys())


@pytest.mark.parametrize("kind", sorted(sample_payloads()))
def test_json_round_trip_is_byte_identical(samples, kind):
    original = samples[kind]
    wire = original.to_json()
    restored = type(original).from_json(wire)
    assert restored.to_json() == wire
    # And a second hop stays stable too.
    assert type(original).from_json(restored.to_json()).to_json() == wire


@pytest.mark.parametrize("kind", sorted(sample_payloads()))
def test_golden_file_schema_stability(samples, kind):
    """The serialized form of each wire type is frozen in a golden
    file; an intentional format change must regenerate the goldens
    (python tools/gen_golden_reports.py) and bump SCHEMA_VERSION."""
    golden = (GOLDEN_DIR / f"{kind}.json").read_text(encoding="utf-8")
    assert samples[kind].to_json() + "\n" == golden
    assert load_report(golden).to_json() + "\n" == golden


@pytest.mark.parametrize("kind", sorted(sample_payloads()))
def test_unknown_schema_version_rejected(samples, kind):
    payload = samples[kind].to_payload()
    payload["schema_version"] = 999
    with pytest.raises(SchemaError, match="schema_version 999"):
        type(samples[kind]).from_payload(payload)
    with pytest.raises(SchemaError, match="schema_version 999"):
        load_report(json.dumps(payload))


def test_kind_mismatch_rejected(samples):
    payload = samples["analyze-report"].to_payload()
    payload["kind"] = "batch-report"  # same schema_version, wrong kind
    with pytest.raises(SchemaError, match="unknown fields"):
        load_report(json.dumps(payload))  # dispatches to BatchReport
    with pytest.raises(SchemaError, match="cannot be read as"):
        AnalyzeReport.from_payload(payload)
    # A kind whose schema version differs trips the version gate first.
    payload = samples["analyze-report"].to_payload()
    payload["kind"] = "simulate-report"
    with pytest.raises(SchemaError, match="schema_version"):
        load_report(json.dumps(payload))


def test_unknown_and_missing_fields_rejected(samples):
    payload = samples["analyze-report"].to_payload()
    payload["bonus"] = 1
    with pytest.raises(SchemaError, match="unknown fields: bonus"):
        AnalyzeReport.from_payload(payload)
    payload = samples["analyze-report"].to_payload()
    del payload["bonus" if "bonus" in payload else "full_fences"]
    with pytest.raises(SchemaError, match="missing fields: full_fences"):
        AnalyzeReport.from_payload(payload)


def test_load_report_rejects_garbage():
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_report("{nope")
    with pytest.raises(SchemaError, match="'kind'"):
        load_report(json.dumps({"schema_version": 1}))
    # Unknown kinds are SchemaErrors too — the one documented exception
    # type covers every unreadable payload.
    with pytest.raises(SchemaError, match="unknown report kind"):
        load_report(json.dumps({"kind": "mystery", "schema_version": 1}))


def test_malformed_nested_payloads_raise_schema_error(samples):
    # Extra key inside an embedded program spec.
    payload = samples["analyze-request"].to_payload()
    payload["program"]["bogus"] = 1
    with pytest.raises(SchemaError, match="malformed ProgramSpec"):
        load_report(json.dumps(payload))
    # Missing field inside a nested per-variant record.
    payload = samples["check-report"].to_payload()
    del payload["variants"][0]["restored_sc"]
    with pytest.raises(SchemaError, match="malformed VariantCheck"):
        load_report(json.dumps(payload))
    # Wrong shape entirely.
    payload = samples["check-report"].to_payload()
    payload["variants"] = "nope"
    with pytest.raises(SchemaError, match="expected an array"):
        load_report(json.dumps(payload))


def test_fuzz_report_rejects_unknown_fields(samples):
    for where, mutate in (
        ("payload", lambda p: p.__setitem__("extra_field", 123)),
        ("config", lambda p: p["config"].__setitem__("extra", 1)),
        ("summary", lambda p: p["summary"].__setitem__("extra", 1)),
    ):
        payload = samples["fuzz-report"].to_payload()
        mutate(payload)
        with pytest.raises(SchemaError, match="unknown fields"):
            load_report(json.dumps(payload))


def test_diff_payloads_reports_scalar_list_and_nested_changes(samples):
    a = samples["batch-report"].to_payload()
    b = json.loads(json.dumps(a))
    b["wall"] = 0.5
    b["cells"][0]["full_fences"] = 9
    lines = diff_payloads(a, b)
    assert any(line.startswith("~ wall: 0.25 -> 0.5") for line in lines)
    assert any("cells[0].full_fences: 4 -> 9" in line for line in lines)
    assert diff_payloads(a, a) == []


def test_reports_render_without_registry_lookups_failing(samples):
    for sample in samples.values():
        assert isinstance(sample.render(), str)
