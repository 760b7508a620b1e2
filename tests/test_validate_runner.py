"""Tests for the budgeted fuzz runner and the wire report it returns."""

from __future__ import annotations

import json

import pytest

from repro.validate.runner import FuzzCase, execute_fuzz_case, run_fuzz


def test_run_fuzz_serial_matrix_and_payload():
    report = run_fuzz(
        seeds=2,
        shapes=("publish", "dekker"),
        variants=("vanilla", "address+control"),
        parallel=False,
    )
    assert len(report.cases) == report.cases_run == 4
    assert report.cases_skipped == 0
    assert not report.budget_exhausted
    # dekker trips vanilla on every seed; address+control never trips.
    violating = {v.variant for v in report.violations}
    assert violating == {"vanilla"}
    assert all(v.shape == "dekker" for v in report.violations)
    assert all(v.source_lines < 25 for v in report.violations)
    assert all("LitmusTest(" in v.snippet for v in report.violations)

    summary = report.variant_summary
    assert summary["address+control"]["violations"] == 0
    assert summary["vanilla"]["violations"] == len(report.violations)
    assert summary["address+control"]["checked"] == 4

    payload = report.to_payload()
    json.dumps(payload)  # the whole report must be JSON-serializable
    assert payload["summary"]["cases_run"] == 4
    assert payload["summary"]["violations"] == len(report.violations)
    assert payload["config"]["shapes"] == ["publish", "dekker"]


def test_run_fuzz_budget_cuts_the_tail():
    report = run_fuzz(
        seeds=20,
        shapes=("publish",),
        variants=("address+control",),
        budget=0.0,
        jobs=1,
        parallel=False,
        shrink=False,
    )
    assert report.budget_exhausted
    assert report.cases_skipped > 0
    assert len(report.cases) + report.cases_skipped == 20
    # The completed prefix is deterministic: seeds in order from 0.
    assert [case["seed"] for case in report.cases] == list(
        range(len(report.cases))
    )


def test_run_fuzz_validates_arguments():
    with pytest.raises(KeyError, match="unknown shape"):
        run_fuzz(seeds=1, shapes=("nope",))
    with pytest.raises(KeyError, match="unknown variant"):
        run_fuzz(seeds=1, variants=("nope",))
    with pytest.raises(KeyError, match="unknown model"):
        run_fuzz(seeds=1, models=("nope",))


def test_execute_fuzz_case_records_errors_instead_of_raising():
    result = execute_fuzz_case(FuzzCase(seed=0, shape="not-a-shape"))
    assert result.error is not None
    assert "unknown shape" in result.error
    assert result.report is None
    assert result.violations == ()


def test_execute_fuzz_case_without_shrinking_keeps_original_source():
    result = execute_fuzz_case(
        FuzzCase(
            seed=2, shape="dekker", variants=("vanilla",), shrink=False
        )
    )
    assert result.error is None
    assert len(result.violations) == 1
    violation = result.violations[0]
    assert violation.shrink_checks == 0
    assert violation.source_lines == result.source_lines
