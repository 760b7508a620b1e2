"""Golden-findings tests for the lint pipeline (tests/data/lint/).

Two guarantees the goldens pin:

* every ``well_synchronized`` litmus program lints clean (zero
  warnings/errors — refuted static candidates may remain as notes),
  and every deliberately-racy shape carries at least one
  explorer-confirmed race;
* the whole benchmark corpus matches its recorded per-program
  summaries, so detector precision changes show up as a reviewed
  golden diff, never silently.

Regenerate with ``PYTHONPATH=src python tools/gen_lint_goldens.py``.
"""

import json
from pathlib import Path

import pytest

from repro.api import LintRequest, ProgramSpec, Session
from repro.memmodel.litmus import LITMUS_TESTS
from repro.programs import all_programs

DATA_DIR = Path(__file__).parent / "data" / "lint"

LITMUS_GOLDEN = json.loads((DATA_DIR / "litmus_expected.json").read_text())
CORPUS_GOLDEN = json.loads((DATA_DIR / "corpus_expected.json").read_text())
ARCH_GOLDEN = json.loads((DATA_DIR / "arch_expected.json").read_text())


@pytest.fixture(scope="module")
def session():
    return Session(parallel=False)


def _summarize(report: dict, with_message: bool = False) -> dict:
    return {
        "errors": report["errors"],
        "warnings": report["warnings"],
        "notes": report["notes"],
        "confirmed_races": report["confirmed_races"],
        "refuted_candidates": report["refuted_candidates"],
        "unknown_candidates": report["unknown_candidates"],
        "findings": [
            {
                "code": f["code"],
                "severity": f["severity"],
                "verdict": f["verdict"],
                "spans": [[s["function"], s["uid"]] for s in f["spans"]],
                **({"message": f["message"]} if with_message else {}),
            }
            for f in report["findings"]
        ],
    }


def test_goldens_cover_every_program():
    assert set(LITMUS_GOLDEN["programs"]) == set(LITMUS_TESTS)
    assert set(CORPUS_GOLDEN["programs"]) == set(all_programs())


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_lint_matches_golden(session, name):
    report = session.lint(
        LintRequest(program=ProgramSpec.litmus(name), confirm=True)
    ).to_payload()
    assert _summarize(report) == LITMUS_GOLDEN["programs"][name]


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_well_synchronized_litmus_programs_lint_clean(session, name):
    """The headline acceptance gate: zero race findings (at warning
    severity or above) on every well-synchronized program, and every
    reported race on the racy shapes carries a concrete witness."""
    report = session.lint(
        LintRequest(program=ProgramSpec.litmus(name), confirm=True)
    )
    race_findings = [
        f for f in report.findings if f.code.startswith("RACE")
    ]
    if LITMUS_TESTS[name].well_synchronized:
        assert not [f for f in race_findings if f.severity != "note"], (
            f"{name} is well-synchronized but lints racy"
        )
    else:
        confirmed = [f for f in race_findings if f.verdict == "confirmed"]
        assert confirmed, f"{name} is racy but nothing was confirmed"
        for finding in confirmed:
            assert finding.witness, f"{name}: confirmed race lacks a witness"


def test_dekker_refuted_candidates_pinned(session):
    """Precision regression: dekker's three z candidates must stay
    exhaustively refuted (notes), never confirmed."""
    golden = LITMUS_GOLDEN["programs"]["dekker"]
    assert golden["errors"] == golden["warnings"] == 0
    assert golden["refuted_candidates"] == 3
    assert all(f["verdict"] == "refuted" for f in golden["findings"])


@pytest.mark.parametrize("name", sorted(all_programs()))
def test_corpus_lint_matches_golden(session, name):
    report = session.lint(
        LintRequest(program=ProgramSpec.corpus(name), confirm=False)
    ).to_payload()
    assert _summarize(report) == CORPUS_GOLDEN["programs"][name]


@pytest.mark.parametrize("name", sorted(ARCH_GOLDEN["programs"]))
def test_arch_lint_matches_golden(session, name):
    """Power-backend lint replay: pins FENCE104 suboptimal-greedy
    findings with their exact cycle costs and differing fences."""
    report = session.lint(
        LintRequest(
            program=ProgramSpec.corpus(name),
            model="power",
            arch="power",
            confirm=False,
        )
    ).to_payload()
    assert _summarize(report, with_message=True) == (
        ARCH_GOLDEN["programs"][name]
    )


def test_fence104_pinned_in_arch_golden():
    """At least one corpus program must carry a strictly-cheaper
    optimal plan on Power, surfaced as FENCE104 notes."""
    f104 = {
        name: [f for f in s["findings"] if f["code"] == "FENCE104"]
        for name, s in ARCH_GOLDEN["programs"].items()
    }
    assert all(f104.values()), "every arch-golden program pins FENCE104"
    matrix = " ".join(f["message"] for f in f104["matrix"])
    for cost in ("3249", "3194", "659", "557", "386", "331"):
        assert cost in matrix
    assert "differing fences" in matrix


def test_corpus_noise_floor():
    """16 of 17 corpus programs lint clean; canneal's two warnings are
    its genuine unprotected ``cn_accepted`` lost-update race."""
    noisy = {
        name: summary
        for name, summary in CORPUS_GOLDEN["programs"].items()
        if summary["errors"] or summary["warnings"]
    }
    assert set(noisy) == {"canneal"}
    assert noisy["canneal"]["warnings"] == 2
    assert all(
        f["code"] == "RACE001" for f in noisy["canneal"]["findings"]
    )
