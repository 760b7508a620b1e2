#!/usr/bin/env python3
"""Regenerate the golden expected-findings files under tests/data/lint/.

Three goldens pin the static DRF gate's output:

* ``litmus_expected.json`` — every litmus test, explorer confirmation
  on: candidate counts, verdict tallies, and per-finding summaries.
* ``corpus_expected.json`` — all 17 corpus programs, confirmation off
  (they exceed the explorer's bounds): the lint-corpus CI job replays
  ``repro lint`` against this file.
* ``arch_expected.json`` — selected corpus programs linted with a
  Power backend, messages included: pins the FENCE104
  greedy-vs-optimal cost gaps (exact cycle numbers and the fences
  where the two plans differ).

Run ``PYTHONPATH=src python tools/gen_lint_goldens.py`` after a
deliberate detector/pass change, and review the diff like any golden.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import LintRequest, ProgramSpec, Session  # noqa: E402
from repro.memmodel.litmus import LITMUS_TESTS  # noqa: E402
from repro.programs import all_programs  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "lint"


def finding_summary(finding, with_message: bool = False) -> dict:
    out = {
        "code": finding["code"],
        "severity": finding["severity"],
        "verdict": finding["verdict"],
        "spans": [
            [span["function"], span["uid"]] for span in finding["spans"]
        ],
    }
    if with_message:
        out["message"] = finding["message"]
    return out


def report_summary(report: dict, with_message: bool = False) -> dict:
    return {
        "errors": report["errors"],
        "warnings": report["warnings"],
        "notes": report["notes"],
        "confirmed_races": report["confirmed_races"],
        "refuted_candidates": report["refuted_candidates"],
        "unknown_candidates": report["unknown_candidates"],
        "findings": [
            finding_summary(f, with_message) for f in report["findings"]
        ],
    }


def lint_all(session: Session, specs: dict, confirm: bool) -> dict:
    out = {}
    for name, spec in specs.items():
        report = session.lint(
            LintRequest(program=spec, confirm=confirm)
        ).to_payload()
        out[name] = report_summary(report)
    return out


#: Programs whose greedy plans are strictly suboptimal on Power —
#: the FENCE104 golden pins their exact cost gaps.
ARCH_PROGRAMS = ("matrix", "raytrace")


def lint_arch(session: Session) -> dict:
    out = {}
    for name in ARCH_PROGRAMS:
        report = session.lint(
            LintRequest(
                program=ProgramSpec.corpus(name),
                model="power",
                arch="power",
                confirm=False,
            )
        ).to_payload()
        out[name] = report_summary(report, with_message=True)
    return out


def main() -> int:
    session = Session(parallel=False)
    litmus = {
        name: ProgramSpec.litmus(name) for name in LITMUS_TESTS
    }
    corpus = {
        name: ProgramSpec.corpus(name) for name in sorted(all_programs())
    }
    goldens = {
        "litmus_expected.json": {
            "schema": 1,
            "variant": "address+control",
            "model": "x86-tso",
            "confirm": True,
            "programs": lint_all(session, litmus, confirm=True),
        },
        "corpus_expected.json": {
            "schema": 1,
            "variant": "address+control",
            "model": "x86-tso",
            "confirm": False,
            "programs": lint_all(session, corpus, confirm=False),
        },
        "arch_expected.json": {
            "schema": 1,
            "variant": "address+control",
            "model": "power",
            "arch": "power",
            "confirm": False,
            "programs": lint_arch(session),
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for filename, payload in goldens.items():
        path = OUT_DIR / filename
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(Path.cwd())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
