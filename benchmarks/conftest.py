"""Shared fixtures for the benchmark harness."""

from __future__ import annotations

from pathlib import Path

import pytest

REPORT_PATH = Path(__file__).resolve().parent.parent / "benchmark_reports.txt"


@pytest.fixture(scope="session")
def report_sink():
    """Collect rendered ablation reports; written to
    ``benchmark_reports.txt`` at session end (pytest captures teardown
    stdout, so a file is the reliable channel)."""
    reports: dict[str, str] = {}
    yield reports
    if reports:
        separator = "\n\n" + "=" * 72 + "\n\n"
        REPORT_PATH.write_text(
            separator.join(reports[name] for name in sorted(reports)) + "\n",
            encoding="utf-8",
        )
        print(f"\n[ablation reports written to {REPORT_PATH}]")
